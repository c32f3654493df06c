package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sweep"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this build")

// The byte-wise legacy digest of the Figure 4.5 quick-mode stream, as
// every build before the word-hashed digest printed it.
const (
	figure45LegacyDigest = 0x1feec9bcb9f3d931
	figure45Events       = 8110844
)

// TestFigure45Golden pins Figure 4.5 in quick mode: the rendered text
// and the TraceDigest of the full event stream. The figure is FT's
// all-to-all on the fluid fabric, so any drift in flow settling shows up
// here. The stream also feeds legacyDigest, whose value is pinned
// separately: it shows the stream is the one the pre-redefinition
// digest hashed. Regenerate with `go test ./internal/experiments -run
// Golden -update` only for an intended model change, and say which in
// the change log.
func TestFigure45Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-mode Figure 4.5 sweep")
	}
	legacy := newLegacyDigest()
	out, digest, events := renderAll(t, sweep.Workers(), func(w *strings.Builder) error {
		return Only(w, "Figure 4.5", true)
	}, legacy)
	if legacy.Sum64() != figure45LegacyDigest || legacy.Events() != figure45Events {
		t.Errorf("legacy digest of the Figure 4.5 stream = %s (%d events), want %016x (%d events)",
			legacy, legacy.Events(), uint64(figure45LegacyDigest), figure45Events)
	}
	checkGolden(t, "figure45.golden", out+fmt.Sprintf("TraceDigest: %016x (%d events)\n", digest, events))
}

// TestTable32Golden pins Table 3.2 in quick mode as `upc-uts -table=3.2
// -quick -metrics=…` produces it, from one sweep: the rendered text
// (its steal and spread columns come from trace.Collector), the
// TraceDigest, and the SHA-256 of the manifest file's bytes.
func TestTable32Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-mode Table 3.2 sweep")
	}
	prev := trace.Default()
	trace.SetDefault(nil)
	defer trace.SetDefault(prev)
	sess := trace.StartSession("")
	coll := metrics.NewCollection()
	sess.Attach(coll)
	var b strings.Builder
	err := Table32(&b, true)
	if cerr := sess.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	if err := coll.Manifest("upc-uts", map[string]string{"quick": "true", "table": "3.2"}).Write(&mb); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "TraceDigest: %016x (%d events)\n", sess.Digest(), sess.Events())
	fmt.Fprintf(&b, "Manifest SHA-256: %x\n", sha256.Sum256(mb.Bytes()))
	checkGolden(t, "table32.golden", b.String())
}

// TestTable32FaultGoldens pins Table 3.2 in quick mode under each
// example fault schedule, as `upc-uts -table=3.2 -quick -faults=…
// -digest` prints it: the rendered text and the TraceDigest. The runs
// exercise every recovery path of the UPC runtime (retry ladder, epoch
// fence, barrier release over the survivors, checkpoints and rejoin),
// so a refactor of recovery that changes any decision shows up here.
func TestTable32FaultGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("three full quick-mode Table 3.2 sweeps under fault schedules")
	}
	prev := fault.Default()
	defer fault.SetDefault(prev)
	for _, name := range []string{"lossy", "churn", "crash-node1"} {
		sched, err := fault.Load(filepath.Join("..", "..", "examples", "faults", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		fault.SetDefault(sched)
		out, digest, events := renderAll(t, sweep.Workers(), func(w *strings.Builder) error {
			return Table32(w, true)
		})
		checkGolden(t, "table32-"+name+".golden",
			out+fmt.Sprintf("TraceDigest: %016x (%d events)\n", digest, events))
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
