package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata from this build")

// TestFigure45Golden pins Figure 4.5 in quick mode: the rendered text
// and the TraceDigest of the full event stream. The figure is FT's
// all-to-all on the fluid fabric, so any drift in flow settling shows up
// here. Regenerate with `go test ./internal/experiments -run Golden
// -update` only for an intended model change, and say which in the
// change log.
func TestFigure45Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-mode Figure 4.5 sweep")
	}
	out, digest, events := renderAll(t, sweep.Workers(), func(w *strings.Builder) error {
		return Only(w, "Figure 4.5", true)
	})
	got := out + fmt.Sprintf("TraceDigest: %016x (%d events)\n", digest, events)
	path := filepath.Join("testdata", "figure45.golden")
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
		t.Errorf("Figure 4.5 drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
