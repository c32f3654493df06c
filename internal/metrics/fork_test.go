package metrics

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/causality"
	"repro/internal/fault"
	"repro/internal/trace"
)

// utsLossyStream records three UTS runs under the lossy fault schedule
// with every opt-in capability the session sinks use, so the stream
// carries comm, link-occupancy, completion-edge and fault events.
func utsLossyStream(t *testing.T) []trace.Event {
	t.Helper()
	sched, err := fault.Load("../../examples/faults/lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer()
	tr := trace.Edged(trace.Utiled(buf))
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := uts.Run(uts.Config{
			Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
			Tree: uts.Small(3000 * int(seed)), Seed: seed, Tracer: tr, Faults: sched,
		}); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, e := range buf.Events() {
		seen[e.Cat] = true
		if e.Cat == trace.CatComm && e.Aux == trace.ClassFault {
			seen["fault"] = true
		}
	}
	for _, c := range []string{trace.CatComm, trace.CatLink, trace.CatEdge, "fault"} {
		if !seen[c] {
			t.Fatalf("recorded stream has no %s events", c)
		}
	}
	return buf.Events()
}

// linkRunsStream is five synthetic runs exercising the timeline join.
// Link A is seen in run 1, untouched in runs 2-4 and back in run 5, so
// a fork holding runs 2-3 never touches A and one holding runs 4-5
// first sees A in its second run; A's observed time must count every
// run from run 1 on either way. The runs alternate between short ones
// at the initial interval width and long ones that re-bin, so parent
// and child timelines differ in width in both directions.
func linkRunsStream() []trace.Event {
	run := func(seed int64, end int64, link string) []trace.Event {
		at := end / 8
		return []trace.Event{
			{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: seed},
			linkEvent(at, link, 1, 1e9),
			linkEvent(at+end/4, link, 2, 1e9),
			linkEvent(at+end/2, link, 0, 1e9),
			{Time: end, Kind: trace.KInstant, Proc: 0, Cat: "app", Name: "done"},
		}
	}
	var es []trace.Event
	es = append(es, run(1, 1_000, "A")...)
	es = append(es, run(2, 3_000_000, "B")...)
	es = append(es, run(3, 2_000, "B")...)
	es = append(es, run(4, 900_000, "B")...)
	es = append(es, run(5, 5_000, "A")...)
	return es
}

// splitRuns cuts a stream before every KRunBegin.
func splitRuns(events []trace.Event) [][]trace.Event {
	var runs [][]trace.Event
	for i, e := range events {
		if e.Kind == trace.KRunBegin || i == 0 {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], e)
	}
	return runs
}

// sinks is one instance of every forkable session sink, chained the way
// tracecli chains them.
type sinks struct {
	dg    *trace.Digest
	cw    *trace.ChromeWriter
	coll  *Collection
	rec   *causality.Recorder
	chain trace.Tracer
}

func newSinks() *sinks {
	s := &sinks{dg: trace.NewDigest(), cw: trace.NewChromeWriter(), coll: NewCollection(), rec: causality.NewRecorder()}
	s.chain = trace.Tee(trace.Tee(trace.Multi(s.cw, s.dg), s.coll), s.rec)
	return s
}

// outputs renders everything the sinks export: Chrome JSON, the
// analysis JSON, the folded flamegraph and the manifest, in that order.
func (s *sinks) outputs(t *testing.T) [][]byte {
	t.Helper()
	var cw, mb bytes.Buffer
	if err := s.cw.Export(&cw); err != nil {
		t.Fatal(err)
	}
	exp := s.rec.Export()
	js, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	m := s.coll.Manifest("fork-test", nil)
	m.Analysis = exp
	if err := m.Write(&mb); err != nil {
		t.Fatal(err)
	}
	return [][]byte{cw.Bytes(), js, []byte(s.rec.FoldedText()), mb.Bytes()}
}

// TestSinksForkJoinMatchStreaming feeds each stream once straight into
// a sink chain and once the way a parallel sweep does — the first run
// into the parent, later runs into forks that are all fed before any is
// joined, then joined in order — and requires byte-identical exports.
// Forks take one run each, or several runs each, plus an empty fork (a
// job that emitted nothing).
func TestSinksForkJoinMatchStreaming(t *testing.T) {
	for _, tc := range []struct {
		name   string
		events []trace.Event
	}{
		{"uts-lossy", utsLossyStream(t)},
		{"link-runs", linkRunsStream()},
	} {
		name, events := tc.name, tc.events
		want := newSinks()
		for _, e := range events {
			want.chain.Emit(e)
		}
		wantOut := want.outputs(t)
		runs := splitRuns(events)
		for _, perFork := range []int{1, 2} {
			got := newSinks()
			for _, e := range runs[0] {
				got.chain.Emit(e)
			}
			var forks []trace.Tracer
			for i := 1; i < len(runs); i += perFork {
				f, ok := trace.Fork(got.chain)
				if !ok {
					t.Fatal("session sink chain is not forkable")
				}
				for _, r := range runs[i:min(i+perFork, len(runs))] {
					for _, e := range r {
						f.Emit(e)
					}
				}
				forks = append(forks, f)
				if i == 1 {
					empty, _ := trace.Fork(got.chain)
					forks = append(forks, empty)
				}
			}
			for _, f := range forks {
				trace.Join(got.chain, f)
			}
			if got.dg.Sum64() != want.dg.Sum64() || got.dg.Events() != want.dg.Events() {
				t.Errorf("%s, %d runs per fork: digest %s/%d events, streamed %s/%d",
					name, perFork, got.dg, got.dg.Events(), want.dg, want.dg.Events())
			}
			for k, g := range got.outputs(t) {
				if !bytes.Equal(g, wantOut[k]) {
					t.Errorf("%s, %d runs per fork: %s (%d bytes) differs from the streamed sink's (%d bytes)",
						name, perFork, []string{"Chrome JSON", "analysis", "flamegraph", "manifest"}[k], len(g), len(wantOut[k]))
				}
			}
		}
	}
}
