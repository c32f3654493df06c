package main

import (
	"strings"
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/fault"
	"repro/internal/trace"
)

// TestRunStatsForkJoin: the run-summary footer of a stream joined from
// per-run forks, as a parallel sweep builds it, matches the footer of
// the same stream fed straight in. The stream is three UTS runs under
// the lossy fault schedule, so fault-class comm bytes are present.
func TestRunStatsForkJoin(t *testing.T) {
	sched, err := fault.Load("../../examples/faults/lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	buf := trace.NewBuffer()
	for seed := int64(1); seed <= 3; seed++ {
		if _, err := uts.Run(uts.Config{
			Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
			Tree: uts.Small(3000 * int(seed)), Seed: seed, Tracer: buf, Faults: sched,
		}); err != nil {
			t.Fatal(err)
		}
	}

	want := &runStats{bytes: map[string]int64{}}
	got := &runStats{bytes: map[string]int64{}}
	var forks []trace.Tracer
	for _, e := range buf.Events() {
		want.Emit(e)
		switch {
		case want.runs == 1:
			got.Emit(e) // the first run goes straight into the parent
		case e.Kind == trace.KRunBegin:
			f, ok := trace.Fork(got)
			if !ok {
				t.Fatal("runStats is not forkable")
			}
			forks = append(forks, f)
			fallthrough
		default:
			forks[len(forks)-1].Emit(e)
		}
	}
	for _, f := range forks {
		trace.Join(got, f)
	}
	var g, w strings.Builder
	got.footer(&g)
	want.footer(&w)
	if g.String() != w.String() {
		t.Errorf("joined footer %q, streamed %q", g.String(), w.String())
	}
	if !strings.Contains(w.String(), "3 simulations") || !strings.Contains(w.String(), trace.ClassFault+"=") {
		t.Errorf("footer %q lacks the three runs or fault-class bytes", w.String())
	}
}
