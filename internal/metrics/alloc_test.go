package metrics

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// syntheticRun is the body of one run (everything after its KRunBegin):
// lifecycle, nested spans, plain, comm, link and edge instants, and
// counters, on two procs and the engine track.
func syntheticRun() []trace.Event {
	return []trace.Event{
		{Time: 0, Kind: trace.KProcSpawn, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 0, Kind: trace.KProcSpawn, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 10, Kind: trace.KSpanBegin, Proc: 0, Cat: "uts", Name: "traverse"},
		{Time: 12, Kind: trace.KSpanBegin, Proc: 0, Cat: "upc", Name: "lock-acquire"},
		{Time: 15, Kind: trace.KSpanBegin, Proc: 1, Cat: "upc", Name: "barrier"},
		commEvent("get", trace.ClassNetwork, 64, 1, 0, 1, 0),
		commEvent("put", trace.ClassPSHM, 4096, 0, 1, 0, 0),
		linkEvent(20, "nic-tx0", 1, 1e9),
		linkEvent(30, "nic-tx0", 0, 1e9),
		{Time: 31, Kind: trace.KInstant, Proc: 0, Cat: "uts", Name: "steal", Arg: 8, Arg2: 1},
		{Time: 32, Kind: trace.KInstant, Proc: trace.EngineProc, Cat: trace.CatEdge, Name: "deliver", Arg2: 7},
		{Time: 35, Kind: trace.KSpanEnd, Proc: 0, Cat: "upc", Name: "lock-acquire"},
		{Time: 40, Kind: trace.KCounter, Proc: 0, Cat: "uts", Name: "steals", Arg: 1},
		{Time: 50, Kind: trace.KProcPark, Proc: 1, Cat: "sim", Name: "upc1", Aux: "barrier"},
		{Time: 60, Kind: trace.KProcUnpark, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 61, Kind: trace.KSpanEnd, Proc: 1, Cat: "upc", Name: "barrier"},
		{Time: 70, Kind: trace.KSpanEnd, Proc: 0, Cat: "uts", Name: "traverse"},
		{Time: 80, Kind: trace.KProcExit, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 80, Kind: trace.KProcExit, Proc: 1, Cat: "sim", Name: "upc1"},
	}
}

// TestSinksAllocationFree pins the per-event path of the built-in
// aggregating sinks at zero allocations: once a Collector, a
// Collection and a Digest have seen every label, proc and counter of a
// run, replaying the run allocates nothing. (A KRunBegin is left out
// of the replay: closing a run appends to the digest's run list, which
// is per-run, not per-event, work.)
func TestSinksAllocationFree(t *testing.T) {
	col, coll, dg := trace.NewCollector(), NewCollection(), trace.NewDigest()
	body := syntheticRun()
	begin := trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: 1}
	feed := func(e trace.Event) {
		col.Emit(e)
		coll.Emit(e)
		dg.Emit(e)
	}
	feed(begin)
	for _, e := range body {
		feed(e)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, e := range body {
			feed(e)
		}
	})
	if allocs != 0 {
		t.Errorf("replaying a warmed-up run allocates %v times per run, want 0", allocs)
	}
	// The replays really were aggregated.
	if got, want := col.Count("uts", "steal"), int64(102); got != want {
		t.Errorf("Collector counted %d steals, want %d", got, want)
	}
	if got, want := coll.Reg.Counter("comm.put.msgs"), int64(102); got != want {
		t.Errorf("Collection counted %d puts, want %d", got, want)
	}
}

// TestSessionAdoptsCollectionDigest: a session with a Collection
// attached reports the collection's digest, equal to a standalone
// digest of the same stream, and hashes each event once.
func TestSessionAdoptsCollectionDigest(t *testing.T) {
	if trace.Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	ref := trace.NewDigest()
	sess := trace.StartSession("")
	coll := NewCollection()
	sess.Attach(coll)
	sess.Attach(ref)
	for seed := int64(1); seed <= 2; seed++ {
		eng := sim.New(seed)
		eng.Go("worker", func(p *sim.Proc) {
			end := p.TraceSpan("test", "phase")
			p.Advance(100)
			p.TraceInstant("test", "tick", "", 1, 0)
			end()
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if coll.StreamDigest().Events() != ref.Events() {
		t.Errorf("collection hashed %d events, the stream had %d", coll.StreamDigest().Events(), ref.Events())
	}
	if sess.Digest() != coll.Digest() || sess.Digest() != ref.Sum64() || sess.Events() != ref.Events() {
		t.Errorf("session %016x/%d, collection %016x, stream %s/%d",
			sess.Digest(), sess.Events(), coll.Digest(), ref, ref.Events())
	}
}
