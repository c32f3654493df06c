package main

import (
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

// smallUTS runs a two-node UTS traversal with tr installed.
func smallUTS(t *testing.T, tr trace.Tracer) {
	t.Helper()
	_, err := uts.Run(uts.Config{
		Machine: topo.Pyramid(), Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
		Tree: uts.Small(3000), Seed: 1, Tracer: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounterOptsIntoNothing(t *testing.T) {
	c := newCounter()
	if trace.WantsClock(c) || trace.WantsUtil(c) || trace.WantsEdge(c) {
		t.Fatal("the counting sink opted into a trace capability")
	}
}

// The counter beside a bare sink leaves that sink's stream unchanged.
func TestCounterSeesBareStream(t *testing.T) {
	bare := trace.NewDigest()
	smallUTS(t, bare)
	teed := trace.NewDigest()
	c := newCounter()
	smallUTS(t, trace.Tee(c, teed))
	if bare.Sum64() != teed.Sum64() || bare.Events() != teed.Events() {
		t.Fatalf("digest %016x/%d events alone, %016x/%d beside the counter",
			bare.Sum64(), bare.Events(), teed.Sum64(), teed.Events())
	}
	if c.total != bare.Events() {
		t.Fatalf("counter saw %d events, the bare sink %d", c.total, bare.Events())
	}
	if c.parks == 0 || c.cats[catIndex("sim")] == 0 || c.virtualNS() == 0 {
		t.Fatalf("counter missed the engine: parks %d, sim events %d, virtual %d ns",
			c.parks, c.cats[catIndex("sim")], c.virtualNS())
	}
}

// The counter's per-class transfer totals equal the manifest's
// communication matrix on the same stream.
func TestCounterMatchesCommMatrix(t *testing.T) {
	coll := metrics.NewCollection()
	c := newCounter()
	smallUTS(t, trace.Tee(c, coll))
	var msgs int64
	for i, cl := range commClasses {
		if c.msgs[i] != coll.Comm.ClassMessages(cl) || c.bytes[i] != coll.Comm.ClassBytes(cl) {
			t.Errorf("class %s: counter %d msgs/%d bytes, comm matrix %d/%d", cl,
				c.msgs[i], c.bytes[i], coll.Comm.ClassMessages(cl), coll.Comm.ClassBytes(cl))
		}
		msgs += c.msgs[i]
	}
	if msgs == 0 || msgs != coll.Comm.Messages() {
		t.Errorf("counter saw %d transfers, comm matrix %d", msgs, coll.Comm.Messages())
	}
	if c.catCount(trace.CatComm) != msgs {
		t.Errorf("events.comm %d != %d transfers", c.catCount(trace.CatComm), msgs)
	}
}

func TestCounterAddAndEqual(t *testing.T) {
	a, b := newCounter(), newCounter()
	for _, e := range []trace.Event{
		{Kind: trace.KRunBegin, Cat: "sim"},
		{Time: 5, Kind: trace.KProcPark, Cat: "sim"},
		{Time: 7, Kind: trace.KInstant, Cat: trace.CatComm, Aux: trace.ClassNetwork, Arg: 24},
		{Time: 9, Kind: trace.KInstant, Cat: "custom"},
	} {
		a.Emit(e)
		b.Emit(e)
	}
	if !a.equal(b) {
		t.Fatal("equal streams counted differently")
	}
	sum := newCounter()
	sum.add(a)
	sum.add(b)
	if sum.total != 8 || sum.parks != 2 || sum.msgs[3] != 2 || sum.bytes[3] != 48 ||
		sum.virtualNS() != 18 || sum.catCount("other") != 2 {
		t.Fatalf("merged counter %+v", sum)
	}
	b.Emit(trace.Event{Kind: trace.KProcPark, Cat: "sim"})
	if a.equal(b) {
		t.Fatal("unequal streams compared equal")
	}
}
