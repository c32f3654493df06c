package ra

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
)

func raCfg(v Variant) Config {
	return Config{
		Machine:   topo.Lehman(),
		Threads:   8,
		PerNode:   4,
		TableSize: 1 << 14,
		Updates:   2000,
		Variant:   v,
		Seed:      1,
	}
}

func TestAllVariantsProduceIdenticalTables(t *testing.T) {
	// Run() verifies against the sequential reference internally; a passing
	// run for each variant proves all three strategies compute the same
	// result.
	for _, v := range Variants() {
		r, err := Run(raCfg(v))
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if r.GUPS <= 0 {
			t.Errorf("%v: GUPS = %g", v, r.GUPS)
		}
		t.Logf("%-18s %8.5f GUPS  %6d messages  %v", v, r.GUPS, r.Messages, r.Elapsed)
	}
}

func TestAggregationReducesMessages(t *testing.T) {
	fine, err := Run(raCfg(Fine))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(raCfg(Aggregated))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Messages*10 > fine.Messages {
		t.Errorf("aggregation should cut messages by >10x: fine=%d agg=%d",
			fine.Messages, agg.Messages)
	}
}

func TestAggregationImprovesThroughput(t *testing.T) {
	fine, err := Run(raCfg(Fine))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(raCfg(Aggregated))
	if err != nil {
		t.Fatal(err)
	}
	if agg.GUPS <= fine.GUPS {
		t.Errorf("aggregated (%g GUPS) should beat fine-grained (%g GUPS)",
			agg.GUPS, fine.GUPS)
	}
}

func TestGroupAggregationReducesBucketsOnManyNodes(t *testing.T) {
	// On 4 nodes x 4 threads, node-level bucketing sends to 3 remote nodes
	// instead of 12 remote threads: fewer, larger buckets.
	cfg := raCfg(Aggregated)
	cfg.Threads, cfg.PerNode = 16, 4
	cfg.Updates = 4000
	agg, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Variant = GroupAggregated
	grp, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("per-thread buckets: %d msgs (%v); per-node buckets: %d msgs (%v)",
		agg.Messages, agg.Elapsed, grp.Messages, grp.Elapsed)
	if grp.Messages >= agg.Messages {
		t.Errorf("group aggregation should send fewer messages: %d vs %d",
			grp.Messages, agg.Messages)
	}
	if grp.Elapsed > agg.Elapsed+agg.Elapsed/4 {
		t.Errorf("group aggregation (%v) should not be much slower than per-thread (%v)",
			grp.Elapsed, agg.Elapsed)
	}
}

func TestReferenceDeterministic(t *testing.T) {
	a := Reference(raCfg(Fine))
	b := Reference(raCfg(Fine))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reference not deterministic at %d", i)
		}
	}
	nonZero := 0
	for _, v := range a {
		if v != 0 {
			nonZero++
		}
	}
	if nonZero < len(a)/4 {
		t.Errorf("reference table suspiciously sparse: %d/%d non-zero", nonZero, len(a))
	}
}

func TestSingleNodeIsAllLocal(t *testing.T) {
	cfg := raCfg(Fine)
	cfg.Threads, cfg.PerNode = 4, 4 // one node: every access castable
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages != 0 {
		t.Errorf("single-node fine-grained should issue no network messages, got %d", r.Messages)
	}
	if r.Elapsed <= 0 || r.Elapsed > sim.Second {
		t.Errorf("implausible elapsed %v", r.Elapsed)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Machine: topo.Lehman()}); err == nil {
		t.Error("empty config must error")
	}
	bad := raCfg(Fine)
	bad.ConduitName = "yodeling"
	if _, err := Run(bad); err == nil {
		t.Error("unknown conduit must error")
	}
}

// TestVariantsVerifyUnderLossyFaults runs every variant under the lossy
// example schedule: drops, duplicates and delays hit the active
// messages, which WaitSync recovers and applies at most once, so the
// XOR updates still match the sequential reference.
func TestVariantsVerifyUnderLossyFaults(t *testing.T) {
	sched, err := fault.Load("../../../examples/faults/lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	prev := fault.Default()
	fault.SetDefault(sched)
	defer fault.SetDefault(prev)
	for _, v := range Variants() {
		if _, err := Run(raCfg(v)); err != nil {
			t.Errorf("%v under lossy faults: %v", v, err)
		}
	}
}
