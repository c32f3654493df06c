package trace

import "testing"

// splitRuns cuts a stream before every KRunBegin.
func splitRuns(events []Event) [][]Event {
	var runs [][]Event
	for i, e := range events {
		if e.Kind == KRunBegin || i == 0 {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], e)
	}
	return runs
}

func TestForkWalksChain(t *testing.T) {
	if c, ok := Fork(nil); c != nil || !ok {
		t.Errorf("Fork(nil) = %v, %v; want nil, true", c, ok)
	}
	chain := Tee(Clocked(NewDigest()), Multi(Edged(NewChromeWriter()), Utiled(NewDigest())))
	c, ok := Fork(chain)
	if !ok {
		t.Fatal("chain of forkable sinks did not fork")
	}
	if !WantsClock(c) || !WantsEdge(c) || !WantsUtil(c) {
		t.Errorf("fork lost capabilities: clock %v edge %v util %v", WantsClock(c), WantsEdge(c), WantsUtil(c))
	}
	if _, ok := Fork(Tee(NewDigest(), Utiled(NewCollector()))); ok {
		t.Error("chain holding a Collector forked; Collector is not a Forker")
	}
}

// TestDigestRunOrder: the digest hashes runs in order, so swapping two
// whole runs changes it even though every per-run hash is unchanged.
func TestDigestRunOrder(t *testing.T) {
	runs := splitRuns(sample())
	a, b := NewDigest(), NewDigest()
	for _, r := range [][]Event{runs[0], runs[1]} {
		for _, e := range r {
			a.Emit(e)
		}
	}
	for _, r := range [][]Event{runs[1], runs[0]} {
		for _, e := range r {
			b.Emit(e)
		}
	}
	if a.Sum64() == b.Sum64() {
		t.Error("swapping two runs did not change the digest")
	}
}
