package group

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/upc"
)

// pinDigest attaches a plain trace.Digest to c (it observes no
// completion edges) and returns a check that the run hashed to want.
// The pins hold every recovery decision of the scenario fixed.
func pinDigest(t *testing.T, c *upc.Config, want string) func() {
	t.Helper()
	dg := trace.NewDigest()
	c.Tracer = dg
	return func() {
		t.Helper()
		if got := fmt.Sprintf("%s (%d events)", dg, dg.Events()); got != want {
			t.Errorf("TraceDigest = %s, want %s", got, want)
		}
	}
}

// TestGroupSurvivesMemberCrash: a spanning group loses its node-1 members
// mid-run. The survivors' barrier must release on the live members alone
// and the reduction must combine only their contributions.
func TestGroupSurvivesMemberCrash(t *testing.T) {
	c := cfg(8, 4)
	c.Faults = &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	sums := make([]float64, 8)
	pinned := pinDigest(t, &c, "9b02d44e79bfba34 (102 events)")
	_, err := upc.Run(c, func(th *upc.Thread) {
		g, gerr := New(th, []int{0, 1, 2, 3, 4, 5, 6, 7})
		if gerr != nil {
			t.Error(gerr)
			return
		}
		if got := g.ReduceSum(1); got != 8 {
			t.Errorf("thread %d pre-crash sum = %g, want 8", th.ID, got)
		}
		th.P.Advance(2 * sim.Millisecond)
		if th.Failed() {
			th.Retire()
			return
		}
		if berr := g.BarrierErr(); berr != nil {
			t.Errorf("thread %d survivor barrier: %v", th.ID, berr)
			return
		}
		s, serr := g.ReduceSumErr(1)
		if serr != nil {
			t.Errorf("thread %d survivor reduce: %v", th.ID, serr)
			return
		}
		sums[th.ID] = s
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned()
	for id := 0; id < 4; id++ {
		if sums[id] != 4 {
			t.Errorf("survivor %d post-crash sum = %g, want 4", id, sums[id])
		}
	}
}

// TestGroupBarrierErrTimesOut: a live member that simply never arrives
// exhausts the deadline ladder with a typed timeout instead of hanging.
func TestGroupBarrierErrTimesOut(t *testing.T) {
	c := cfg(4, 2)
	c.Faults = &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 30, Prob: 0.5, Src: -1, Dst: -1}, // arms faults, never active
	}}
	var barErr error
	pinned := pinDigest(t, &c, "07cb711482007053 (34 events)")
	_, err := upc.Run(c, func(th *upc.Thread) {
		//upcvet:collalign -- threads outside the two-member group exit; BarrierErr only syncs members
		if th.ID > 1 {
			return
		}
		g, gerr := New(th, []int{0, 1})
		if gerr != nil {
			t.Error(gerr)
			return
		}
		//upcvet:collalign -- deliberate no-show exercising the barrier timeout ladder
		if th.ID == 1 {
			th.P.Advance(20 * sim.Second) // never shows up
			return
		}
		barErr = g.BarrierErr()
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned()
	if !errors.Is(barErr, fault.ErrTimeout) {
		t.Errorf("group barrier with absent member: %v, want ErrTimeout", barErr)
	}
}
