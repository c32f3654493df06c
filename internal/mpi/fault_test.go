package mpi

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// chaosCfg is cfg plus a fault schedule: 4 ranks on 2 nodes so rank r
// and rank r^2 always talk across the network.
func chaosCfg(sched *fault.Schedule) Config {
	c := cfg(4, 2)
	c.Faults = sched
	return c
}

// pinDigest attaches a plain trace.Digest to c (it observes no
// completion edges) and returns a check that the run hashed to want.
// The pins hold every recovery decision of the scenario fixed.
func pinDigest(t *testing.T, c *Config, want string) func() {
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

// TestEagerRecvRecoversFromDropWindow: every cross-node message inside
// the window is dropped; the receiver's NACK pull must recover the
// payload once the window closes.
func TestEagerRecvRecoversFromDropWindow(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 0, Until: 0.002, Prob: 1, Src: -1, Dst: -1},
	}}
	var gotAt sim.Time
	cf := chaosCfg(sched)
	pinned := pinDigest(t, &cf, "716114eb963643e2 (64 events)")
	_, err := Run(cf, func(c *Comm) {
		if c.Rank == 0 {
			c.Send(2, []byte{7}) // eager, cross-node: returns at WaitLocal
		}
		if c.Rank == 2 {
			got, rerr := c.RecvErr(0)
			if rerr != nil {
				t.Errorf("RecvErr under drop window: %v", rerr)
				return
			}
			if len(got) != 1 || got[0] != 7 {
				t.Errorf("payload = %v, want [7]", got)
			}
			gotAt = c.P.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned()
	if gotAt < sim.Time(2*sim.Millisecond) {
		t.Errorf("recv completed at %v, inside the total-drop window", gotAt)
	}
}

// TestRendezvousSendRetransmits: a rendezvous-size payload lost to the
// drop window is retransmitted by the blocked sender.
func TestRendezvousSendRetransmits(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpDrop, At: 0, Until: 0.002, Prob: 1, Src: -1, Dst: -1},
	}}
	var sentAt sim.Time
	cf := chaosCfg(sched)
	pinned := pinDigest(t, &cf, "c0db703d5347160b (109 events)")
	_, err := Run(cf, func(c *Comm) {
		if c.Rank == 0 {
			if serr := c.SendModelErr(2, 64*1024); serr != nil {
				t.Errorf("SendModelErr under drop window: %v", serr)
			}
			sentAt = c.P.Now()
		}
		if c.Rank == 2 {
			if _, rerr := c.RecvErr(0); rerr != nil {
				t.Errorf("RecvErr: %v", rerr)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned()
	if sentAt < sim.Time(2*sim.Millisecond) {
		t.Errorf("rendezvous send completed at %v, inside the total-drop window", sentAt)
	}
}

// TestCrashSurfacesTypedErrors: after node 1 crashes, sends toward it
// fail fast with ErrNodeDown, receives from it diagnose the crash, and
// barriers return a typed error instead of hanging.
func TestCrashSurfacesTypedErrors(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
	}}
	cf := chaosCfg(sched)
	pinned := pinDigest(t, &cf, "a45ff810ca9955ac (30 events)")
	_, err := Run(cf, func(c *Comm) {
		c.P.Advance(2 * sim.Millisecond)
		if c.Failed() {
			return // ranks on the dead node stop participating
		}
		serr := c.SendErr(2, []byte{1})
		if !errors.Is(serr, fault.ErrNodeDown) {
			t.Errorf("rank %d send to dead node: %v, want ErrNodeDown", c.Rank, serr)
		}
		var ce *fault.CommError
		if !errors.As(serr, &ce) || ce.Op != "send" || ce.Dst != 2 {
			t.Errorf("send error = %#v, want CommError{Op: send, Dst: 2}", serr)
		}
		if _, rerr := c.RecvErr(3); !errors.Is(rerr, fault.ErrNodeDown) {
			t.Errorf("rank %d recv from dead node: %v, want ErrNodeDown", c.Rank, rerr)
		}
		if berr := c.BarrierErr(); !errors.Is(berr, fault.ErrNodeDown) {
			t.Errorf("rank %d barrier with dead ranks: %v, want ErrNodeDown", c.Rank, berr)
		}
		if _, aerr := c.AllreduceSumErr(1); !errors.Is(aerr, fault.ErrNodeDown) {
			t.Errorf("rank %d allreduce with dead ranks: %v, want ErrNodeDown", c.Rank, aerr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	pinned()
}

// TestStaleEpochFailsStraddlingRendezvousSend mirrors the UPC epoch
// fence test: a rendezvous send issued before node 1 crashes, whose
// payload lands after the node's revival, is dropped by the delivery
// fence. The fabric-level op still completes, so the sender must see a
// typed ErrStaleEpoch rather than a success.
func TestStaleEpochFailsStraddlingRendezvousSend(t *testing.T) {
	sched := &fault.Schedule{Actions: []fault.Action{
		{Op: fault.OpCrash, At: 0.001, Until: 0.00105, Node: 1, Src: -1, Dst: -1},
	}}
	cf := chaosCfg(sched)
	col := trace.NewCollector()
	cf.Tracer = col
	var sendErr error
	_, err := Run(cf, func(c *Comm) {
		if c.Rank == 0 {
			c.P.Advance(900 * sim.Microsecond)
			sendErr = c.SendModelErr(2, 1<<20)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(sendErr, fault.ErrStaleEpoch) {
		t.Fatalf("straddling rendezvous send: err = %v, want ErrStaleEpoch", sendErr)
	}
	var ce *fault.CommError
	if !errors.As(sendErr, &ce) || ce.Op != "send" || ce.Dst != 2 {
		t.Errorf("straddling send error = %#v, want CommError{Op: send, Dst: 2}", sendErr)
	}
	if col.Count(trace.CatComm, "stale-drop") == 0 {
		t.Error("no stale-drop instant: the fence never fired")
	}
}

// TestChaosDeterministicAndCorrect: a probabilistic chaos schedule must
// give byte-identical payloads to a fault-free run and an identical
// virtual timeline across repeats of the same (seed, schedule).
func TestChaosDeterministicAndCorrect(t *testing.T) {
	mk := func(faults bool) *fault.Schedule {
		if !faults {
			return nil
		}
		return &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDrop, At: 0, Until: 0.01, Prob: 0.35, Src: -1, Dst: -1},
			{Op: fault.OpDuplicate, At: 0, Until: 0.01, Prob: 0.25, Src: -1, Dst: -1},
		}}
	}
	run := func(faults bool, pin string) (sim.Time, []byte) {
		got := make([]byte, 8)
		var end sim.Time
		cf := chaosCfg(mk(faults))
		pinned := pinDigest(t, &cf, pin)
		_, err := Run(cf, func(c *Comm) {
			peer := c.Rank ^ 2 // cross-node pairing
			for i := 0; i < 2; i++ {
				c.Send(peer, []byte{byte(10*c.Rank + i)})
			}
			for i := 0; i < 2; i++ {
				in := c.Recv(peer)
				got[2*c.Rank+i] = in[0]
			}
			c.Barrier()
			if t := c.P.Now(); t > end {
				end = t
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		pinned()
		return end, got
	}
	endA, gotA := run(true, "048a3083574cc330 (243 events)")
	endB, gotB := run(true, "048a3083574cc330 (243 events)")
	if endA != endB {
		t.Errorf("same seed+schedule diverged: %v vs %v", endA, endB)
	}
	for i := range gotA {
		if gotA[i] != gotB[i] {
			t.Errorf("payload %d diverged across identical runs: %d vs %d", i, gotA[i], gotB[i])
		}
	}
	_, clean := run(false, "0201da430bc3e040 (121 events)")
	for i := range clean {
		if gotA[i] != clean[i] {
			t.Errorf("payload %d under chaos = %d, fault-free = %d", i, gotA[i], clean[i])
		}
	}
}
