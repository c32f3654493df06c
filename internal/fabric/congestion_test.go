package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func TestCongestionBetaDegradesGoodput(t *testing.T) {
	// 32 equal flows on a beta link must take longer than on an ideal one.
	run := func(beta float64) sim.Time {
		e := sim.New(1)
		n := NewNet(e)
		l := NewLink("nic", 1e9)
		l.Beta = beta
		var worst sim.Time
		for i := 0; i < 32; i++ {
			e.Go(fmt.Sprintf("f%d", i), func(p *sim.Proc) {
				n.Transfer(p, 1<<20, 0, l)
				if p.Now() > worst {
					worst = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return worst
	}
	ideal, congested := run(0), run(0.01)
	ratio := float64(congested) / float64(ideal)
	// 1 + 0.01*31 = 1.31 expected while all 32 are in flight.
	if ratio < 1.15 || ratio > 1.45 {
		t.Errorf("congestion ratio = %.2f, want ~1.3", ratio)
	}
}

func TestCongestionCapBounds(t *testing.T) {
	// With 10000 flows the divisor must clamp at maxCongestion.
	l := NewLink("nic", 1e9)
	l.Beta = 0.01
	l.active = 10000
	share := l.share()
	wantShare := 1e9 / maxCongestion / 10000
	if share < wantShare*0.99 || share > wantShare*1.01 {
		t.Errorf("capped share = %g, want ~%g", share, wantShare)
	}
}

func TestSingleFlowUnaffectedByBeta(t *testing.T) {
	l := NewLink("nic", 1e9)
	l.Beta = 0.5
	l.active = 1
	if got := l.share(); got != 1e9 {
		t.Errorf("a lone flow must see full capacity, got %g", got)
	}
}

func TestMarkSharedWidensAggregate(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, lehmanForTest(), QDRInfiniBand())
	ep := c.MustEndpoint(0)
	if ep.conn.capacity != c.Conduit.ConnBW {
		t.Fatalf("private connection capacity = %g", ep.conn.capacity)
	}
	ep.MarkShared()
	want := 0.95 * c.Conduit.NICBW
	if ep.conn.capacity != want {
		t.Errorf("shared connection capacity = %g, want %g", ep.conn.capacity, want)
	}
	if !ep.Shared {
		t.Error("MarkShared must set the flag")
	}
}

func lehmanForTest() *topo.Machine { return topo.Lehman() }

func place(node, socket, core int) topo.Place {
	return topo.Place{Node: node, Socket: socket, Core: core}
}

func TestSharedTxOccupancyZeroCopyThreshold(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, lehmanForTest(), QDRInfiniBand())
	ep := c.MustEndpoint(0)
	ep.MarkShared()
	small := ep.txOccupancy(1 << 10)
	mid := ep.txOccupancy(32 << 10)
	big := ep.txOccupancy(8 << 20)
	capAt := ep.txOccupancy(zeroCopyThreshold)
	if !(small < mid && mid < big) {
		t.Errorf("occupancy not monotone: %v %v %v", small, mid, big)
	}
	if big != capAt {
		t.Errorf("above the zero-copy threshold the locked work must cap: %v vs %v", big, capAt)
	}
	// Private connections pay only the gap, independent of size.
	priv := c.MustEndpoint(0)
	if priv.txOccupancy(8<<20) != c.Conduit.MsgGap {
		t.Errorf("private occupancy = %v, want gap %v", priv.txOccupancy(8<<20), c.Conduit.MsgGap)
	}
}

func TestMemCopyAsyncAppliesAtCompletion(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, lehmanForTest(), QDRInfiniBand())
	applied := false
	e.Go("p", func(p *sim.Proc) {
		op, err := c.MemCopyAsync(p, place(0, 0, 0), place(0, 1, 0), 1<<20, 0,
			func() { applied = true })
		if err != nil {
			t.Error(err)
			return
		}
		if applied {
			t.Error("apply must not run at initiation")
		}
		op.WaitRemote(p)
		if !applied {
			t.Error("apply must run by completion")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLoopbackConsumesNIC(t *testing.T) {
	// Intra-node loopback traffic must slow down concurrent remote
	// traffic on the same NIC (the Figure 3.4 base-runtime effect).
	run := func(withLoopback bool) sim.Time {
		e := sim.New(1)
		c := NewCluster(e, lehmanForTest(), QDRInfiniBand())
		src := c.MustEndpoint(0)
		dst := c.MustEndpoint(1)
		var remoteDone sim.Time
		e.Go("remote", func(p *sim.Proc) {
			src.Put(p, dst, 8<<20, nil)
			remoteDone = p.Now()
		})
		if withLoopback {
			a := c.MustEndpoint(0)
			b := c.MustEndpoint(0)
			e.Go("loop", func(p *sim.Proc) {
				a.Put(p, b, 8<<20, nil)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return remoteDone
	}
	alone, contended := run(false), run(true)
	if contended <= alone {
		t.Errorf("loopback must contend with remote traffic: %v vs %v", contended, alone)
	}
}
