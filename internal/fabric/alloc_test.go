package fabric

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The allocation-regression tests pin the untraced one-sided hot path
// at zero allocations per operation: operation records, flows and
// delivery legs all come from free lists, and the blocking wrappers
// release their records internally. testing.AllocsPerRun runs inside
// the simulated process — the engine is otherwise idle, so any count it
// sees is the operation's own.

func TestBlockingPutNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Put(p, dst, 8, nil)
		}
		per = testing.AllocsPerRun(200, func() { src.Put(p, dst, 8, nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("blocking Put allocates %v allocs/op, want 0", per)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

func TestBlockingGetNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Get(p, dst, 8, nil)
		}
		per = testing.AllocsPerRun(200, func() { src.Get(p, dst, 8, nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("blocking Get allocates %v allocs/op, want 0", per)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

func TestShardPutNoAlloc(t *testing.T) {
	old := sim.ShardWorkers()
	sim.SetShardWorkers(1)
	defer sim.SetShardWorkers(old)
	g := sim.NewShardGroup(1, 2, trace.Default())
	net := NewShardNet(g, QDRInfiniBand())
	per := -1.0
	sink := 0
	apply := func() { sink++ }
	g.Lane(0).Go("putter", func(p *sim.Proc) {
		pt := net.Port(0)
		for i := 0; i < 64; i++ {
			pt.Put(p, 1, 8, apply)
		}
		per = testing.AllocsPerRun(200, func() { pt.Put(p, 1, 8, apply) })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("shard Put allocates %v allocs/op, want 0", per)
	}
	if out := net.PoolStats().Add(g.ArrivalPoolStats()).Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// idleFaults is a fault model whose hooks are armed but never fire:
// every message is delivered, no node is ever down. It pins the cost of
// having the fault plumbing consulted on the hot path.
type idleFaults struct{}

func (idleFaults) NodeDown(int) bool { return false }
func (idleFaults) MessageVerdict(int, int, int64) (sim.MessageVerdict, sim.Duration) {
	return sim.MsgDeliver, 0
}

// TestFaultArmedPutNoAlloc pins the armed fault hooks on the one-sided
// hot path: with a model installed, every Put pays the per-message
// verdict and down checks — and must still run at zero allocations.
func TestFaultArmedPutNoAlloc(t *testing.T) {
	e := sim.New(1)
	c := NewCluster(e, topo.Pyramid(), QDRInfiniBand())
	c.SetFaultModel(idleFaults{})
	src := c.MustEndpoint(0)
	dst := c.MustEndpoint(1)
	putPer, getPer := -1.0, -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			src.Put(p, dst, 8, nil)
			src.Get(p, dst, 8, nil)
		}
		putPer = testing.AllocsPerRun(200, func() { src.Put(p, dst, 8, nil) })
		getPer = testing.AllocsPerRun(200, func() { src.Get(p, dst, 8, nil) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if putPer != 0 {
		t.Errorf("fault-armed Put allocates %v allocs/op, want 0", putPer)
	}
	if getPer != 0 {
		t.Errorf("fault-armed Get allocates %v allocs/op, want 0", getPer)
	}
	if out := c.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// TestShardPutChurnArmedNoAlloc pins the membership-epoch tag on the
// sharded path: once any outage is booked the group stamps every
// message with its endpoints' issue-time incarnations and evaluates the
// stale fence at arrival. An outage on a lane the traffic never touches
// arms all of that without dropping anything — and Put must stay at
// zero allocations per op.
func TestShardPutChurnArmedNoAlloc(t *testing.T) {
	old := sim.ShardWorkers()
	sim.SetShardWorkers(1)
	defer sim.SetShardWorkers(old)
	g := sim.NewShardGroup(1, 3, trace.Default())
	g.SetOutage(2, sim.Time(sim.Second), sim.Time(2*sim.Second))
	net := NewShardNet(g, QDRInfiniBand())
	per := -1.0
	sink := 0
	apply := func() { sink++ }
	g.Lane(0).Go("putter", func(p *sim.Proc) {
		pt := net.Port(0)
		for i := 0; i < 64; i++ {
			pt.Put(p, 1, 8, apply)
		}
		per = testing.AllocsPerRun(200, func() { pt.Put(p, 1, 8, apply) })
	})
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("churn-armed shard Put allocates %v allocs/op, want 0", per)
	}
}

func TestSharedLinkTransferNoAlloc(t *testing.T) {
	e := sim.New(1)
	l := sim.NewSharedLink(e, 1e9)
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			l.Transfer(p, 1000)
		}
		per = testing.AllocsPerRun(200, func() { l.Transfer(p, 1000) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("SharedLink.Transfer allocates %v allocs/op, want 0", per)
	}
	if out := l.PoolStats().Outstanding(); out != 0 {
		t.Errorf("pool leak: %d records outstanding after quiescence", out)
	}
}

// nopAction is a completion callback that does nothing.
type nopAction struct{}

func (nopAction) Run() {}

// TestAllToAllSettleNoAlloc pins a warm all-to-all settle at zero
// allocations: with ~500 flows in flight over 8 NICs, starting one more
// flow re-rates the flows on its three links using only the Net's
// retained slices, member lists and free lists.
func TestAllToAllSettleNoAlloc(t *testing.T) {
	e := sim.New(1)
	n := NewNet(e)
	a := newAllToAll()
	per := -1.0
	e.Go("p", func(p *sim.Proc) {
		// Warm every slice and free list past what the measurement uses,
		// then drain.
		for i := 0; i < 900; i++ {
			a.start(n, i, nopAction{})
		}
		p.Advance(sim.Second)
		for i := 0; i < 500; i++ {
			a.start(n, i, nopAction{})
		}
		i := 500
		per = testing.AllocsPerRun(200, func() {
			a.start(n, i, nopAction{})
			i++
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if per != 0 {
		t.Errorf("all-to-all settle allocates %v allocs/op, want 0", per)
	}
	if n.Active() != 0 {
		t.Errorf("%d flows in flight after quiescence", n.Active())
	}
}
