package upc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Lock is a UPC global lock (upc_lock_t). It has a home thread; acquiring
// it from another node pays a control round trip to the home, contended
// acquisitions queue FIFO at the home, and the grant pays the return
// latency.
type Lock struct {
	rt   *Runtime
	home int
	held bool
	// lastHolder is the thread whose Unlock most recently took effect, or
	// -1 before the first release — the thread a contended acquisition's
	// lock-grant edge blames.
	lastHolder int
	q          sim.WaitQueue
}

// AllocLock collectively creates a lock homed on the given thread
// (upc_all_lock_alloc with explicit affinity).
func AllocLock(t *Thread, home int) *Lock {
	if home < 0 || home >= t.N {
		panic(fmt.Sprintf("upc: AllocLock home %d of %d threads", home, t.N))
	}
	t.Barrier()
	rec := t.rt.allocRecord(t.allocSeq, 1, 1, home+1, func() any {
		return &Lock{rt: t.rt, home: home, lastHolder: -1}
	})
	t.allocSeq++
	l, ok := rec.(*Lock)
	if !ok {
		panic("upc: collective Alloc type mismatch (expected Lock)")
	}
	t.Barrier()
	return l
}

// Home reports the lock's home thread.
func (l *Lock) Home() int { return l.home }

// controlCost charges the one-way control-message cost between t and the
// lock's home.
func (l *Lock) controlCost(t *Thread) {
	homePlace := l.rt.places[l.home]
	cond := &l.rt.Cluster.Conduit
	if t.ID == l.home {
		t.P.Advance(100 * sim.Nanosecond)
	} else if topo.SameNode(t.Place, homePlace) && l.rt.Cfg.sharedMem() {
		t.P.Advance(200 * sim.Nanosecond) // cache-line ping within the node
	} else {
		t.P.Advance(cond.SendOverhead + cond.MsgGap + cond.Latency)
	}
}

// Lock acquires the lock (upc_lock), blocking while it is held. The
// acquisition is traced as an "upc/lock" span from request to grant.
func (l *Lock) Lock(t *Thread) {
	end := t.P.TraceSpanArg("upc", "lock", "", int64(l.home))
	l.controlCost(t) // request travels to the home
	waited := false
	for l.held {
		waited = true
		l.q.Wait(t.P, "upc-lock")
	}
	l.held = true
	if l.rt.edges && waited && l.lastHolder >= 0 {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeLockGrant, "", int64(l.home),
			trace.PackEndpoints(l.lastHolder, t.ID,
				l.rt.places[l.lastHolder].Node, t.Place.Node))
	}
	l.controlCost(t) // grant travels back
	end()
}

// TryLock attempts acquisition without blocking (upc_lock_attempt),
// reporting success. The probe pays the control round trip either way.
// Under fault injection a lock whose home node is down is unacquirable:
// the probe fails immediately (the control message would be dropped).
func (l *Lock) TryLock(t *Thread) bool {
	if t.rt.FaultsOn() && !t.Alive(l.home) {
		t.P.TraceInstant("upc", "trylock", "dead-home", int64(l.home), 0)
		return false
	}
	l.controlCost(t)
	if l.held {
		l.controlCost(t)
		t.P.TraceInstant("upc", "trylock", "busy", int64(l.home), 0)
		return false
	}
	l.held = true
	l.controlCost(t)
	t.P.TraceInstant("upc", "trylock", "ok", int64(l.home), 0)
	return true
}

// Unlock releases the lock (upc_unlock). The release takes effect at the
// home after the one-way control cost; the releaser does not wait for it.
func (l *Lock) Unlock(t *Thread) {
	homePlace := l.rt.places[l.home]
	cond := &l.rt.Cluster.Conduit
	var oneWay sim.Duration
	switch {
	case t.ID == l.home:
		oneWay = 100 * sim.Nanosecond
	case topo.SameNode(t.Place, homePlace) && l.rt.Cfg.sharedMem():
		oneWay = 200 * sim.Nanosecond
	default:
		oneWay = cond.SendOverhead + cond.MsgGap + cond.Latency
	}
	t.P.Advance(cond.SendOverhead / 2) // local injection cost
	t.P.TraceInstant("upc", "unlock", "", int64(l.home), 0)
	tid := t.ID
	l.rt.Eng.After(oneWay, func() {
		l.held = false
		l.lastHolder = tid
		l.q.WakeOne()
	})
}
