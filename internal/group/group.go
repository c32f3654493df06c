// Package group implements the cooperative thread-group extension of
// Chapter 3: UPC threads grouped by hardware locality (or any
// application-chosen membership), with group-scoped barriers, collectives,
// and the privatized pointer tables (Figure 3.1) that let group members
// access each other's shared partitions at plain memory speed. Groups may
// overlap, matching the thesis's requirement that multiple hardware
// hierarchies be exploitable concurrently.
package group

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/upc"
)

// Group is one thread's view of a thread group.
type Group struct {
	T       *upc.Thread
	Members []int // UPC thread ids, ascending
	Rank    int   // this thread's index within Members

	st *state
}

// state is the group-shared synchronization record, interned on the
// runtime so that every member resolves to the same object. Both
// rendezvous are indexed by member rank.
type state struct {
	cost  sim.Duration
	bar   *sim.Rendezvous
	colls *sim.Collective
}

// New builds the group containing exactly the given UPC threads; members
// must include the calling thread. Every member must call New with the
// same membership. Creation is purely local (the memory maps were
// established by the runtime at startup), mirroring the paper's
// observation that the overhead of obtaining neighborhood information and
// pointer casting is negligible.
func New(t *upc.Thread, members []int) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("group: empty membership")
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	rank := -1
	for i, m := range ms {
		if i > 0 && ms[i-1] == m {
			return nil, fmt.Errorf("group: duplicate member %d", m)
		}
		if m < 0 || m >= t.N {
			return nil, fmt.Errorf("group: member %d outside [0,%d)", m, t.N)
		}
		if m == t.ID {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("group: thread %d not in its own group %v", t.ID, ms)
	}
	rt := t.Runtime()
	key := "group:" + memberKey(ms)
	st := rt.Intern(key, func() any {
		nodes := map[int]bool{}
		for _, m := range ms {
			nodes[rt.PlaceOf(m).Node] = true
		}
		// Under a fault schedule a rendezvous releases over the members
		// that have not retired and whose node is up.
		var live func(rank int) bool
		if rt.FaultsOn() {
			live = func(rank int) bool { return t.Alive(ms[rank]) }
		}
		cost := rt.Cluster.BarrierCost(len(nodes))
		return &state{
			cost:  cost,
			bar:   sim.NewRendezvous(rt.Eng, len(ms), cost, live, nil),
			colls: sim.NewCollective(rt.Eng, len(ms), live, nil),
		}
	}).(*state)
	return &Group{T: t, Members: ms, Rank: rank, st: st}, nil
}

func memberKey(ms []int) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprint(m)
	}
	return strings.Join(parts, ",")
}

// NodeGroup builds the group of all UPC threads sharing this thread's
// node — the shared-memory thread group used throughout Chapter 3.
func NodeGroup(t *upc.Thread) *Group {
	g, err := New(t, t.SameNodeThreads())
	if err != nil {
		panic("group: NodeGroup: " + err.Error()) // layout guarantees validity
	}
	return g
}

// Size reports the member count.
func (g *Group) Size() int { return len(g.Members) }

// Leader reports the lowest-numbered member.
func (g *Group) Leader() int { return g.Members[0] }

// IsLeader reports whether the calling thread is the group leader.
func (g *Group) IsLeader() bool { return g.Rank == 0 }

// OnOneNode reports whether every member shares the caller's node (and so
// pointer tables will be fully populated under PSHM/pthreads).
func (g *Group) OnOneNode() bool {
	for _, m := range g.Members {
		if g.T.Distance(m) == topo.LevelRemote {
			return false
		}
	}
	return true
}

// Barrier synchronizes the group's members only, at the dissemination cost
// of the nodes the group spans (cheap for an intra-node group). Under an
// installed fault schedule it panics with the typed error BarrierErr would
// return instead of hanging on a crashed member.
func (g *Group) Barrier() {
	if err := g.BarrierErr(); err != nil {
		panic(err)
	}
}

// BarrierErr is Barrier with failure detection: the generation releases
// once every *live* member has arrived (dead members are skipped), and a
// barrier that can never release returns a typed error after the retry
// policy's deadline ladder instead of hanging.
func (g *Group) BarrierErr() error {
	t := g.T
	if t.Failed() {
		return &fault.CommError{Op: "group-barrier", Src: t.ID, Dst: t.ID, Err: fault.ErrNodeDown}
	}
	end := t.P.TraceSpanArg("group", "barrier", "", int64(len(g.Members)))
	defer end()
	return g.await("group-barrier", g.st.bar.Arrive(g.Rank), g.st.bar.Recheck)
}

// await waits for a group rendezvous' release event: a plain wait on a
// fault-free run, the deadline ladder under a fault schedule. recheck
// runs after each expired rung, because a member may have died since
// the last check, which is exactly what completes the rendezvous on
// the survivors.
func (g *Group) await(op string, ev *sim.Event, recheck func(rank int)) error {
	t := g.T
	rt := t.Runtime()
	if !rt.FaultsOn() {
		ev.Wait(t.P)
		return nil
	}
	attempts, err := rt.RetryPolicy().AwaitEvent(t.P, ev, g.st.cost, func(int) error {
		t.FaultEvent("timeout", t.ID, 0)
		if t.Failed() {
			return fault.ErrNodeDown
		}
		recheck(g.Rank)
		return nil
	})
	if err != nil {
		return &fault.CommError{Op: op, Src: t.ID, Dst: t.ID, Attempts: attempts, Err: err}
	}
	return nil
}

// collective runs one group-scoped rendezvous (same machinery as the
// global collectives, keyed per group). Under an installed fault schedule
// it panics with the typed error collectiveErr would return.
func (g *Group) collective(val any, combine func([]any) any) any {
	r, err := g.collectiveErr(val, combine)
	if err != nil {
		panic(err)
	}
	return r
}

// collectiveErr joins the member's next collective slot. With faults
// installed the slot fires once every live member has contributed — dead
// members' slots stay nil and combine closures skip them — and a
// rendezvous that can never complete returns a typed error.
func (g *Group) collectiveErr(val any, combine func([]any) any) (any, error) {
	t := g.T
	end := t.P.TraceSpanArg("group", "collective", "", int64(len(g.Members)))
	defer end()
	colls := g.st.colls
	slot := colls.Join(g.Rank, val, g.st.cost, combine)
	if t.Failed() {
		return nil, &fault.CommError{Op: "group-collective", Src: t.ID, Dst: t.ID, Err: fault.ErrNodeDown}
	}
	if err := g.await("group-collective", slot.Done(), func(rank int) { colls.Recheck(slot, rank) }); err != nil {
		return nil, err
	}
	return slot.Result(), nil
}

// ReduceSum sums one float64 contribution per member and returns the total
// on every member. Dead members contribute zero.
func (g *Group) ReduceSum(v float64) float64 {
	r, err := g.ReduceSumErr(v)
	if err != nil {
		panic(err)
	}
	return r
}

// ReduceSumErr is ReduceSum with failure detection: it completes over the
// live members and returns a typed error when the rendezvous cannot.
func (g *Group) ReduceSumErr(v float64) (float64, error) {
	r, err := g.collectiveErr(v, sum[float64])
	if err != nil {
		return 0, err
	}
	return r.(float64), nil
}

// ReduceSumInt sums one int64 contribution per member. Dead members
// contribute zero.
func (g *Group) ReduceSumInt(v int64) int64 {
	return g.collective(v, sum[int64]).(int64)
}

// sum adds the members' contributions, skipping the nil entries of
// members that died before contributing.
func sum[T int64 | float64](vals []any) any {
	var s T
	for _, x := range vals {
		if x != nil {
			s += x.(T)
		}
	}
	return s
}

// Broadcast distributes the leader's value to every member.
func (g *Group) Broadcast(v any) any {
	return g.collective(v, func(vals []any) any { return vals[0] })
}

// Table is a privatized pointer table (Figure 3.1): per group member, the
// direct slice onto that member's partition of a shared array, or nil when
// the segment is not castable from this thread (off-node, or no shared
// memory support). It is built once at startup and indexed by group rank.
type Table[T any] struct {
	segs [][]T
}

// CastTable privatizes pointers to every group member's partition of s.
func CastTable[T any](g *Group, s *upc.Shared[T]) *Table[T] {
	tb := &Table[T]{segs: make([][]T, len(g.Members))}
	for i, m := range g.Members {
		tb.segs[i] = s.Cast(g.T, m)
	}
	return tb
}

// Seg reports member rank's privatized partition, or nil if uncastable.
func (tb *Table[T]) Seg(rank int) []T { return tb.segs[rank] }

// Complete reports whether every member's segment was castable.
func (tb *Table[T]) Complete() bool {
	for _, s := range tb.segs {
		if s == nil {
			return false
		}
	}
	return true
}
