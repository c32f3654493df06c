// Package fabric models the communication and memory hardware of a
// cluster: a fluid-flow network engine (links with capacities; each flow
// advances at the minimum of its own rate cap and its bottleneck link's
// fair share), conduit parameter sets for the paper's interconnects (QDR
// and DDR InfiniBand, Gigabit Ethernet), and a Cluster that wires cores,
// memory controllers, NICs and connection endpoints onto a sim.Engine.
package fabric

import (
	"math"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Link is a bandwidth resource (bytes/second) shared by concurrent flows.
// A flow crossing several links advances at min over its links of
// capacity/activeFlows, additionally clipped by the flow's own cap. This
// is the bottleneck-share approximation of max-min fairness used by fluid
// network simulators; it is conservative (never over-allocates a link).
//
// A link belongs to one Net. Its capacity and up/down state change only
// through Net.SetCapacity and Net.SetDown, which re-settle the flows
// crossing it.
type Link struct {
	Name     string
	capacity float64 // bytes per second; <= 0 means infinitely fast
	// Beta is the congestion coefficient: with n concurrent flows the
	// link's effective capacity is Capacity / (1 + Beta*(n-1)), modeling
	// goodput degradation under heavy multiplexing (QP/DMA thrash on
	// NICs, incast buffering). Zero means ideal sharing. It is fixed at
	// construction: set it before the link carries flows.
	Beta   float64
	active int
	// down marks a flapped link: flows crossing it stall at rate zero
	// until the link comes back (distinct from capacity <= 0, which means
	// infinitely fast).
	down bool

	// members lists the in-flight flows crossing the link, in no
	// particular order; each flow records its slot so removal is a
	// swap-remove.
	members []member
	shr     float64 // share() as of the last settle that found the link dirty
	dirty   bool    // on the owning Net's dirty list
}

// member is one entry of a link's flow list: the flow and the index of
// this link within the flow's link set.
type member struct {
	f *FlowOp
	k int
}

// maxCongestion bounds the congestion divisor: goodput degrades with
// concurrent streams but does not collapse without limit.
const maxCongestion = 2.5

// NewLink returns a link with the given capacity in bytes/second.
func NewLink(name string, capacity float64) *Link {
	return &Link{Name: name, capacity: capacity}
}

// Active reports the number of flows currently crossing the link.
func (l *Link) Active() int { return l.active }

// Capacity reports the link's bandwidth in bytes/second (<= 0 means
// infinitely fast).
func (l *Link) Capacity() float64 { return l.capacity }

// Down reports whether the link is flapped down.
func (l *Link) Down() bool { return l.down }

// share reports the per-flow bandwidth the link currently offers.
func (l *Link) share() float64 {
	if l.down {
		return 0
	}
	if l.capacity <= 0 {
		return math.Inf(1)
	}
	n := l.active
	if n < 1 {
		n = 1
	}
	eff := l.capacity
	if l.Beta > 0 && n > 1 {
		d := 1 + l.Beta*float64(n-1)
		if d > maxCongestion {
			d = maxCongestion
		}
		eff /= d
	}
	return eff / float64(n)
}

// Net is the fluid-flow engine. A flow's rate depends only on the state
// of the links it crosses, so a settle re-rates just the flows on links
// whose state changed since the last one (a start or finish changes the
// active count of the flow's own links; SetCapacity and SetDown change
// one link), reading each such link's share once. Progress accounting
// is a different matter: charging rate*dt to every flow at every settle,
// detecting drained flows and finding the next completion stay full
// passes over dense per-Net slices, because deferring the charge would
// change rounding (a sum of rate*dt terms is not rate times the summed
// dt) and so move virtual time. Completions within one settling pass
// batch together.
type Net struct {
	eng *sim.Engine
	// flows, rem and rate are parallel: flows[i] has rem[i] bytes left
	// and advances at rate[i] bytes/second. A flow knows its index.
	flows []*FlowOp
	rem   []float64
	rate  []float64
	// drained is set when a progress charge takes some flow to within
	// drainEps of empty; only then does a settle scan for finished flows.
	drained bool
	dirty   []*Link // links whose share changed since the last settle
	gen     uint64  // settle generation: a flow is re-rated once per gen
	last    sim.Time
	epoch   uint64
	// util gates link-occupancy trace events (trace.CatLink, one per
	// active-count change). Resolved once at construction from the
	// engine's tracer: only sinks that opt in via trace.UtilObserver pay
	// for the extra events, and the untraced hot path stays a bool check.
	util bool

	pool  sim.FreeList[FlowOp]  // recycled flows (Transfer / StartAction)
	ticks sim.FreeList[netTick] // recycled settling callbacks
	fin   []*FlowOp             // reschedule's completion scratch
}

// drainEps is the residue (bytes) below which a flow counts as drained.
const drainEps = 1e-6

// NewNet creates a flow engine bound to e.
func NewNet(e *sim.Engine) *Net {
	return &Net{eng: e, util: trace.WantsUtil(e.Tracer())}
}

// Engine reports the owning simulation engine.
func (n *Net) Engine() *sim.Engine { return n.eng }

// Active reports the number of in-flight flows.
func (n *Net) Active() int { return len(n.flows) }

// maxFlowLinks bounds the links one flow may cross. The deepest modeled
// path is connection + egress NIC + ingress NIC; the inline array keeps
// a flow's link set out of the allocator.
const maxFlowLinks = 3

// FlowOp is an in-flight transfer. Wait on Done (a sim.Event) or use
// Wait; OnComplete callbacks run in engine context when the flow drains.
//
// Flows created by Start are handles the caller may retain and poll
// after completion. Flows created by StartAction or Transfer are pooled:
// they return to the Net's free list the moment they drain, so no
// reference to them may escape.
type FlowOp struct {
	size     int64
	cap      float64 // per-flow rate cap; <= 0 means uncapped
	linksBuf [maxFlowLinks]*Link
	slots    [maxFlowLinks]int // position in each link's member list
	nlinks   int
	idx      int    // position in the Net's flow slices while in flight
	gen      uint64 // settle generation that last re-rated the flow
	done     sim.Event
	act      sim.Action // pooled completion callback, run before onDone
	onDone   []func()
	pooled   bool
}

// links is the flow's live link set, a view over the inline array.
func (f *FlowOp) links() []*Link { return f.linksBuf[:f.nlinks] }

func (f *FlowOp) setLinks(links []*Link) {
	if len(links) > maxFlowLinks {
		panic("fabric: flow crosses more than maxFlowLinks links")
	}
	f.nlinks = copy(f.linksBuf[:], links)
}

// rateFromShares is the flow's rate given its links' cached shares: the
// minimum of its cap and its bottleneck share.
func (f *FlowOp) rateFromShares() float64 {
	r := math.Inf(1)
	if f.cap > 0 {
		r = f.cap
	}
	for _, l := range f.links() {
		if s := l.shr; s < r {
			r = s
		}
	}
	if math.IsInf(r, 1) {
		// Uncapped flow crossing only infinite links: instantaneous.
		r = math.MaxFloat64
	}
	return r
}

// Done reports whether the transfer has drained.
func (f *FlowOp) Done() bool { return f.done.Fired() }

// Wait suspends p until the flow drains.
func (f *FlowOp) Wait(p *sim.Proc) { f.done.Wait(p) }

// OnComplete registers fn to run in engine context when the flow drains.
// If the flow already drained, fn runs immediately.
func (f *FlowOp) OnComplete(fn func()) {
	if f.done.Fired() {
		fn()
		return
	}
	f.onDone = append(f.onDone, fn)
}

// Size reports the flow's total bytes.
func (f *FlowOp) Size() int64 { return f.size }

// Start launches a transfer of size bytes across the given links, with an
// optional per-flow rate cap (bytes/second; <= 0 for uncapped). A zero or
// negative size completes immediately. The returned handle may be
// retained and polled after completion, so Start flows are not pooled;
// allocation-free paths use StartAction or Transfer.
func (n *Net) Start(size int64, cap float64, links ...*Link) *FlowOp {
	f := &FlowOp{size: size, cap: cap} //upcvet:poolalloc -- caller-retained handle, pollable after completion; left to the GC by the Start contract
	f.setLinks(links)
	if size <= 0 {
		n.finishFlow(f)
		return f
	}
	n.launch(f)
	return f
}

// StartAction launches a pooled transfer whose completion runs act in
// engine context. The flow returns to the free list the moment it
// drains: no handle escapes, and a warm Net starts and completes the
// flow without touching the allocator. A zero or negative size runs act
// immediately.
func (n *Net) StartAction(size int64, cap float64, act sim.Action, links ...*Link) {
	if size <= 0 {
		if act != nil {
			act.Run()
		}
		return
	}
	f := n.pool.Get()
	f.size = size
	f.cap = cap
	f.act = act
	f.pooled = true
	f.setLinks(links)
	n.launch(f)
}

// launch registers a prepared flow and settles rates. size must be
// positive: the flow cannot complete inside launch, only from a later
// settling callback.
func (n *Net) launch(f *FlowOp) {
	n.account()
	for k, l := range f.links() {
		l.active++
		f.slots[k] = len(l.members)
		l.members = append(l.members, member{f, k})
		n.markDirty(l)
		if n.util {
			n.eng.TraceInstant(trace.CatLink, l.Name, "", int64(l.active), l.capacityArg())
		}
	}
	f.idx = len(n.flows)
	n.flows = append(n.flows, f)
	n.rem = append(n.rem, float64(f.size))
	// A flow crossing no link is rated by its cap alone; every other
	// flow is rated by the settle below, through its dirty links.
	n.rate = append(n.rate, f.rateFromShares())
	n.reschedule()
}

// unlink removes a drained flow from its links' member lists and marks
// them dirty.
func (n *Net) unlink(f *FlowOp) {
	for k, l := range f.links() {
		l.active--
		last := len(l.members) - 1
		if s := f.slots[k]; s != last {
			m := l.members[last]
			l.members[s] = m
			m.f.slots[m.k] = s
		}
		l.members[last] = member{}
		l.members = l.members[:last]
		n.markDirty(l)
		if n.util {
			n.eng.TraceInstant(trace.CatLink, l.Name, "", int64(l.active), l.capacityArg())
		}
	}
}

// markDirty queues l for re-rating at the next settle.
func (n *Net) markDirty(l *Link) {
	if !l.dirty {
		l.dirty = true
		n.dirty = append(n.dirty, l)
	}
}

// PoolStats reports the free-list accounting for the net's pooled flows
// and settling callbacks.
func (n *Net) PoolStats() sim.PoolStats {
	return n.pool.Stats().Add(n.ticks.Stats())
}

// capacityArg reports the link capacity rounded to int64 for occupancy
// events (0 for infinitely fast links).
func (l *Link) capacityArg() int64 {
	if l.capacity <= 0 || math.IsInf(l.capacity, 1) {
		return 0
	}
	return int64(l.capacity)
}

// Transfer is the blocking form of Start. The flow record is pooled: the
// completion wake dequeues the waiter before the record is recycled, so
// the caller never observes the reuse.
func (n *Net) Transfer(p *sim.Proc, size int64, cap float64, links ...*Link) {
	if size <= 0 {
		return
	}
	f := n.pool.Get()
	f.size = size
	f.cap = cap
	f.pooled = true
	f.setLinks(links)
	n.launch(f)
	// launch cannot complete a positive-size flow inline, so the wait is
	// always armed before the completion fires.
	f.Wait(p)
}

// SetCapacity changes l's bandwidth (bytes/second; <= 0 means infinitely
// fast). It charges progress at the old rates up to now, then re-rates
// the flows crossing l and rebooks the next completion.
func (n *Net) SetCapacity(l *Link, capacity float64) {
	n.account()
	l.capacity = capacity
	n.markDirty(l)
	n.reschedule()
}

// SetDown flaps l down (flows crossing it stall at rate zero) or brings
// it back up, re-settling like SetCapacity — bringing a link up wakes
// the flows that were stalled on it.
func (n *Net) SetDown(l *Link, down bool) {
	n.account()
	l.down = down
	n.markDirty(l)
	n.reschedule()
}

// finishFlow completes f: fire the event (waking blocked Transfers),
// run the pooled completion action, then any OnComplete closures, and
// recycle pooled records. By the time the record returns to the free
// list every waiter has been dequeued by the Fire, so reuse cannot
// disturb them.
func (n *Net) finishFlow(f *FlowOp) {
	f.done.Fire()
	if a := f.act; a != nil {
		f.act = nil
		a.Run()
	}
	for _, fn := range f.onDone {
		fn()
	}
	f.onDone = nil
	if f.pooled {
		for i := range f.linksBuf {
			f.linksBuf[i] = nil
		}
		f.nlinks = 0
		f.pooled = false
		f.done.Reset()
		n.pool.Put(f)
	}
}

// account charges elapsed progress to all flows at their current rates,
// noting whether any flow drained.
func (n *Net) account() {
	now := n.eng.Now()
	if now > n.last {
		dt := (now - n.last).Seconds()
		rem, rate := n.rem, n.rate[:len(n.rem)]
		for i := range rem {
			rem[i] -= rate[i] * dt
			if rem[i] <= drainEps {
				n.drained = true
			}
		}
	}
	n.last = now
}

// sweep removes drained flows from the in-flight slices, appending them
// to finished in slice order. The compaction is stable and rewrites
// only the slots from the first drained flow onward.
func (n *Net) sweep(finished []*FlowOp) []*FlowOp {
	rem := n.rem
	w := 0
	for w < len(rem) && rem[w] > drainEps {
		w++
	}
	for i := w; i < len(rem); i++ {
		f := n.flows[i]
		if rem[i] <= drainEps {
			n.unlink(f)
			finished = append(finished, f)
			continue
		}
		n.flows[w], rem[w], n.rate[w] = f, rem[i], n.rate[i]
		f.idx = w
		w++
	}
	clear(n.flows[w:])
	n.flows, n.rem, n.rate = n.flows[:w], rem[:w], n.rate[:w]
	return finished
}

// recomputeRates re-rates every flow crossing a dirty link. A flow's
// rate is a function of its cap and its links' shares alone, so flows
// off the dirty links keep rates that are already exact.
func (n *Net) recomputeRates() {
	if len(n.dirty) == 0 {
		return
	}
	n.gen++
	for _, l := range n.dirty {
		l.shr = l.share()
	}
	for _, l := range n.dirty {
		l.dirty = false
		for _, m := range l.members {
			if f := m.f; f.gen != n.gen {
				f.gen = n.gen
				n.rate[f.idx] = f.rateFromShares()
			}
		}
	}
	clear(n.dirty)
	n.dirty = n.dirty[:0]
}

// reschedule completes drained flows, re-rates the flows their
// departure (or any other link change) affected, and books the next
// completion callback. The wake lands a 2^-10 fraction past the
// earliest completion, so near-simultaneous completions settle
// together: this bounds the settles a staggered drain can trigger while
// keeping the timing error to that fraction of each flow's duration.
//
// A completion callback that starts a flow re-enters reschedule; the
// nested settle re-rates every link dirtied so far (the departures'
// links included), and links dirtied after it wait for the next one.
func (n *Net) reschedule() {
	// Detach the completion scratch while it is in use: a completion
	// callback that starts a flow re-enters reschedule, which must not
	// clear or reuse the same backing array. The nested call sees nil;
	// the hot path reuses one buffer.
	finished := n.fin
	n.fin = nil
	for n.drained {
		// A progress charge is the only way to drain a flow, and nested
		// settles charge nothing (the clock has not moved), so this
		// runs once per drain.
		n.drained = false
		finished = n.sweep(finished[:0])
		for _, f := range finished {
			n.finishFlow(f)
		}
	}
	clear(finished)
	n.fin = finished[:0]
	n.recomputeRates()
	n.epoch++
	if len(n.flows) == 0 {
		return
	}
	next := math.Inf(1)
	rate := n.rate[:len(n.rem)]
	for i, r := range n.rem {
		if rate[i] <= 0 {
			continue
		}
		if t := r / rate[i]; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		// No flow can progress. Either every remaining flow crosses a Down
		// link (SetDown restores them) or this is a caller bug that
		// surfaces as deadlock.
		return
	}
	dt := sim.FromSeconds(next)
	// Relative quantization: push the wake slightly past the earliest
	// completion so that near-simultaneous completions batch into one
	// settling pass instead of each paying a full progress pass.
	dt += dt >> 10
	if dt < 1 {
		dt = 1
	}
	t := n.ticks.Get()
	t.n = n
	t.epoch = n.epoch
	n.eng.AfterAction(dt, t)
}

// netTick is the pooled settling callback: one is booked per reschedule,
// and a stale epoch means a fresher one has been booked since.
type netTick struct {
	n     *Net
	epoch uint64
}

func (t *netTick) Run() {
	n, epoch := t.n, t.epoch
	t.n = nil
	n.ticks.Put(t)
	if n.epoch != epoch {
		return
	}
	n.account()
	n.reschedule()
}
