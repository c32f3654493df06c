// Sharded execution: a ShardGroup partitions one simulation into
// per-fabric-node lane engines and advances them concurrently under
// conservative lookahead. The group always creates one lane per node —
// independent of the worker count — so the event order inside each lane,
// every RNG draw, and the merged trace stream are pure functions of the
// model and the seed. The -shards flag (SetShardWorkers) chooses only
// how many OS threads pull lanes off the work list each round; stdout,
// TraceDigest, trace JSON and metrics manifests are byte-identical at
// any worker count by construction.
//
// The synchronization protocol is the barrier-aggregated variant of the
// classic null-message (CMB) scheme: each round the group computes
//
//	LBTS = min over lanes of next-pending-event time + min lookahead
//
// where the lookahead of a lane pair is the declared lower bound on
// cross-lane message latency (wire latency from internal/fabric, never
// below LookaheadFloor). Every lane may safely execute all events
// strictly below LBTS: any message generated during the round carries at
// least the minimum lookahead of delay, so it lands at or beyond the
// window edge and is delivered — sorted by (time, source lane, source
// sequence) — at the next barrier. Lanes share nothing while a round
// runs: cross-lane sends are staged in per-source outboxes and per-lane
// trace buffers are k-way merged by (time, lane) after the barrier.
package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

// LookaheadFloor is the minimum cross-lane lookahead. A zero-latency
// link would make the conservative window empty (LBTS = min clock, no
// event strictly below it), so declared lookaheads clamp here: one
// virtual nanosecond, the resolution of sim.Time.
const LookaheadFloor = 1 * Nanosecond

// LaneStride separates the proc-id ranges of different lanes so ids in
// the merged trace stream are unique and independent of worker count.
const LaneStride = 1 << 16

// maxTime is the open dispatch bound: beyond any event time a model can
// schedule, while far from Time overflow when costs are added to it.
const maxTime = Time(1) << 62

var (
	shardWorkersMu sync.Mutex
	shardWorkers   int
)

// SetShardWorkers sets the process-wide worker-thread count for sharded
// execution, mirroring sweep.SetWorkers. Zero (the default) means the
// cmd binaries run their legacy single-lane experiments; experiment
// code switches to the sharded variants when it is positive. Values are
// clamped below at zero. Like trace.SetDefault it is read when runs are
// built: set it before building simulations, not concurrently.
func SetShardWorkers(n int) {
	if n < 0 {
		n = 0
	}
	shardWorkersMu.Lock()
	shardWorkers = n
	shardWorkersMu.Unlock()
}

// ShardWorkers reports the configured sharded-execution worker count.
func ShardWorkers() int {
	shardWorkersMu.Lock()
	defer shardWorkersMu.Unlock()
	return shardWorkers
}

// MessageVerdict is a fault model's decision about one injected
// message: a fabric.Cluster message or a cross-lane message of the
// sharded engine. internal/fault schedules produce it for both.
type MessageVerdict uint8

const (
	// MsgDeliver passes the message through unharmed.
	MsgDeliver MessageVerdict = iota
	// MsgDrop discards the message in flight. A dropped fabric op's
	// Remote event never fires; callers detect the loss by timeout.
	MsgDrop
	// MsgDuplicate delivers the message twice, so a payload apply runs
	// twice. Copies are idempotent; an apply that is not (an active
	// message's read-modify-write) must guard itself.
	MsgDuplicate
	// MsgDelay adds the returned extra latency before delivery.
	MsgDelay
)

// MessageFilter decides the fate of one unreliable cross-lane message.
// It runs in the sending lane's context at send time and draws any
// randomness from rng — the sending lane's own source — so verdicts
// interleave deterministically with the model's draws on that lane.
// extra is the added latency for MsgDelay verdicts.
type MessageFilter func(src, dst int, at Time, size int64, rng *rand.Rand) (v MessageVerdict, extra Duration)

// shardMsg is one staged cross-lane message. Exactly one of fn and act
// is set; act is the allocation-free flavor used by pooled transports.
// sentAt and reliable feed the membership-epoch fence: an unreliable
// message whose source or destination lane was reincarnated between
// send and arrival is stale and dropped at delivery.
type shardMsg struct {
	at       Time
	sentAt   Time
	src      int
	dst      int
	seq      uint64 // per-source-lane send sequence: the deterministic tie-break
	size     int64
	verdict  MessageVerdict
	extra    Duration // MsgDelay only
	reliable bool
	fn       func()
	act      Action
}

// laneOutage is one scheduled down-window of a lane: down at from,
// reincarnated at until (maxTime = never). Outages are fixed before the
// run, so lane liveness and incarnation numbers are pure functions of
// virtual time — readable from any lane without synchronization.
type laneOutage struct {
	from, until Time
}

// ShardGroup drives a set of lane engines through conservative LBTS
// windows. Build one with NewShardGroup, declare links with
// SetLookahead (or let fabric.NewShardNet do it), register processes on
// the lanes, then call Run.
type ShardGroup struct {
	seed    int64
	lanes   []*Engine
	look    [][]Duration // look[src][dst]; 0 = no link declared
	minLook Duration     // min over declared links; 0 = none declared
	workers int

	sink trace.Tracer    // the merged stream's destination (nil = untraced)
	bufs []*trace.Buffer // per-lane window buffers (nil when sink is nil)

	outbox  [][]shardMsg // staged sends, indexed by source lane
	seqs    []uint64     // per-source-lane send sequence counters
	downAt  []Time       // virtual time each lane crashed, or maxTime
	outages [][]laneOutage
	churn   bool // any outage registered: arrivals pay the epoch fence
	onTrans []func(lane int, down bool)
	filter  MessageFilter

	scratch  []shardMsg // delivery sort scratch
	runnable []*Engine  // per-round lane work list
	streams  [][]trace.Event

	// arrPool[d] recycles the arrival records scheduled on lane d: Get
	// runs in group context at the delivery barrier, Put in lane d's own
	// context when the arrival executes, and the round WaitGroup orders
	// the two — so each pool is only ever touched by one goroutine at a
	// time.
	arrPool []FreeList[arrival]

	rounds int64
	sent   int64
	ran    bool
}

// NewShardGroup returns a group of lanes lane engines, each seeded from
// seed mixed with its lane index, tracing into sink (nil for none). The
// group emits the run's single KRunBegin; lane engines do not.
func NewShardGroup(seed int64, lanes int, sink trace.Tracer) *ShardGroup {
	if lanes <= 0 {
		panic(fmt.Sprintf("sim: NewShardGroup with %d lanes", lanes))
	}
	g := &ShardGroup{
		seed:    seed,
		lanes:   make([]*Engine, lanes),
		look:    make([][]Duration, lanes),
		workers: 1,
		sink:    sink,
		outbox:  make([][]shardMsg, lanes),
		seqs:    make([]uint64, lanes),
		downAt:  make([]Time, lanes),
		outages: make([][]laneOutage, lanes),
		arrPool: make([]FreeList[arrival], lanes),
	}
	if n := ShardWorkers(); n > 1 {
		g.workers = n
	}
	if sink != nil {
		sink.Emit(trace.Event{
			Kind: trace.KRunBegin, Proc: trace.EngineProc,
			Cat: "sim", Name: "run", Aux: "shard",
			Arg: seed, Arg2: int64(lanes),
		})
		g.bufs = make([]*trace.Buffer, lanes)
		g.streams = make([][]trace.Event, lanes)
	}
	for i := range g.lanes {
		g.look[i] = make([]Duration, lanes)
		g.downAt[i] = maxTime
		var tr trace.Tracer
		if sink != nil {
			g.bufs[i] = trace.NewBuffer()
			tr = g.bufs[i]
			// Advertise the sink's opt-in capabilities on the lane buffer so
			// engines and fabrics emit (or skip) clock and link-occupancy
			// events exactly as they would when tracing into sink directly.
			if trace.WantsClock(sink) {
				tr = trace.Clocked(tr)
			}
			if trace.WantsUtil(sink) {
				tr = trace.Utiled(tr)
			}
			if trace.WantsEdge(sink) {
				tr = trace.Edged(tr)
			}
		}
		g.lanes[i] = newLane(g, i, laneSeed(seed, i), tr)
	}
	return g
}

// laneSeed mixes the group seed with the lane index (splitmix64-style
// golden-ratio stride) so lanes draw independent, reproducible streams.
func laneSeed(seed int64, lane int) int64 {
	return seed + int64(lane+1)*-0x61c8864680b583eb // 2^64 / golden ratio
}

// Lanes reports the number of lanes.
func (g *ShardGroup) Lanes() int { return len(g.lanes) }

// Lane returns lane engine i. Register processes on it with Engine.Go
// before calling Run.
func (g *ShardGroup) Lane(i int) *Engine { return g.lanes[i] }

// Rounds reports how many LBTS windows the run executed (for tests and
// diagnostics; it is a deterministic function of the model).
func (g *ShardGroup) Rounds() int64 { return g.rounds }

// Messages reports how many cross-lane messages were staged.
func (g *ShardGroup) Messages() int64 { return g.sent }

// SetWorkers overrides the group's worker-thread count (otherwise taken
// from ShardWorkers at construction). Call before Run.
func (g *ShardGroup) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	g.workers = n
}

// SetMessageFilter installs a fault filter consulted for every
// unreliable cross-lane send. Call before Run.
func (g *ShardGroup) SetMessageFilter(f MessageFilter) { g.filter = f }

// Filtered reports whether a message filter (fault injection) is
// installed. Pooled transports consult it: an unreliable message can be
// duplicated by the filter, so exactly-once recycling assumptions only
// hold when it is absent.
func (g *ShardGroup) Filtered() bool { return g.filter != nil }

// SetLookahead declares a directed cross-lane link with the given
// latency lower bound, clamped to LookaheadFloor. Every Send from src
// to dst must carry at least this much delay; sends over undeclared
// pairs panic. Lookaheads are fixed for the run: declare them before
// Run.
func (g *ShardGroup) SetLookahead(src, dst int, d Duration) {
	if src == dst {
		panic(fmt.Sprintf("sim: SetLookahead(%d, %d): self links are implicit (use After)", src, dst))
	}
	if d < LookaheadFloor {
		d = LookaheadFloor
	}
	g.look[src][dst] = d
	if g.minLook == 0 || d < g.minLook {
		g.minLook = d
	}
}

// Lookahead reports the declared lookahead from src to dst (0 = no
// link).
func (g *ShardGroup) Lookahead(src, dst int) Duration { return g.look[src][dst] }

// CrashLane marks the calling lane down as of its current virtual time:
// messages arriving at or after this instant are dropped (the in-flight
// loss of a node crash). Call from the lane's own simulation context —
// typically a fault-schedule event booked on that lane. The lane engine
// itself keeps dispatching events (timers, trace bookkeeping); silencing
// the model is the caller's job.
func (g *ShardGroup) CrashLane(e *Engine) {
	if e.group != g {
		panic("sim: CrashLane from a foreign engine")
	}
	// Written from lane context, read only at the delivery barrier: the
	// round's WaitGroup orders the write before every read.
	if e.now < g.downAt[e.lane] {
		g.downAt[e.lane] = e.now
	}
}

// LaneDown reports whether lane i is down as of time t: crashed via
// CrashLane, or inside a scheduled outage window. Outages are static, so
// the answer is a pure function of (lane, t) — valid from any context.
func (g *ShardGroup) LaneDown(i int, t Time) bool {
	if t >= g.downAt[i] {
		return true
	}
	for _, o := range g.outages[i] {
		if t >= o.from && t < o.until {
			return true
		}
	}
	return false
}

// SetOutage declares a scheduled down-window of a lane: down at from,
// reincarnated at until (use a crash event plus CrashLane for a node
// that never comes back). Windows of one lane must not overlap. Outages
// are fixed for the run — declare them before Run, in ascending order.
func (g *ShardGroup) SetOutage(lane int, from, until Time) {
	if from >= until {
		panic(fmt.Sprintf("sim: SetOutage(%d, %v, %v): empty window", lane, from, until))
	}
	if n := len(g.outages[lane]); n > 0 && g.outages[lane][n-1].until > from {
		panic(fmt.Sprintf("sim: SetOutage(%d): window at %v overlaps the previous one", lane, from))
	}
	g.outages[lane] = append(g.outages[lane], laneOutage{from, until})
	g.churn = true
}

// IncarnationAt reports lane i's incarnation number as of time t: the
// count of completed outage windows. A message whose endpoint
// incarnations differ between send and arrival crossed a reincarnation
// and is stale. Pure function of the static outage table.
func (g *ShardGroup) IncarnationAt(i int, t Time) int64 {
	var n int64
	for _, o := range g.outages[i] {
		if o.until <= t {
			n++
		}
	}
	return n
}

// staleMsg reports whether m crossed a reincarnation of either endpoint
// between send and its arrival at time now.
func (g *ShardGroup) staleMsg(m *shardMsg, now Time) bool {
	return g.IncarnationAt(m.src, m.sentAt) != g.IncarnationAt(m.src, now) ||
		g.IncarnationAt(m.dst, m.sentAt) != g.IncarnationAt(m.dst, now)
}

// OnLaneTransition registers an observer of scheduled lane outages,
// invoked in the affected lane's own context at the down and up edges
// (via NotifyLaneTransition events booked by the fault installer).
// Register before Run.
func (g *ShardGroup) OnLaneTransition(fn func(lane int, down bool)) {
	g.onTrans = append(g.onTrans, fn)
}

// NotifyLaneTransition runs the registered lane-transition observers.
// Call from the affected lane's own simulation context, at the outage
// edge the observers are being told about.
func (g *ShardGroup) NotifyLaneTransition(lane int, down bool) {
	for _, fn := range g.onTrans {
		fn(lane, down)
	}
}

// Send stages a cross-lane message: fn runs in dst's engine context at
// src.Now()+delay. delay must be at least the declared lookahead of the
// (src, dst) link. Unreliable: the installed MessageFilter (fault
// injection) may drop, duplicate or delay it, and messages to a crashed
// lane are dropped. Size is the modeled payload size, recorded on fault
// trace events.
//
// fn must not park. Delivery order among all messages with equal
// arrival time is deterministic: sorted by source lane, then by send
// order within the source lane.
func (g *ShardGroup) Send(src *Engine, dst int, delay Duration, size int64, fn func()) {
	g.send(src, dst, delay, size, false, fn, nil)
}

// SendReliable is Send exempt from the fault filter (crashed
// destinations still drop). It models control-plane traffic that rides
// the self-healing reliable transport — barrier arrivals, termination
// reports — whose loss the application protocols do not model.
func (g *ShardGroup) SendReliable(src *Engine, dst int, delay Duration, size int64, fn func()) {
	g.send(src, dst, delay, size, true, fn, nil)
}

// SendAction is Send with a pooled Action payload instead of a closure:
// a.Run executes in dst's engine context at delivery time. Combined with
// the pooled arrival records at the delivery barrier, a SendAction moves
// a message across lanes without touching the allocator. Note that fault
// injection may duplicate unreliable messages, in which case a.Run
// executes once per delivery — actions on unreliable sends must tolerate
// re-entry (the pooled transports in internal/fabric use idempotent
// stages or per-delivery continuation records).
func (g *ShardGroup) SendAction(src *Engine, dst int, delay Duration, size int64, a Action) {
	g.send(src, dst, delay, size, false, nil, a)
}

// SendReliableAction is SendAction exempt from the fault filter, like
// SendReliable.
func (g *ShardGroup) SendReliableAction(src *Engine, dst int, delay Duration, size int64, a Action) {
	g.send(src, dst, delay, size, true, nil, a)
}

func (g *ShardGroup) send(src *Engine, dst int, delay Duration, size int64, reliable bool, fn func(), act Action) {
	s := src.lane
	if src.group != g {
		panic("sim: Send from an engine outside this ShardGroup")
	}
	if dst < 0 || dst >= len(g.lanes) {
		panic(fmt.Sprintf("sim: Send to lane %d of %d", dst, len(g.lanes)))
	}
	if dst == s {
		panic(fmt.Sprintf("sim: Send from lane %d to itself (use After)", s))
	}
	la := g.look[s][dst]
	if la == 0 {
		panic(fmt.Sprintf("sim: Send over undeclared link %d -> %d", s, dst))
	}
	if delay < la {
		panic(fmt.Sprintf("sim: Send %d -> %d with delay %v below lookahead %v (conservative window violated)",
			s, dst, delay, la))
	}
	m := shardMsg{at: src.now + delay, sentAt: src.now, src: s, dst: dst,
		size: size, reliable: reliable, fn: fn, act: act}
	if g.filter != nil && !reliable {
		m.verdict, m.extra = g.filter(s, dst, src.now, size, src.rng)
		if m.verdict == MsgDelay {
			m.at += m.extra // still ≥ the window edge: delay only adds
		}
	}
	g.seqs[s]++
	m.seq = g.seqs[s]
	g.outbox[s] = append(g.outbox[s], m)
}

// Run drives the group to completion: deliver staged messages, compute
// LBTS, advance every lane with work through the window on the worker
// pool, merge the lanes' trace buffers, repeat until no events remain
// anywhere. It returns a deadlock error if live processes remain parked
// across all lanes with nothing in flight. A panic inside any lane is
// re-raised with its origin noted.
func (g *ShardGroup) Run() error {
	if g.ran {
		return fmt.Errorf("sim: ShardGroup.Run called twice")
	}
	g.ran = true
	for {
		g.deliver()
		minNext := maxTime
		any := false
		for _, e := range g.lanes {
			if t, ok := e.nextEventAt(); ok {
				any = true
				if t < minNext {
					minNext = t
				}
			}
		}
		if !any {
			break
		}
		lbts := maxTime
		if g.minLook > 0 && minNext < maxTime-g.minLook {
			lbts = minNext + g.minLook
		}
		g.rounds++
		g.round(lbts)
		g.mergeTrace()
		for _, e := range g.lanes {
			e.repanic() // no-op unless the round recorded a panic
		}
	}
	var stuck []string
	for i, e := range g.lanes {
		if e.nLive > e.nDaemon {
			for _, s := range e.stuckProcs() {
				stuck = append(stuck, fmt.Sprintf("lane%d/%s", i, s))
			}
		}
	}
	if len(stuck) > 0 {
		return fmt.Errorf("sim: shard deadlock after %d rounds: %d stuck: %v",
			g.rounds, len(stuck), stuck)
	}
	for _, e := range g.lanes {
		e.reap()
	}
	return nil
}

// deliver moves every staged message into its destination lane's heap,
// in globally sorted (time, source lane, source sequence) order, so
// equal-time deliveries get destination-heap sequence numbers — and
// therefore execution order — independent of worker count. Runs in
// group context between rounds.
func (g *ShardGroup) deliver() {
	all := g.scratch[:0]
	for s := range g.outbox {
		all = append(all, g.outbox[s]...)
		g.outbox[s] = g.outbox[s][:0]
	}
	if len(all) == 0 {
		g.scratch = all
		return
	}
	g.sent += int64(len(all))
	// slices.SortFunc rather than sort.Slice: the generic sort neither
	// boxes the slice nor builds a reflect swapper, keeping the delivery
	// barrier allocation-free. The key (at, src, seq) is a total order —
	// seq is unique per source lane — so the unstable sort is still
	// deterministic.
	slices.SortFunc(all, func(a, b shardMsg) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		if a.src != b.src {
			return a.src - b.src
		}
		if a.seq != b.seq {
			if a.seq < b.seq {
				return -1
			}
			return 1
		}
		return 0
	})
	for i := range all {
		m := all[i]
		// The down-check runs at execution time in the destination lane,
		// not here: a crash event inside the upcoming window may precede
		// the arrival, and downAt[dst] is only written from lane dst's own
		// context, so the read is race-free there. Each scheduled delivery
		// gets its own pooled arrival record (a duplicate gets two), so a
		// record is consumed exactly once and returns to the pool when it
		// runs.
		switch m.verdict {
		case MsgDuplicate:
			g.stageArrival(m, "duplicate")
			g.stageArrival(m, "")
		case MsgDelay:
			g.stageArrival(m, "delay")
		default: // MsgDeliver and MsgDrop
			g.stageArrival(m, "")
		}
	}
	// Clear retained closures before reuse.
	for i := range all {
		all[i] = shardMsg{}
	}
	g.scratch = all[:0]
}

// stageArrival schedules one delivery of m on its destination lane via a
// pooled arrival record. Runs in group context at the delivery barrier.
func (g *ShardGroup) stageArrival(m shardMsg, aux string) {
	a := g.arrPool[m.dst].Get()
	a.g = g
	a.m = m
	a.aux = aux
	g.lanes[m.dst].scheduleAction(m.at, a)
}

// arrival is the pooled execution record for one cross-lane delivery.
// Run executes in the destination lane's context; it releases itself
// back to that lane's pool before invoking the payload so a delivery
// chain reuses a single record.
type arrival struct {
	g   *ShardGroup
	m   shardMsg
	aux string
}

func (a *arrival) Run() {
	g, m, aux := a.g, a.m, a.aux
	dst := g.lanes[m.dst]
	a.g = nil
	a.m = shardMsg{}
	a.aux = ""
	g.arrPool[m.dst].Put(a)
	if m.verdict == MsgDrop {
		dst.traceShardFault("drop", m.src, m.dst, m.size)
		return
	}
	if g.LaneDown(m.dst, dst.now) {
		dst.traceShardFault("down-drop", m.src, m.dst, m.size)
		return
	}
	// Membership-epoch fence: an unreliable message that left before a
	// reincarnation of either endpoint belongs to a previous life and
	// must not touch the new one. Reliable control traffic is exempt —
	// it models the self-healing transport whose retransmissions carry
	// fresh epochs (see fabric.ShardPort's reply cache).
	if g.churn && !m.reliable && g.staleMsg(&m, dst.now) {
		dst.traceShardFault("stale-drop", m.src, m.dst, m.size)
		return
	}
	if aux != "" {
		dst.traceShardFault(aux, m.src, m.dst, m.size)
	}
	if m.act != nil {
		m.act.Run()
		return
	}
	m.fn()
}

// ArrivalPoolStats sums the free-list accounting of every lane's arrival
// pool. At quiescence Outstanding() must be zero: each staged delivery
// consumed exactly one record and returned it.
func (g *ShardGroup) ArrivalPoolStats() PoolStats {
	var s PoolStats
	for i := range g.arrPool {
		s = s.Add(g.arrPool[i].Stats())
	}
	return s
}

// traceShardFault records one fault-injection outcome on a cross-lane
// message, in the destination lane's stream at delivery time.
func (e *Engine) traceShardFault(what string, src, dst int, size int64) {
	if e.tracer == nil {
		return
	}
	e.emit(trace.KInstant, trace.EngineProc, trace.CatComm, what,
		trace.ClassFault, size, trace.PackEndpoints(0, 0, src, dst))
}

// round advances every lane holding an event below limit through the
// window. With one worker the lanes run inline in lane order; otherwise
// workers pull lanes off a shared cursor. Lanes share no state during a
// round, so assignment order cannot affect the simulation; the
// WaitGroup barrier orders every lane's writes before the group reads
// them back.
func (g *ShardGroup) round(limit Time) {
	run := g.runnable[:0]
	for _, e := range g.lanes {
		if t, ok := e.nextEventAt(); ok && t < limit {
			run = append(run, e)
		}
	}
	g.runnable = run[:0] // keep capacity; contents dead after the round
	w := g.workers
	if w > len(run) {
		w = len(run)
	}
	if w <= 1 {
		for _, e := range run {
			e.runWindow(limit)
		}
		return
	}
	g.roundParallel(run, w, limit)
}

// roundParallel is the multi-worker window body, split out of round so
// the worker closures capture this call's parameters instead of round's
// locals — otherwise escape analysis heap-allocates round's work list on
// every call, including single-worker rounds that never spawn a
// goroutine.
func (g *ShardGroup) roundParallel(run []*Engine, w int, limit Time) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(run) {
					return
				}
				run[i].runWindow(limit)
			}
		}()
	}
	wg.Wait()
}

// mergeTrace replays the round's per-lane buffers into the sink,
// k-way merged by (time, lane), then resets them.
func (g *ShardGroup) mergeTrace() {
	if g.sink == nil {
		return
	}
	for i, b := range g.bufs {
		g.streams[i] = b.Events()
	}
	trace.MergeStreams(g.sink, g.streams)
	for _, b := range g.bufs {
		b.Reset()
	}
}
