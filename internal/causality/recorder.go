// Package causality is the post-mortem wait-state and critical-path
// analysis engine (the Scalasca-style layer of DESIGN §14). A Recorder
// rides a trace session's event stream — the same stream the digest
// and the metrics manifest consume — and keeps each run's raw material
// separately, so a parallel sweep can record every job into its own
// forked Recorder and join the runs back in job-index order; that is
// what makes the analysis byte-identical at any -parallel or -shards
// worker count. It reconstructs the happens-before graph
// from the completion-edge instants the model layers emit (barrier and
// collective generations, lock handoffs, fabric/ShardNet deliveries,
// fault retries, message matches; see trace.CatEdge). From the graph
// it computes, per run:
//
//   - wait-state classification: every park interval that is a real
//     wait (not modeled work) is classified by its innermost open span
//     and park reason — late-arriver at barriers and collectives, lock
//     contention, PSHM/network communication waits, fault-retry
//     stalls, scheduler idling — with root-cause blame walked back
//     along the graph to the delaying thread;
//   - the critical path of the whole run: a backward walk from the
//     final event that jumps from each waiter to the thread whose
//     arrival released it, partitioning the makespan exactly into
//     compute / PSHM comm / network comm / fault-retry / idle
//     segments, rolled up per thread and per node;
//   - per-phase imbalance: max/avg wait ratios and blame concentration
//     per barrier/collective site.
//
// The package sits on internal/trace alone, so metrics can embed its
// Export in the manifest without an import cycle.
package causality

import "repro/internal/trace"

// Wait classes assigned by the recorder.
const (
	ClassBarrier    = "barrier"
	ClassCollective = "collective"
	ClassLock       = "lock"
	ClassCommSelf   = "comm-self"
	ClassCommPSHM   = "comm-pshm"
	ClassCommLoop   = "comm-loopback"
	ClassCommNet    = "comm-network"
	ClassFaultRetry = "fault-retry"
	ClassCkpt       = "ckpt"
	ClassRejoin     = "rejoin"
	ClassLateSender = "late-sender"
	ClassIdle       = "idle"
	ClassOther      = "other"
)

// genKey identifies one barrier or collective generation within a run.
type genKey struct {
	site string // "barrier" | "coll"
	seq  int64
}

// genInfo is what the generation's release edge recorded: the thread
// whose arrival (or retirement) released every waiter, and when.
type genInfo struct {
	releaser     int // thread id; -1 until the release edge arrives
	releaserNode int
	releaseTime  int64
}

// spanRef is one open span on a proc's stack.
type spanRef struct {
	cat, name string
}

// wait is one completed wait instance: a park interval with a real
// wait reason, classified and (where the graph allows) blamed.
type wait struct {
	begin, end   int64
	reason       string
	class        string
	blamedThread int // thread id of the delaying thread, -1 unknown
	blamedNode   int
	gen          genKey
	hasGen       bool
}

// lastComm is the most recent communication-matrix instant a proc
// emitted, used to classify the event wait that typically follows it.
type lastComm struct {
	name  string // "put" | "get" | "send" | "am" | fault names
	class string // trace.Class*
	pack  int64
	time  int64
	valid bool
}

// procState is the recorder's streaming state for one process.
type procState struct {
	id         int32
	name       string
	thread     int // logical thread id learned from edges, -1 unknown
	node       int // -1 unknown
	spans      []spanRef
	parked     bool
	parkTime   int64
	parkReason string
	lastResume int64
	comm       lastComm
	waits      []wait // completed, ascending by end time
	exited     bool
	exitTime   int64
	pendingGen genKey // armed by the latest bar-arrive edge
	hasPending bool
}

// run accumulates one engine's stream.
type run struct {
	seed       int64
	shard      bool
	maxTime    int64
	procs      map[int32]*procState
	order      []int32 // proc ids in spawn order
	gens       map[genKey]*genInfo
	threadProc map[int]int32 // logical thread id -> proc id
	delivers   int64
	deliverB   int64
	edges      int64
	cpCache    *cpAccum
}

func newRun(seed int64, shard bool) *run {
	return &run{
		seed:       seed,
		shard:      shard,
		procs:      map[int32]*procState{},
		gens:       map[genKey]*genInfo{},
		threadProc: map[int]int32{},
	}
}

func (r *run) proc(id int32) *procState {
	ps := r.procs[id]
	if ps == nil {
		ps = &procState{id: id, thread: -1, node: -1}
		r.procs[id] = ps
		r.order = append(r.order, id)
	}
	return ps
}

// learn records the thread identity an edge proved for a proc.
func (r *run) learn(ps *procState, thread, node int) {
	if ps.id < 0 {
		return // engine-context edges carry no proc identity
	}
	ps.thread, ps.node = thread, node
	r.threadProc[thread] = ps.id
}

// Recorder consumes a trace stream and accumulates the per-run raw
// material the analyses in analyze.go work from. It opts into
// completion-edge events (trace.EdgeObserver), so attaching one to a
// session enables the emitters for every engine built afterwards.
type Recorder struct {
	runs []*run
	cur  *run
	exp  *Export
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Fork returns an empty recorder for a stream that continues this one
// at a run boundary.
func (rec *Recorder) Fork() trace.Tracer { return NewRecorder() }

// Join appends a forked child's runs: this recorder's open run closes
// (the child's stream begins with a KRunBegin), the child's closed runs
// follow it, and the child's open run becomes this recorder's.
func (rec *Recorder) Join(child trace.Tracer) {
	c := child.(*Recorder)
	if len(c.runs) == 0 && c.cur == nil {
		return
	}
	rec.endRun()
	rec.runs = append(rec.runs, c.runs...)
	rec.cur = c.cur
}

// ObserveEdge opts the recorder into completion-edge events.
func (rec *Recorder) ObserveEdge() bool { return true }

// Emit consumes one event.
func (rec *Recorder) Emit(e trace.Event) {
	if e.Kind == trace.KRunBegin {
		rec.endRun()
		rec.cur = newRun(e.Arg, e.Aux == "shard")
		return
	}
	r := rec.cur
	if r == nil {
		// Events before any run boundary (a bare engine without sim.New's
		// KRunBegin) land in an implicit run.
		r = newRun(0, false)
		rec.cur = r
	}
	if e.Time > r.maxTime {
		r.maxTime = e.Time
	}
	switch e.Kind {
	case trace.KProcSpawn:
		ps := r.proc(e.Proc)
		ps.name = e.Name
		ps.lastResume = e.Time
	case trace.KProcPark:
		ps := r.proc(e.Proc)
		ps.parked = true
		ps.parkTime = e.Time
		ps.parkReason = e.Aux
	case trace.KProcUnpark:
		ps := r.proc(e.Proc)
		if ps.parked {
			ps.parked = false
			ps.lastResume = e.Time
			r.closeWait(ps, e.Time)
		}
	case trace.KProcExit:
		ps := r.proc(e.Proc)
		ps.exited = true
		ps.exitTime = e.Time
	case trace.KSpanBegin:
		ps := r.proc(e.Proc)
		ps.spans = append(ps.spans, spanRef{cat: e.Cat, name: e.Name})
	case trace.KSpanEnd:
		ps := r.proc(e.Proc)
		if n := len(ps.spans); n > 0 {
			ps.spans = ps.spans[:n-1]
		}
	case trace.KInstant:
		switch e.Cat {
		case trace.CatEdge:
			r.edge(e)
		case trace.CatComm:
			r.comm(e)
		}
	}
}

// edge consumes one completion-edge instant.
func (r *run) edge(e trace.Event) {
	r.edges++
	switch e.Name {
	case trace.EdgeBarArrive:
		ps := r.proc(e.Proc)
		th, _, node, _ := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, th, node)
		ps.pendingGen = genKey{site: e.Aux, seq: e.Arg}
		ps.hasPending = true
	case trace.EdgeBarRelease:
		ps := r.proc(e.Proc)
		th, _, node, _ := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, th, node)
		r.gens[genKey{site: e.Aux, seq: e.Arg}] = &genInfo{
			releaser: th, releaserNode: node, releaseTime: e.Time,
		}
	case trace.EdgeLockGrant:
		ps := r.proc(e.Proc)
		prev, acq, prevNode, acqNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, acq, acqNode)
		// The grant edge follows the contended wait that just ended on
		// this proc: attach the handoff blame to it.
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = ClassLock
			w.blamedThread, w.blamedNode = prev, prevNode
		}
	case trace.EdgeRetry:
		ps := r.proc(e.Proc)
		self, peer, selfNode, peerNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, self, selfNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = ClassFaultRetry
			w.blamedThread, w.blamedNode = peer, peerNode
		}
	case trace.EdgeMsgMatch:
		ps := r.proc(e.Proc)
		src, dst, srcNode, dstNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, dst, dstNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = ClassLateSender
			w.blamedThread, w.blamedNode = src, srcNode
		}
	case trace.EdgeCkpt:
		// The checkpointing thread just finished shipping its replica to
		// the buddy: the preceding transfer wait is checkpoint overhead,
		// blamed on the buddy holding the replica.
		ps := r.proc(e.Proc)
		owner, buddy, ownerNode, buddyNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, owner, ownerNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = ClassCkpt
			w.blamedThread, w.blamedNode = buddy, buddyNode
		}
	case trace.EdgeRejoin:
		// A reincarnated thread re-entered membership: the restore pull
		// that preceded this edge is recovery time, blamed on the replica
		// holder the state came back from.
		ps := r.proc(e.Proc)
		buddy, rejoiner, buddyNode, rejoinerNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, rejoiner, rejoinerNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = ClassRejoin
			w.blamedThread, w.blamedNode = buddy, buddyNode
		}
	case trace.EdgeDeliver:
		r.delivers++
		r.deliverB += e.Arg
	}
}

// comm consumes one communication-matrix instant.
func (r *run) comm(e trace.Event) {
	if e.Proc < 0 {
		return // engine-context fault visibility, no proc to classify for
	}
	ps := r.proc(e.Proc)
	if e.Aux == trace.ClassFault && e.Name == "timeout" {
		// The timeout instant follows the event-timeout wait that just
		// expired: the wait was a fault-retry stall, blamed on the peer.
		if w := ps.lastWait(); w != nil && w.end <= e.Time && w.reason == "event-timeout" {
			_, peer, _, peerNode := trace.UnpackEndpoints(e.Arg2)
			w.class = ClassFaultRetry
			w.blamedThread, w.blamedNode = peer, peerNode
		}
		return
	}
	ps.comm = lastComm{name: e.Name, class: e.Aux, pack: e.Arg2, time: e.Time, valid: true}
}

// lastWait returns the most recently completed wait, or nil.
func (ps *procState) lastWait() *wait {
	if n := len(ps.waits); n > 0 {
		return &ps.waits[n-1]
	}
	return nil
}

// closeWait completes the park interval that just ended at time end,
// classifying it. Modeled-work parks (Advance, Yield) are not waits.
func (r *run) closeWait(ps *procState, end int64) {
	reason := ps.parkReason
	if reason == "advance" || reason == "yield" {
		return
	}
	w := wait{begin: ps.parkTime, end: end, reason: reason,
		class: ClassOther, blamedThread: -1, blamedNode: -1}
	r.classify(ps, &w)
	ps.waits = append(ps.waits, w)
}

// classify assigns the wait's class — innermost open span first, then
// the park reason, then the communication instant that preceded the
// park — and resolves barrier/collective blame from the generation's
// release edge (already recorded: the release edge is emitted at the
// last arrival, before the waiters fire).
func (r *run) classify(ps *procState, w *wait) {
	if n := len(ps.spans); n > 0 {
		sp := ps.spans[n-1]
		switch sp.cat {
		case "upc":
			switch sp.name {
			case "barrier", "barrier-wait":
				r.classifyGen(ps, w, ClassBarrier)
				return
			case "collective":
				r.classifyGen(ps, w, ClassCollective)
				return
			case "lock":
				w.class = ClassLock // blame attached by the grant edge
				return
			case "ckpt":
				w.class = ClassCkpt // blame attached by the ckpt edge
				return
			}
		case "sim":
			switch sp.name {
			case "mutex", "semaphore":
				w.class = ClassLock
				return
			}
		}
	}
	switch w.reason {
	case "upc-lock", "mutex", "semaphore":
		w.class = ClassLock
		return
	case "barrier", "shard-barrier":
		w.class = ClassBarrier
		return
	case "mpi-recv":
		w.class = ClassLateSender // blame attached by the msg-match edge
		return
	case "uts-idle", "mailbox":
		w.class = ClassIdle
		return
	case "upc-revive", "uts-revive":
		// A dead worker parked for its node's scheduled revival: the whole
		// outage is a fault-category wait, blamed on the rejoin edge when
		// one fires.
		w.class = ClassRejoin
		return
	}
	// Event waits: an "event"/"event-timeout" park issued right after a
	// communication instant is that transfer's completion wait.
	if ps.comm.valid && ps.comm.time >= ps.lastResume && ps.comm.time <= w.begin {
		src, dst, srcNode, dstNode := trace.UnpackEndpoints(ps.comm.pack)
		peer, peerNode := dst, dstNode
		if ps.comm.name == "get" {
			peer, peerNode = src, srcNode
		}
		switch ps.comm.class {
		case trace.ClassSelf:
			w.class = ClassCommSelf
		case trace.ClassPSHM:
			w.class = ClassCommPSHM
		case trace.ClassLoopback:
			w.class = ClassCommLoop
		case trace.ClassNetwork:
			w.class = ClassCommNet
		case trace.ClassFault:
			w.class = ClassFaultRetry
		default:
			w.class = ClassOther
			return
		}
		w.blamedThread, w.blamedNode = peer, peerNode
		return
	}
	w.class = ClassOther
}

// classifyGen classifies a barrier/collective wait and blames the
// generation's releaser (the late arriver) when it is another thread.
func (r *run) classifyGen(ps *procState, w *wait, class string) {
	w.class = class
	if !ps.hasPending {
		return
	}
	w.gen, w.hasGen = ps.pendingGen, true
	ps.hasPending = false
	if g := r.gens[w.gen]; g != nil && g.releaser != ps.thread {
		w.blamedThread, w.blamedNode = g.releaser, g.releaserNode
	}
}

// endRun closes out the current run.
func (rec *Recorder) endRun() {
	if rec.cur != nil {
		rec.runs = append(rec.runs, rec.cur)
		rec.cur = nil
	}
}
