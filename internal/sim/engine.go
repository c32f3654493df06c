package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/trace"
)

// Engine is a sequential discrete-event simulator. Create one with New,
// register root processes with Go, then call Run. The engine is not safe
// for concurrent use from outside simulated processes; by construction only
// one simulated process executes at any instant, so model state needs no
// locking.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap
	parked chan struct{} // a proc signals here when it parks or finishes

	procs   []*Proc
	nLive   int
	nDaemon int
	cur     *Proc
	inRun   bool
	nextID  int

	// limit bounds the dispatch loop: events at or beyond it stay on the
	// heap and control returns to the driver. Run uses the open bound
	// maxTime; windowed lane execution under a ShardGroup narrows it to
	// the current LBTS each round.
	limit Time

	// lane and group identify a shard-lane engine (see shard.go); a
	// standalone engine has lane -1 and a nil group.
	lane  int
	group *ShardGroup

	rng    *rand.Rand
	tracer trace.Tracer
	clock  bool // emit KClock advances (tracer opted in via trace.Clocked)

	panicVal   any
	panicProc  string
	panicStack []byte
}

// New returns an engine whose internal randomness (used by model code via
// Rand) is seeded with seed, making whole simulations reproducible.
func New(seed int64) *Engine {
	e := &Engine{
		// Capacity 1 makes every handoff signal non-blocking: the engine
		// and the running proc strictly alternate, so at most one token is
		// ever in flight and a sender never sleeps at the send.
		parked: make(chan struct{}, 1),
		rng:    rand.New(rand.NewSource(seed)),
		tracer: trace.Default(),
		limit:  maxTime,
		lane:   -1,
	}
	e.clock = trace.WantsClock(e.tracer)
	if e.tracer != nil {
		e.emit(trace.KRunBegin, trace.EngineProc, "sim", "run", "", seed, 0)
	}
	return e
}

// newLane returns a lane engine owned by a ShardGroup. It differs from
// New in three ways: the tracer is supplied by the group (a per-lane
// buffer merged at window barriers) instead of trace.Default, no
// KRunBegin is emitted (the group emits a single one for the whole
// sharded run), and proc ids start at lane*LaneStride so ids stay
// unique — and stable across worker counts — in the merged stream.
func newLane(group *ShardGroup, lane int, seed int64, tr trace.Tracer) *Engine {
	e := &Engine{
		parked: make(chan struct{}, 1),
		rng:    rand.New(rand.NewSource(seed)),
		tracer: tr,
		limit:  maxTime,
		lane:   lane,
		group:  group,
		nextID: lane * LaneStride,
	}
	e.clock = trace.WantsClock(e.tracer)
	return e
}

// Lane reports the engine's lane index within its ShardGroup, or -1 for
// a standalone engine.
func (e *Engine) Lane() int { return e.lane }

// Group reports the owning ShardGroup, or nil for a standalone engine.
func (e *Engine) Group() *ShardGroup { return e.group }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source. Only simulated
// processes and event callbacks may use it.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Cur reports the currently executing process, or nil when the engine
// itself (an event callback) is running.
func (e *Engine) Cur() *Proc { return e.cur }

// Go registers a root process that starts at time zero (when called before
// Run) or at the current time (when called from inside a running
// simulation).
func (e *Engine) Go(name string, fn func(*Proc)) *Proc {
	p := &Proc{
		eng:    e,
		id:     e.nextID,
		name:   name,
		resume: make(chan struct{}, 1),
		fn:     fn,
	}
	e.nextID++
	e.procs = append(e.procs, p)
	e.nLive++
	if e.tracer != nil {
		e.emit(trace.KProcSpawn, int32(p.id), "sim", name, "", 0, 0)
	}
	e.schedule(e.now, p, nil)
	return p
}

// After runs fn in engine context after d elapses. fn must not park; it is
// for model-internal bookkeeping such as processor-sharing recomputation.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now+d, nil, fn)
}

// Action is a pre-allocated event callback: hot paths implement Run on a
// pooled operation struct and book it with AfterAction, so completion
// work is scheduled without building a closure per event. Run executes in
// engine context under the same rules as an After callback (must not
// park). An Action may release itself back to its free list inside Run —
// the engine holds no reference after the call.
type Action interface{ Run() }

// AfterAction runs a.Run in engine context after d elapses; the
// allocation-free equivalent of After.
func (e *Engine) AfterAction(d Duration, a Action) {
	if d < 0 {
		d = 0
	}
	e.scheduleAction(e.now+d, a)
}

func (e *Engine) schedule(at Time, p *Proc, fn func()) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, proc: p, fn: fn})
}

func (e *Engine) scheduleAction(at Time, a Action) {
	e.seq++
	e.events.push(event{at: at, seq: e.seq, act: a})
}

// unpark schedules a wake for a parked process at the current time. It is
// exported indirectly through WaitQueue; raw use is reserved for sim's own
// synchronization primitives.
func (e *Engine) unpark(p *Proc) {
	e.schedule(e.now, p, nil)
}

// Run executes the simulation until no events remain. It returns a
// deadlock error if live processes remain parked with an empty event heap;
// daemons still parked when the run ends cleanly are released.
// A panic inside a simulated process is re-raised with its origin noted.
//
// Control transfers directly between simulated processes: the goroutine
// that parks or finishes runs the dispatch loop itself (advancing the
// clock, executing engine callbacks inline, waking the next process), so
// a yield costs one goroutine switch instead of a round trip through an
// engine goroutine. Run's own goroutine only blocks until the heap
// drains or a panic aborts the simulation.
func (e *Engine) Run() error {
	if e.inRun {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	if e.group != nil {
		return fmt.Errorf("sim: Run called on lane %d of a ShardGroup (use ShardGroup.Run)", e.lane)
	}
	e.inRun = true
	defer func() { e.inRun = false }()

	e.limit = maxTime
	e.handoff(nil)
	<-e.parked
	e.repanic()
	if e.nLive > e.nDaemon {
		stuck := e.stuckProcs()
		return fmt.Errorf("sim: deadlock at %v: %d live processes: %v", e.now, e.nLive, stuck)
	}
	e.reap()
	return nil
}

// reap releases the daemons still parked when a run ends cleanly: each
// one's goroutine unwinds and exits instead of blocking on its resume
// channel forever, pinning the engine and everything its closures
// reference. Reaping is invisible to the simulation — no clock move and
// no trace event — and reaped procs are finished, so nothing can wake
// them again. Call only while the engine is quiescent.
func (e *Engine) reap() {
	for _, p := range e.procs {
		if !p.started || p.finished {
			continue
		}
		p.reaped = true
		p.resume <- struct{}{}
		<-e.parked
	}
}

// runWindow advances the lane up to (but not including) limit: it
// dispatches every pending event with time < limit and returns once the
// lane quiesces at the window edge. Remaining events stay on the heap
// for later windows. Panics inside the window are recorded in the
// engine's panic fields for the group driver to re-raise; deadlock
// detection is deferred to the group (a lane with parked processes and
// an empty heap may simply be waiting for a cross-lane message).
func (e *Engine) runWindow(limit Time) {
	e.limit = limit
	e.handoff(nil)
	<-e.parked
}

// repanic re-raises a recorded simulation panic with its origin noted;
// a no-op if the run finished cleanly.
func (e *Engine) repanic() {
	if e.panicVal == nil {
		return
	}
	if e.panicProc == "" {
		// Engine-context panic (an After callback, a clock regression):
		// re-raise the original value, as the old engine loop did.
		panic(e.panicVal)
	}
	panic(fmt.Sprintf("sim: process %q panicked: %v\n%s",
		e.panicProc, e.panicVal, e.panicStack))
}

// stuckProcs lists the non-daemon processes still live, with their park
// reasons, sorted for deterministic error text.
func (e *Engine) stuckProcs() []string {
	var stuck []string
	for _, p := range e.procs {
		if p.daemon {
			continue
		}
		if !p.finished && p.started {
			stuck = append(stuck, fmt.Sprintf("%s (%s)", p.name, p.blocked))
		} else if !p.finished {
			stuck = append(stuck, p.name+" (never ran)")
		}
	}
	sort.Strings(stuck)
	return stuck
}

// nextEventAt reports the time of the earliest pending event, if any.
// Valid only while the lane is quiescent (between windows).
func (e *Engine) nextEventAt() (Time, bool) {
	if e.events.Len() == 0 {
		return 0, false
	}
	return e.events.a[0].at, true
}

// handoff is the dispatch loop, run by whichever goroutine is giving up
// control (a parking or finishing process, or Run itself at startup). It
// pops events — executing callbacks and clock moves inline in engine
// context — until it wakes the next process (ownership passes to that
// goroutine) or the heap drains (ownership returns to Run). A panic in
// engine context is recorded and control is aborted back to Run.
//
// parker is the process whose park invoked the loop (nil from Run and
// from a finishing process). When the next event wakes parker itself —
// a process dispatching its own Advance or Yield — the token is passed
// by setting parker.selfGrant, which park consumes on the same
// goroutine: the common solo-process case costs no channel operation
// and no scheduler round trip at all. Any other process is woken with a
// plain send on its capacity-1 resume channel; the target is either
// already blocked there or still on its way to the receive, and the
// buffer slot absorbs the token either way.
func (e *Engine) handoff(parker *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if e.panicVal == nil {
				e.panicVal = r
				e.panicProc = "" // engine context
				e.panicStack = debug.Stack()
			}
			e.parked <- struct{}{}
		}
	}()
	e.cur = nil
	for e.events.Len() > 0 {
		if e.events.a[0].at >= e.limit {
			break // window edge: leave the event for a later LBTS round
		}
		ev := e.events.pop()
		if ev.at < e.now {
			panic(fmt.Sprintf("sim: time ran backwards: %v -> %v", e.now, ev.at))
		}
		if ev.at != e.now {
			e.now = ev.at
			if e.clock {
				e.emit(trace.KClock, trace.EngineProc, "sim", "clock", "", int64(e.now), 0)
			}
		}
		if ev.fn != nil {
			ev.fn()
			continue
		}
		if ev.act != nil {
			ev.act.Run()
			continue
		}
		p := ev.proc
		if p.finished {
			continue
		}
		e.cur = p
		if !p.started {
			p.started = true
			go p.top()
		} else {
			if e.tracer != nil {
				e.emit(trace.KProcUnpark, int32(p.id), "sim", p.name, p.blocked, 0, 0)
			}
			if p == parker {
				p.selfGrant = true
			} else {
				p.resume <- struct{}{}
			}
		}
		return
	}
	e.parked <- struct{}{}
}

// Proc is a simulated execution context. All methods must be called from
// the process's own goroutine while it is the running process.
type Proc struct {
	eng    *Engine
	id     int
	name   string
	resume chan struct{}
	fn     func(*Proc)

	// selfGrant is the same-goroutine control token: set by handoff when
	// the dispatching process wakes itself, consumed by park without
	// touching resume. Only ever accessed from p's own goroutine.
	selfGrant bool

	started  bool
	finished bool
	daemon   bool
	reaped   bool   // released by Engine.reap after the run ended
	blocked  string // park reason; empty while runnable
}

// ID reports the process's creation index, unique within its engine.
func (p *Proc) ID() int { return p.id }

// SetDaemon marks the process as a daemon: a simulation may finish while
// daemons are still parked (persistent pool workers waiting for tasks),
// and finishing releases them: a daemon never resumes after its run.
// Call it from the process itself or before it first runs.
func (p *Proc) SetDaemon(on bool) {
	if p.daemon == on {
		return
	}
	p.daemon = on
	if on {
		p.eng.nDaemon++
	} else {
		p.eng.nDaemon--
	}
}

// Name reports the label given at creation.
func (p *Proc) Name() string { return p.name }

// Engine reports the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// top is the goroutine body wrapping the user function. When the
// function returns (or panics), the goroutine hands control onward via
// the dispatch loop; on panic control aborts straight back to Run.
func (p *Proc) top() {
	defer func() {
		e := p.eng
		if p.reaped {
			// Released after the run: unwind silently and hand the token
			// back to the reaper.
			p.finished = true
			e.nLive--
			if p.daemon {
				e.nDaemon--
			}
			e.parked <- struct{}{}
			return
		}
		if r := recover(); r != nil && e.panicVal == nil {
			e.panicVal = r
			e.panicProc = p.name
			e.panicStack = debug.Stack()
		}
		p.finished = true
		if e.tracer != nil {
			e.emit(trace.KProcExit, int32(p.id), "sim", p.name, "", 0, 0)
		}
		e.nLive--
		if p.daemon {
			e.nDaemon--
		}
		if e.panicVal != nil {
			e.parked <- struct{}{}
			return
		}
		e.handoff(nil)
	}()
	p.fn(p)
}

// park suspends the process until the engine resumes it. The caller must
// already have arranged a wake (a scheduled event or a WaitQueue entry).
// The parking goroutine itself dispatches the next event before
// blocking, so the switch to the next runnable process is direct.
func (p *Proc) park(reason string) {
	p.blocked = reason
	if e := p.eng; e.tracer != nil {
		e.emit(trace.KProcPark, int32(p.id), "sim", p.name, reason, 0, 0)
	}
	p.eng.handoff(p)
	if p.selfGrant {
		p.selfGrant = false
	} else {
		<-p.resume
		if p.reaped {
			runtime.Goexit()
		}
	}
	p.blocked = ""
}

// Advance charges d of virtual time to the process: it suspends and wakes
// at now+d. Negative durations are treated as zero.
func (p *Proc) Advance(d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.schedule(p.eng.now+d, p, nil)
	p.park("advance")
}

// Yield reschedules the process at the current time, letting any other
// process with a pending event at now run first (FIFO order).
func (p *Proc) Yield() {
	p.eng.schedule(p.eng.now, p, nil)
	p.park("yield")
}

// Go spawns a child process starting at the current virtual time.
func (p *Proc) Go(name string, fn func(*Proc)) *Proc {
	return p.eng.Go(name, fn)
}

// WaitQueue is a FIFO list of parked processes; the building block for
// condition variables, mailboxes and resource queues. It is a ring over a
// power-of-two backing array, so WakeOne dequeues in O(1) instead of
// shifting every remaining waiter, and woken slots are always cleared so
// the array retains no *Proc references.
type WaitQueue struct {
	buf  []*Proc
	head int
	n    int
}

// Len reports how many processes are parked on the queue.
func (q *WaitQueue) Len() int { return q.n }

// Wait parks p on the queue until a WakeOne/WakeAll reaches it.
func (q *WaitQueue) Wait(p *Proc, reason string) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = p
	q.n++
	p.park(reason)
}

// grow doubles the ring (minimum 8 slots), unwrapping the live span to
// the front of the new array.
func (q *WaitQueue) grow() {
	size := 8
	if len(q.buf) > 0 {
		size = 2 * len(q.buf)
	}
	buf := make([]*Proc, size)
	for i := 0; i < q.n; i++ {
		buf[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = buf
	q.head = 0
}

// Remove deletes p from the queue without waking it, reporting whether it
// was present. The remaining waiters keep their FIFO order. It is the
// cancellation half of a timed wait: the canceller removes the process
// and schedules its wake itself.
func (q *WaitQueue) Remove(p *Proc) bool {
	for i := 0; i < q.n; i++ {
		if q.buf[(q.head+i)&(len(q.buf)-1)] != p {
			continue
		}
		for j := i; j < q.n-1; j++ {
			a := (q.head + j) & (len(q.buf) - 1)
			b := (q.head + j + 1) & (len(q.buf) - 1)
			q.buf[a] = q.buf[b]
		}
		q.buf[(q.head+q.n-1)&(len(q.buf)-1)] = nil
		q.n--
		return true
	}
	return false
}

// WaitTimeout parks p on the queue until a wake reaches it or d elapses,
// reporting whether the wake came from the queue (true) or from the
// timer (false). Callers use it under a predicate loop exactly like
// Wait, re-checking their condition either way: a false return only
// means the deadline passed, and in the rare coincidence of a same-tick
// wake and expiry the condition may in fact hold. As with
// Event.WaitTimeout, the timer event stays on the heap until its time
// arrives, so fault-free fast paths should use Wait.
func (q *WaitQueue) WaitTimeout(p *Proc, reason string, d Duration) bool {
	woken := false
	expired := false
	p.eng.After(d, func() {
		if woken || expired {
			return
		}
		expired = true
		if q.Remove(p) {
			p.eng.unpark(p)
		}
	})
	q.Wait(p, reason)
	woken = true
	return !expired
}

// WakeOne unparks the longest-waiting process, reporting whether one
// existed. Must be called from simulation context.
func (q *WaitQueue) WakeOne() bool {
	if q.n == 0 {
		return false
	}
	p := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	p.eng.unpark(p)
	return true
}

// WakeAll unparks every waiter in FIFO order, reporting how many were
// woken.
func (q *WaitQueue) WakeAll() int {
	woken := q.n
	for i := 0; i < woken; i++ {
		at := (q.head + i) & (len(q.buf) - 1)
		p := q.buf[at]
		q.buf[at] = nil
		p.eng.unpark(p)
	}
	q.head = 0
	q.n = 0
	return woken
}
