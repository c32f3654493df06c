package sim

// Mutex is a virtual-time mutual-exclusion lock with FIFO handoff.
type Mutex struct {
	holder *Proc
	q      WaitQueue
}

// Lock acquires the mutex, suspending p until it is available. A
// contended acquisition is traced as a "sim/mutex" span covering the
// wait.
func (m *Mutex) Lock(p *Proc) {
	if m.holder == nil {
		m.holder = p
		return
	}
	end := p.TraceSpan("sim", "mutex")
	for m.holder != nil {
		m.q.Wait(p, "mutex")
	}
	m.holder = p
	end()
}

// TryLock acquires the mutex if free, reporting success. It never blocks.
func (m *Mutex) TryLock(p *Proc) bool {
	if m.holder != nil {
		return false
	}
	m.holder = p
	return true
}

// Unlock releases the mutex and wakes the longest waiter, if any. It
// panics if p does not hold the lock.
func (m *Mutex) Unlock(p *Proc) {
	if m.holder != p {
		panic("sim: Mutex.Unlock by non-holder " + p.Name())
	}
	m.holder = nil
	m.q.WakeOne()
}

// Holder reports the current owner, or nil.
func (m *Mutex) Holder() *Proc { return m.holder }

// Semaphore is a counting semaphore in virtual time.
type Semaphore struct {
	count int
	q     WaitQueue
}

// NewSemaphore returns a semaphore with an initial count.
func NewSemaphore(count int) *Semaphore { return &Semaphore{count: count} }

// Acquire takes one unit, suspending p until available. A contended
// acquisition is traced as a "sim/semaphore" span covering the wait.
func (s *Semaphore) Acquire(p *Proc) {
	if s.count > 0 {
		s.count--
		return
	}
	end := p.TraceSpan("sim", "semaphore")
	for s.count <= 0 {
		s.q.Wait(p, "semaphore")
	}
	s.count--
	end()
}

// Release returns one unit and wakes a waiter.
func (s *Semaphore) Release() {
	s.count++
	s.q.WakeOne()
}

// Count reports the available units.
func (s *Semaphore) Count() int { return s.count }

// Barrier synchronizes a fixed population of n processes. It is reusable
// across generations.
type Barrier struct {
	n       int
	arrived int
	q       WaitQueue
}

// NewBarrier returns a barrier for n participants.
func NewBarrier(n int) *Barrier { return &Barrier{n: n} }

// Wait blocks p until all n participants have arrived.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.q.WakeAll()
		return
	}
	b.q.Wait(p, "barrier")
}

// N reports the participant count.
func (b *Barrier) N() int { return b.n }

// quorum counts the arrivals of one rendezvous. Without a liveness
// predicate no member can die, and it completes at the n-th arrival (a
// bare counter). With one, it completes once every rank the predicate
// calls live has arrived.
type quorum struct {
	arrived int
	in      []bool // which ranks arrived (liveness-tracked rendezvous only)
}

// arrive registers rank and reports whether the quorum is complete.
func (q *quorum) arrive(rank, n int, live func(rank int) bool) bool {
	q.arrived++
	if live == nil {
		return q.arrived == n
	}
	q.in[rank] = true
	return q.complete(live)
}

// complete reports whether the quorum has arrivals and every live rank
// is among them; always false without a liveness predicate, whose
// quorum completes only at arrival.
func (q *quorum) complete(live func(rank int) bool) bool {
	if q.arrived == 0 || live == nil {
		return false
	}
	for i, in := range q.in {
		if !in && live(i) {
			return false
		}
	}
	return true
}

// Observer sees a rendezvous' arrivals and releases: the arriving rank,
// or the rank whose arrival or retirement completed the rendezvous, and
// the generation or call sequence number.
type Observer func(rank int, seq int64, release bool)

// Rendezvous is a reusable generation barrier over n ranks whose
// release lands a modeled cost after the generation completes: the one
// barrier behind upc_barrier (and its split-phase form), thread-group
// barriers and MPI_Barrier. Each generation is an Event. With a
// liveness predicate, Recheck re-tests completion when a member retires
// or a waiter times out, so a crash does not hang the survivors.
type Rendezvous struct {
	eng     *Engine
	cost    Duration
	n       int
	live    func(rank int) bool
	observe Observer
	q       quorum
	gen     int64
	ev      *Event
}

// NewRendezvous returns a rendezvous for n ranks releasing cost after
// completion. live may be nil (no member can die), and so may observe.
func NewRendezvous(eng *Engine, n int, cost Duration, live func(rank int) bool, observe Observer) *Rendezvous {
	r := &Rendezvous{eng: eng, cost: cost, n: n, live: live, observe: observe, ev: &Event{}}
	if live != nil {
		r.q.in = make([]bool, n)
	}
	return r
}

// Gen reports the number of the current generation.
func (r *Rendezvous) Gen() int64 { return r.gen }

// Arrive registers rank in the current generation and returns the
// generation's release event.
func (r *Rendezvous) Arrive(rank int) *Event {
	ev := r.ev
	if r.observe != nil {
		r.observe(rank, r.gen, false)
	}
	if r.q.arrive(rank, r.n, r.live) {
		r.release(rank)
	}
	return ev
}

// Recheck releases the current generation if it is complete. rank is
// the member whose retirement or timeout prompted the check.
func (r *Rendezvous) Recheck(rank int) {
	if r.q.complete(r.live) {
		r.release(rank)
	}
}

// release books the current generation's event after the cost and
// opens the next generation.
func (r *Rendezvous) release(rank int) {
	ev := r.ev
	r.q.arrived = 0
	clear(r.q.in)
	if r.observe != nil {
		r.observe(rank, r.gen, true)
	}
	r.gen++
	r.ev = &Event{}
	r.eng.After(r.cost, ev.Fire)
}

// Collective is the slot table of a collective rendezvous: the k-th
// call of every rank joins slot k, the completing arrival combines the
// contributions, and the result is released a modeled cost later.
// Liveness works as in Rendezvous; a rank that died before contributing
// leaves a nil entry, which combine functions skip.
type Collective struct {
	eng     *Engine
	n       int
	live    func(rank int) bool
	observe Observer
	next    []int // per-rank sequence number of the next call
	slots   []*Slot
}

// Slot is one collective call's rendezvous.
type Slot struct {
	seq     int
	q       quorum
	vals    []any
	cost    Duration
	combine func(vals []any) any
	fired   bool
	result  any
	ev      Event
}

// NewCollective returns the slot table of an n-rank collective; live
// and observe are as for NewRendezvous.
func NewCollective(eng *Engine, n int, live func(rank int) bool, observe Observer) *Collective {
	return &Collective{eng: eng, n: n, live: live, observe: observe, next: make([]int, n)}
}

// Join enters rank's next collective call with contribution val and
// returns its slot. The first arrival fixes the release cost and the
// combine function, which runs once over the contributions indexed by
// rank.
func (c *Collective) Join(rank int, val any, cost Duration, combine func(vals []any) any) *Slot {
	seq := c.next[rank]
	c.next[rank]++
	for len(c.slots) <= seq {
		c.slots = append(c.slots, nil)
	}
	s := c.slots[seq]
	if s == nil {
		s = &Slot{seq: seq, vals: make([]any, c.n), cost: cost, combine: combine}
		if c.live != nil {
			s.q.in = make([]bool, c.n)
		}
		c.slots[seq] = s
	}
	s.vals[rank] = val
	if c.observe != nil {
		c.observe(rank, int64(seq), false)
	}
	if s.q.arrive(rank, c.n, c.live) && !s.fired {
		c.fire(s, rank)
	}
	return s
}

// Recheck fires s if it is complete; a nil s re-checks every open slot.
// rank is the member whose retirement or timeout prompted the check.
func (c *Collective) Recheck(s *Slot, rank int) {
	if s == nil {
		for _, s := range c.slots {
			if s != nil {
				c.Recheck(s, rank)
			}
		}
		return
	}
	if !s.fired && s.q.complete(c.live) {
		c.fire(s, rank)
	}
}

func (c *Collective) fire(s *Slot, rank int) {
	s.fired = true
	s.result = s.combine(s.vals)
	if c.observe != nil {
		c.observe(rank, int64(s.seq), true)
	}
	c.eng.After(s.cost, s.ev.Fire)
}

// Done reports the slot's release event.
func (s *Slot) Done() *Event { return &s.ev }

// Result reports the combined value; valid once Done has fired.
func (s *Slot) Result() any { return s.result }

// Mailbox is an unbounded FIFO channel between simulated processes.
type Mailbox struct {
	q       []any
	waiters WaitQueue
}

// Send appends v and wakes one waiting receiver. It never blocks.
func (m *Mailbox) Send(v any) {
	m.q = append(m.q, v)
	m.waiters.WakeOne()
}

// Recv removes and returns the oldest message, suspending p while empty.
func (m *Mailbox) Recv(p *Proc) any {
	for len(m.q) == 0 {
		m.waiters.Wait(p, "mailbox")
	}
	v := m.q[0]
	copy(m.q, m.q[1:])
	m.q[len(m.q)-1] = nil
	m.q = m.q[:len(m.q)-1]
	return v
}

// TryRecv removes the oldest message if one exists.
func (m *Mailbox) TryRecv() (any, bool) {
	if len(m.q) == 0 {
		return nil, false
	}
	v := m.q[0]
	copy(m.q, m.q[1:])
	m.q[len(m.q)-1] = nil
	m.q = m.q[:len(m.q)-1]
	return v, true
}

// Len reports the queued message count.
func (m *Mailbox) Len() int { return len(m.q) }

// Event is a one-shot completion flag that any number of processes can
// wait on; the counterpart of a non-blocking operation handle.
type Event struct {
	fired bool
	q     WaitQueue
}

// Fire marks the event complete and wakes all waiters. Firing twice is a
// no-op.
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.q.WakeAll()
}

// Fired reports whether the event has completed.
func (ev *Event) Fired() bool { return ev.fired }

// Reset re-arms a fired event so object pools can recycle the structure
// it is embedded in, keeping the wait-queue ring allocation across
// reuses. The caller must guarantee the previous operation fully
// completed: resetting with processes still parked is a pooling bug and
// panics.
func (ev *Event) Reset() {
	if ev.q.Len() != 0 {
		panic("sim: Event.Reset with parked waiters")
	}
	ev.fired = false
}

// Wait suspends p until the event fires. Returns immediately if already
// fired.
func (ev *Event) Wait(p *Proc) {
	if !ev.fired {
		ev.q.Wait(p, "event")
	}
}

// WaitTimeout suspends p until the event fires or d elapses, reporting
// whether the event fired. On timeout p is removed from the event's wait
// queue, so a later Fire does not produce a stale wake. The timer event
// stays on the heap until its time arrives (where it no-ops if the event
// fired first), which can extend a run's final virtual time; callers on
// fault-free fast paths should use Wait.
//
// The fired and timed-out cases are distinguishable even when they
// coincide: whichever was scheduled first at that instant wins, which is
// deterministic under the engine's FIFO event order.
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if ev.fired {
		return true
	}
	expired := false
	p.eng.After(d, func() {
		if ev.fired || expired {
			return
		}
		expired = true
		if ev.q.Remove(p) {
			p.eng.unpark(p)
		}
	})
	for !ev.fired && !expired {
		ev.q.Wait(p, "event-timeout")
	}
	return ev.fired
}
