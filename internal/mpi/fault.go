package mpi

import (
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), the library behaves like an MPI stack with a
// reliable transport — lost rendezvous payloads are retransmitted by the
// sender, lost eager payloads are pulled back by the receiver after an
// ack timeout (the NACK path), and blocking calls that can never
// complete return typed errors instead of hanging. Without a schedule
// every hook collapses to a nil check.

// FaultsOn reports whether a fault schedule is installed on this run.
func (w *World) FaultsOn() bool { return w.inj != nil }

// anyNodeDown reports whether any node hosting a rank is down — the
// condition that turns a barrier timeout into a crash diagnosis.
func (w *World) anyNodeDown() bool {
	for n := 0; n < w.nodes; n++ {
		if w.Cluster.NodeDown(n) {
			return true
		}
	}
	return false
}

// Failed reports whether this rank's own node is crashed under the run's
// fault schedule.
func (c *Comm) Failed() bool {
	return c.w.FaultsOn() && c.w.Cluster.NodeDown(c.Place.Node)
}

// FaultEvent emits one recovery-visibility instant (comm-matrix class
// fault) from this rank toward peer. Free when untraced.
func (c *Comm) FaultEvent(name string, peer int, bytes int64) {
	if !c.w.Eng.Tracing() {
		return
	}
	c.P.TraceInstant(trace.CatComm, name, trace.ClassFault, bytes,
		trace.PackEndpoints(c.Rank, peer, c.Place.Node, c.w.places[peer].Node))
}

// commError builds the typed failure of an exhausted recovery.
func (c *Comm) commError(op string, peer, attempts int, cause error) error {
	return &fault.CommError{Op: op, Src: c.Rank, Dst: peer, Attempts: attempts, Err: cause}
}

// leg describes a cross-node transfer between this rank and peer for
// the retry ladder, stamped with the current membership epoch.
func (c *Comm) leg(op string, peer int, bytes int64, reissue func() *sim.Event) fault.Leg {
	w := c.w
	return fault.Leg{
		Stamp: w.inj.Stamp(c.Rank, peer, c.Place.Node, w.places[peer].Node),
		Op:    op, Bytes: bytes, Edges: w.edges, Reissue: reissue,
	}
}

// SendErr is Send with fault recovery and typed errors.
func (c *Comm) SendErr(dst int, data []byte) error {
	snap := make([]byte, len(data))
	copy(snap, data)
	return c.send(dst, int64(len(snap)), snap)
}

// SendModelErr is SendModel with fault recovery and typed errors.
func (c *Comm) SendModelErr(dst int, bytes int64) error {
	return c.send(dst, bytes, nil)
}

// send fails fast when either end is already down, then posts the
// message and applies the protocol's blocking rule.
// Eager sends complete when the payload leaves the source buffer (loss is
// recovered receiver-side); rendezvous sends block for delivery and
// retransmit on timeout.
func (c *Comm) send(dst int, bytes int64, data []byte) error {
	w := c.w
	if c.Failed() || w.Cluster.NodeDown(w.places[dst].Node) {
		return c.commError("send", dst, 0, fault.ErrNodeDown)
	}
	op, msg := c.post(dst, bytes, data)
	if msg.bytes <= EagerThreshold {
		op.WaitLocal(c.P)
		return nil
	}
	if !w.FaultsOn() || topo.SameNode(c.Place, w.places[dst]) {
		op.WaitRemote(c.P)
		return nil
	}
	return w.inj.Retry(c.P, w.retry, &op.Remote, c.leg("send", dst, msg.bytes, func() *sim.Event {
		return &c.transfer(dst, msg.bytes, msg.arrived.Fire).Remote
	}))
}

// RecvErr is Recv with fault recovery and typed errors: it gives up when
// the sender's node dies or no matching message appears within the retry
// policy's deadline ladder, and pulls lost payloads back from the sender
// after an ack timeout.
func (c *Comm) RecvErr(src int) ([]byte, error) {
	w := c.w
	if !w.FaultsOn() {
		m := c.match(src)
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	stamp := w.inj.Stamp(c.Rank, src, c.Place.Node, w.places[src].Node)
	var m *message
	timeouts, err := w.retry.Await(0, func() bool {
		m = c.matchNow(src)
		return m != nil
	}, func(int) error { return w.inj.Check(stamp) }, func(d sim.Duration) bool {
		if w.rxQ[c.Rank].WaitTimeout(c.P, "mpi-recv", d) {
			return true
		}
		c.FaultEvent("timeout", src, 0)
		return false
	})
	if err != nil {
		return nil, c.commError("recv", src, timeouts, err)
	}
	return c.awaitPayload(m, src)
}

// awaitPayload waits for a matched message's payload. A payload lost to
// injected drops is recovered by pulling it from the sender's buffer —
// the simulation's equivalent of a NACK-triggered retransmission.
func (c *Comm) awaitPayload(m *message, src int) ([]byte, error) {
	w := c.w
	if !w.FaultsOn() || topo.SameNode(c.Place, w.places[src]) {
		m.arrived.Wait(c.P)
		return m.data, nil
	}
	err := w.inj.Retry(c.P, w.retry, m.arrived, c.leg("recv", src, m.bytes, func() *sim.Event {
		c.ep.GetAsync(c.P, w.eps[src], m.bytes, m.arrived.Fire)
		return m.arrived
	}))
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// BarrierErr is Barrier with failure detection: instead of hanging when
// a rank can never arrive, it gives up after the retry policy's deadline
// ladder and returns a typed error (ErrNodeDown when a crash explains
// the stall, ErrTimeout otherwise).
func (c *Comm) BarrierErr() error {
	if c.Failed() {
		return c.commError("barrier", c.Rank, 0, fault.ErrNodeDown)
	}
	return c.await("barrier", c.w.bar.Arrive(c.Rank))
}

// await waits for a barrier or collective release event: a plain wait
// on a fault-free run, the deadline ladder under a fault schedule.
func (c *Comm) await(op string, ev *sim.Event) error {
	w := c.w
	if !w.FaultsOn() {
		ev.Wait(c.P)
		return nil
	}
	attempts, err := w.retry.AwaitEvent(c.P, ev, w.barCost, func(int) error {
		c.FaultEvent("timeout", c.Rank, 0)
		if c.Failed() || w.anyNodeDown() {
			return fault.ErrNodeDown
		}
		return nil
	})
	if err != nil {
		return c.commError(op, c.Rank, attempts, err)
	}
	return nil
}

// AllreduceSumErr is AllreduceSum with failure detection.
func (c *Comm) AllreduceSumErr(v float64) (float64, error) {
	r, err := c.collectiveErr(v, func(vals []any) any {
		s := 0.0
		for _, x := range vals {
			s += x.(float64)
		}
		return s
	})
	if err != nil {
		return 0, err
	}
	return r.(float64), nil
}
