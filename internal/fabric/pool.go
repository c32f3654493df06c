// Free-list pools for the one-sided hot path. A put, get or intra-node
// copy used to allocate a NetOp handle plus a chain of closures (flow
// completion, latency arrival, receive drain); each is now a pooled
// staged record implementing sim.Action, so a warm cluster issues and
// completes one-sided operations without touching the allocator — with
// fault injection active too: verdicts are fields, a duplicate delivery
// is a second inline leg, and drops simply short-circuit the chain.
//
// Lifecycle: a record carries a reference count of in-flight machinery
// (scheduled actions) plus a caller hold. Machinery legs deref as they
// are consumed; the caller hold is dropped by NetOp.Release (or
// internally by the blocking Put/Get wrappers). The record returns to
// its cluster's free list when both reach zero, which makes release
// always safe: releasing early just defers recycling until the last
// in-flight leg drains. Callers that never Release (handles parked in
// long-lived structures) degrade to garbage collection, exactly the
// pre-pooling behavior.
package fabric

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// releasable is the pool-owner hook behind NetOp.Release.
type releasable interface{ release() }

// Leg stages shared by put and get delivery legs.
const (
	legLat uint8 = iota // latency elapsed: check liveness, enter rx queue
	legRx               // receive processing done: apply and complete
)

// putOp is the pooled record of one PutAsync: flow-completion action,
// per-delivery legs and the caller-visible NetOp in a single object.
type putOp struct {
	c       *Cluster
	ep      *Endpoint // source endpoint
	dst     *Endpoint
	size    int64
	lat     sim.Duration // delivery latency, including any fault delay
	verdict sim.MessageVerdict
	apply   func()
	op      NetOp
	refs    int32 // in-flight machinery: flow completion + delivery legs
	held    bool  // caller hold (dropped by NetOp.Release)
	legs    [2]putLeg
}

// putLeg is one delivery of a put payload: a second leg runs only under
// a duplicate verdict, so chaos schedules stay on the pooled path.
type putLeg struct {
	o     *putOp
	stage uint8
}

// getPutOp acquires a put record with one machinery reference (the
// pending flow completion) and the caller hold.
func (c *Cluster) getPutOp() *putOp {
	o := c.putPool.Get()
	if o.c == nil {
		o.c = c
		o.op.owner = o
		o.legs[0].o = o
		o.legs[1].o = o
	}
	o.refs = 1
	o.held = true
	return o
}

func (o *putOp) deref() {
	o.refs--
	if o.refs == 0 && !o.held {
		o.recycle()
	}
}

func (o *putOp) release() {
	if !o.held {
		return
	}
	o.held = false
	if o.refs == 0 {
		o.recycle()
	}
}

func (o *putOp) recycle() {
	o.ep = nil
	o.dst = nil
	o.apply = nil
	o.op.Local.Reset()
	o.op.Remote.Reset()
	o.c.putPool.Put(o)
}

// Run is the flow-completion action: the payload has drained from the
// source, so the local buffer is reusable; the verdict then decides how
// many delivery legs (0–2) cross the wire.
func (o *putOp) Run() {
	o.op.Local.Fire()
	c := o.c
	deliveries := 1
	switch o.verdict {
	case sim.MsgDrop:
		c.traceFault("drop", o.ep.node, o.dst.node, o.size)
		o.deref()
		return
	case sim.MsgDuplicate:
		deliveries = 2
		c.traceFault("dup", o.ep.node, o.dst.node, o.size)
	case sim.MsgDelay:
		c.traceFault("delay", o.ep.node, o.dst.node, o.size)
	}
	o.refs += int32(deliveries)
	for i := 0; i < deliveries; i++ {
		o.legs[i].stage = legLat
		c.Eng.AfterAction(o.lat, &o.legs[i])
	}
	o.deref() // flow leg consumed
}

func (l *putLeg) Run() {
	o := l.o
	c := o.c
	eng := c.Eng
	switch l.stage {
	case legLat:
		if c.NodeDown(o.dst.node) {
			// Target crashed while the message was in flight.
			c.traceFault("drop", o.ep.node, o.dst.node, o.size)
			o.deref()
			return
		}
		rxDone := o.dst.gapRx.Schedule(eng.Now(), o.dst.rxOccupancy())
		l.stage = legRx
		eng.AfterAction(rxDone-eng.Now(), l)
	case legRx:
		if o.apply != nil {
			o.apply()
		}
		eng.TraceInstant("fabric", "deliver", c.Conduit.Name, o.size, 0)
		if c.edges {
			eng.TraceInstant(trace.CatEdge, trace.EdgeDeliver, c.Conduit.Name,
				o.size, trace.PackEndpoints(0, 0, o.ep.node, o.dst.node))
		}
		o.op.Remote.Fire()
		o.deref()
	}
}

// Get-op stages: the request leg travels to the source, injection waits
// on the source's ports, then the payload flow streams back.
const (
	gReq  uint8 = iota // request latency elapsed at the source side
	gInj               // source injection port free: start the payload flow
	gFlow              // payload drained: schedule delivery legs
)

// getOp is the pooled record of one GetAsync round trip.
type getOp struct {
	c        *Cluster
	ep       *Endpoint // requesting endpoint
	src      *Endpoint
	size     int64
	lat      sim.Duration // payload return latency, including fault delay
	verdict  sim.MessageVerdict
	sameNode bool
	apply    func()
	stage    uint8
	op       NetOp
	refs     int32
	held     bool
	legs     [2]getLeg
}

type getLeg struct {
	o     *getOp
	stage uint8
}

func (c *Cluster) getGetOp() *getOp {
	o := c.getPool.Get()
	if o.c == nil {
		o.c = c
		o.op.owner = o
		o.legs[0].o = o
		o.legs[1].o = o
	}
	o.refs = 1
	o.held = true
	return o
}

func (o *getOp) deref() {
	o.refs--
	if o.refs == 0 && !o.held {
		o.recycle()
	}
}

func (o *getOp) release() {
	if !o.held {
		return
	}
	o.held = false
	if o.refs == 0 {
		o.recycle()
	}
}

func (o *getOp) recycle() {
	o.ep = nil
	o.src = nil
	o.apply = nil
	o.op.Local.Reset()
	o.op.Remote.Reset()
	o.c.getPool.Put(o)
}

func (o *getOp) Run() {
	c := o.c
	eng := c.Eng
	cond := &c.Conduit
	switch o.stage {
	case gReq:
		if o.verdict == sim.MsgDrop || c.NodeDown(o.src.node) {
			// Request lost, or the source crashed before it arrived.
			c.traceFault("drop", o.ep.node, o.src.node, o.size)
			o.deref()
			return
		}
		// Request processed at the source endpoint.
		reqDone := o.src.gapRx.Schedule(eng.Now(), o.src.rxOccupancy())
		injStart := o.src.gapTx.Schedule(reqDone, o.src.txOccupancy(o.size))
		o.stage = gInj
		eng.AfterAction(injStart-eng.Now(), o)
	case gInj:
		o.stage = gFlow
		if o.sameNode {
			c.Net.StartAction(o.size, cond.LoopbackBW, o,
				o.src.conn, c.egress[o.src.node], c.ingress[o.src.node])
		} else {
			c.Net.StartAction(o.size, cond.ConnBW, o,
				o.src.conn, c.egress[o.src.node], c.ingress[o.ep.node])
		}
	case gFlow:
		deliveries := 1
		switch o.verdict {
		case sim.MsgDuplicate:
			deliveries = 2
			c.traceFault("dup", o.src.node, o.ep.node, o.size)
		case sim.MsgDelay:
			c.traceFault("delay", o.src.node, o.ep.node, o.size)
		}
		o.refs += int32(deliveries)
		for i := 0; i < deliveries; i++ {
			o.legs[i].stage = legLat
			eng.AfterAction(o.lat, &o.legs[i])
		}
		o.deref() // flow leg consumed
	}
}

func (l *getLeg) Run() {
	o := l.o
	c := o.c
	eng := c.Eng
	switch l.stage {
	case legLat:
		if c.NodeDown(o.ep.node) {
			// Requester crashed while the payload was in flight.
			c.traceFault("drop", o.src.node, o.ep.node, o.size)
			o.deref()
			return
		}
		rxDone := o.ep.gapRx.Schedule(eng.Now(), o.ep.rxOccupancy())
		l.stage = legRx
		eng.AfterAction(rxDone-eng.Now(), l)
	case legRx:
		if o.apply != nil {
			o.apply()
		}
		eng.TraceInstant("fabric", "deliver", c.Conduit.Name, o.size, 0)
		if c.edges {
			eng.TraceInstant(trace.CatEdge, trace.EdgeDeliver, c.Conduit.Name,
				o.size, trace.PackEndpoints(0, 0, o.src.node, o.ep.node))
		}
		o.op.Local.Fire() // a get has a single completion
		o.op.Remote.Fire()
		o.deref()
	}
}

// memOp is the pooled record of one MemCopyAsync: a single flow with an
// apply-and-complete action.
type memOp struct {
	c     *Cluster
	apply func()
	op    NetOp
	refs  int32
	held  bool
}

func (c *Cluster) getMemOp() *memOp {
	o := c.memPool.Get()
	if o.c == nil {
		o.c = c
		o.op.owner = o
	}
	o.refs = 1
	o.held = true
	return o
}

func (o *memOp) deref() {
	o.refs--
	if o.refs == 0 && !o.held {
		o.recycle()
	}
}

func (o *memOp) release() {
	if !o.held {
		return
	}
	o.held = false
	if o.refs == 0 {
		o.recycle()
	}
}

func (o *memOp) recycle() {
	o.apply = nil
	o.op.Local.Reset()
	o.op.Remote.Reset()
	o.c.memPool.Put(o)
}

func (o *memOp) Run() {
	if o.apply != nil {
		o.apply()
	}
	o.op.Local.Fire()
	o.op.Remote.Fire()
	o.deref()
}

// PoolStats sums the cluster's operation pools and the flow engine's.
// At quiescence with every handle released, Outstanding() is zero.
func (c *Cluster) PoolStats() sim.PoolStats {
	s := c.putPool.Stats().Add(c.getPool.Stats()).Add(c.memPool.Stats())
	return s.Add(c.Net.PoolStats())
}
