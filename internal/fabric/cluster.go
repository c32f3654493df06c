package fabric

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// workScale converts seconds of core work into flow units so that the
// fluid engine's byte-scale epsilon is negligible (1 unit = 1 ns of work).
const workScale = 1e9

// Cluster instantiates a machine model's resources on a simulation engine:
// one core link per physical core (capacity = SMT combined throughput, per
// computation capped at 1.0 so a lone thread runs at full speed), one
// memory-controller link per socket, and per-node NIC egress/ingress
// links.
type Cluster struct {
	Eng     *sim.Engine
	Mach    *topo.Machine
	Net     *Net
	Conduit Conduit

	cores   []*Link // [node*coresPerNode + core]
	mem     []*Link // [node*socketsPerNode + socket]
	egress  []*Link // [node]
	ingress []*Link // [node]

	// faults is the installed fault model (nil when fault injection is
	// off, which keeps the message hooks to a single pointer check).
	faults FaultModel

	// edges is true when the engine's tracer opted into completion-edge
	// instants (trace.EdgeObserver), cached at construction so delivery
	// legs pay a single bool test.
	edges bool

	// Operation free lists (see pool.go).
	putPool sim.FreeList[putOp]
	getPool sim.FreeList[getOp]
	memPool sim.FreeList[memOp]
}

// NewCluster wires machine m onto engine e with the given conduit. It
// panics on an invalid machine (a construction-time programming error).
func NewCluster(e *sim.Engine, m *topo.Machine, cond Conduit) *Cluster {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	c := &Cluster{Eng: e, Mach: m, Net: NewNet(e), Conduit: cond,
		edges: trace.WantsEdge(e.Tracer())}
	nCores := m.TotalCores()
	c.cores = make([]*Link, nCores)
	for i := range c.cores {
		c.cores[i] = NewLink(fmt.Sprintf("core%d", i), m.SMTThroughput*workScale)
	}
	nSock := m.Nodes * m.SocketsPerNode
	c.mem = make([]*Link, nSock)
	for i := range c.mem {
		c.mem[i] = NewLink(fmt.Sprintf("mem%d", i), m.MemBWSocket)
	}
	c.egress = make([]*Link, m.Nodes)
	c.ingress = make([]*Link, m.Nodes)
	for i := 0; i < m.Nodes; i++ {
		c.egress[i] = NewLink(fmt.Sprintf("nic-tx%d", i), cond.NICBW)
		c.egress[i].Beta = cond.NICBeta
		c.ingress[i] = NewLink(fmt.Sprintf("nic-rx%d", i), cond.NICBW)
		c.ingress[i].Beta = cond.NICBeta
	}
	return c
}

// CoreLink reports the core resource for a hardware place.
func (c *Cluster) CoreLink(pl topo.Place) *Link {
	return c.cores[pl.GlobalCore(c.Mach)]
}

// MemLink reports the memory-controller resource of a socket.
func (c *Cluster) MemLink(node, socket int) *Link {
	return c.mem[node*c.Mach.SocketsPerNode+socket]
}

// Compute charges seconds of core work at place pl, contending with any
// other computation on the same core (SMT sharing).
func (c *Cluster) Compute(p *sim.Proc, pl topo.Place, seconds float64) {
	if seconds <= 0 {
		return
	}
	c.Net.Transfer(p, int64(seconds*workScale+0.5), workScale, c.CoreLink(pl))
}

// MemRate reports the effective point-to-point copy *payload* bandwidth
// between two places on the same node, before contention. A copy both
// reads and writes, so the payload rate is half the controller bandwidth,
// NUMA-penalized across sockets.
func (c *Cluster) MemRate(from, to topo.Place) float64 {
	if !topo.SameNode(from, to) {
		return 0
	}
	if from.Socket == to.Socket {
		return c.Mach.MemBWSocket / 2
	}
	return c.Mach.MemBWSocket / c.Mach.NUMAFactor / 2
}

// MemCopy moves size bytes between two places on one node through the
// socket memory controllers, charging the per-operation overhead first.
// Cross-socket copies traverse both controllers and pay the NUMA factor.
// Placements spanning nodes yield a typed error (only the network moves
// data between nodes).
func (c *Cluster) MemCopy(p *sim.Proc, from, to topo.Place, size int64, overhead sim.Duration) error {
	if !topo.SameNode(from, to) {
		return crossNodeErr("memcopy", from, to)
	}
	if overhead > 0 {
		p.Advance(overhead)
	}
	if size <= 0 {
		return nil
	}
	if c.Eng.Tracing() {
		p.TraceInstant("fabric", "memcopy", socketAux(from, to), size, 0)
	}
	if from.Socket == to.Socket {
		// A same-socket copy reads and writes through one controller:
		// 2x the payload crosses the link.
		c.Net.Transfer(p, 2*size, 0, c.MemLink(from.Node, from.Socket))
		return nil
	}
	// Cross-socket: the payload crosses the interconnect once, touching
	// both controllers; the flow cap encodes the 2x read+write traffic and
	// the NUMA penalty.
	cap := c.Mach.MemBWSocket / c.Mach.NUMAFactor / 2
	c.Net.Transfer(p, size, cap,
		c.MemLink(from.Node, from.Socket), c.MemLink(to.Node, to.Socket))
	return nil
}

// crossNodeErr builds the typed error of a copy spanning nodes.
func crossNodeErr(op string, from, to topo.Place) error {
	return &Error{
		Op:     op,
		Detail: fmt.Sprintf("node %d to node %d", from.Node, to.Node),
		Err:    ErrCrossNode,
	}
}

// MemCopyAsync starts an intra-node copy without blocking: the caller is
// charged only the per-operation overhead; the returned handle's events
// fire when the copy drains (apply, which may be nil, runs then).
// Placements spanning nodes yield a typed error and no handle.
func (c *Cluster) MemCopyAsync(p *sim.Proc, from, to topo.Place, size int64, overhead sim.Duration, apply func()) (*NetOp, error) {
	if !topo.SameNode(from, to) {
		return nil, crossNodeErr("memcopy", from, to)
	}
	if overhead > 0 {
		p.Advance(overhead)
	}
	if c.Eng.Tracing() {
		p.TraceInstant("fabric", "memcopy", socketAux(from, to), size, 0)
	}
	o := c.getMemOp()
	o.apply = apply
	if from.Socket == to.Socket {
		// Read + write through one controller: 2x the payload.
		c.Net.StartAction(2*size, 0, o, c.MemLink(from.Node, from.Socket))
	} else {
		cap := c.Mach.MemBWSocket / c.Mach.NUMAFactor / 2
		c.Net.StartAction(size, cap, o,
			c.MemLink(from.Node, from.Socket), c.MemLink(to.Node, to.Socket))
	}
	return &o.op, nil
}

// socketAux labels a copy's socket relation for the trace.
func socketAux(from, to topo.Place) string {
	if from.Socket == to.Socket {
		return "same-socket"
	}
	return "cross-socket"
}

// MemTouch charges streaming access of size bytes at a place whose backing
// memory lives on homeSocket of the same node (e.g. first-touch placement),
// without a distinct destination. Used by bandwidth-bound kernels.
func (c *Cluster) MemTouch(p *sim.Proc, at topo.Place, homeSocket int, size int64) {
	if size <= 0 {
		return
	}
	if at.Socket == homeSocket {
		c.Net.Transfer(p, size, 0, c.MemLink(at.Node, at.Socket))
		return
	}
	cap := c.Mach.MemBWSocket / c.Mach.NUMAFactor
	c.Net.Transfer(p, size, cap, c.MemLink(at.Node, homeSocket))
}

// Endpoint is a network attachment point: one per process in the
// process-based backend, one per node in the pthreads backend (threads
// share the node's single connection, the paper's central contrast).
type Endpoint struct {
	c     *Cluster
	node  int
	gapTx sim.Server // injection-port serialization
	gapRx sim.Server // receive-processing serialization
	conn  *Link      // this connection's bandwidth

	// Shared marks a connection used by multiple execution contexts (the
	// pthreads backend). A shared connection serializes the per-message CPU
	// overheads too — the runtime's network lock is held while a message is
	// processed — whereas per-process connections pay them concurrently.
	Shared bool
}

// MarkShared declares the endpoint a multi-context connection (pthreads
// backend). Concurrent streams on one connection can together exceed the
// single-stream rate — Figure 4.2(b) shows eight pthread link-pairs
// approaching (but not reaching) the NIC limit — so the connection
// aggregate widens to 95% of NIC bandwidth, with each stream still capped
// at ConnBW (NIC congestion and the lock's pin serialization are what
// keep a shared connection below per-process connections in practice).
func (ep *Endpoint) MarkShared() {
	ep.Shared = true
	if agg := 0.95 * ep.c.Conduit.NICBW; agg > ep.conn.capacity {
		ep.c.Net.SetCapacity(ep.conn, agg)
	}
}

// zeroCopyThreshold is the message size above which the runtime switches
// to pinned zero-copy RDMA: the network lock is then held only for setup,
// not for a bounce-buffer copy of the payload.
const zeroCopyThreshold = 64 << 10

// txOccupancy reports the injection-port occupancy of one message of the
// given size. A shared connection additionally holds the network lock for
// the per-message CPU overhead and — below the zero-copy threshold — the
// bounce-buffer copy at PinRate, which serializes concurrent mid-size
// injections (the Figure 4.2a pthread latency effect).
func (ep *Endpoint) txOccupancy(size int64) sim.Duration {
	if ep.Shared {
		locked := size
		if locked > zeroCopyThreshold {
			locked = zeroCopyThreshold
		}
		return ep.c.Conduit.MsgGap + ep.c.Conduit.SendOverhead +
			sim.TransferTime(locked, ep.c.Conduit.PinRate)
	}
	return ep.c.Conduit.MsgGap
}

// rxOccupancy reports the receive-processing occupancy of one message.
func (ep *Endpoint) rxOccupancy() sim.Duration {
	if ep.Shared {
		return ep.c.Conduit.RecvOverhead * 2
	}
	return ep.c.Conduit.RecvOverhead
}

// NewEndpoint creates a network connection on the given node. A node
// outside the machine yields a typed error wrapping ErrBadNode.
func (c *Cluster) NewEndpoint(node int) (*Endpoint, error) {
	if node < 0 || node >= c.Mach.Nodes {
		return nil, &Error{
			Op:     "endpoint",
			Detail: fmt.Sprintf("node %d of %d", node, c.Mach.Nodes),
			Err:    ErrBadNode,
		}
	}
	return &Endpoint{
		c:    c,
		node: node,
		conn: NewLink(fmt.Sprintf("conn-n%d", node), c.Conduit.ConnBW),
	}, nil
}

// MustEndpoint is NewEndpoint for construction-time wiring whose node
// index is known-good by layout arithmetic; it panics on the typed error
// a bad index would return.
func (c *Cluster) MustEndpoint(node int) *Endpoint {
	ep, err := c.NewEndpoint(node)
	if err != nil {
		panic(err)
	}
	return ep
}

// Node reports the endpoint's node.
func (ep *Endpoint) Node() int { return ep.node }

// NetOp is a handle to an in-flight one-sided operation.
type NetOp struct {
	// Local fires when the source buffer is reusable (payload injected).
	Local sim.Event
	// Remote fires when the payload has been applied at the target.
	Remote sim.Event
	// owner is the pooled operation record carrying this handle, nil for
	// standalone handles (MemCopyAsync on an unpooled path, tests).
	owner releasable
}

// WaitLocal suspends p until the source buffer is reusable.
func (op *NetOp) WaitLocal(p *sim.Proc) { op.Local.Wait(p) }

// WaitRemote suspends p until the operation completed at the target.
func (op *NetOp) WaitRemote(p *sim.Proc) { op.Remote.Wait(p) }

// Release returns the operation's pooled record to its free list once
// the caller is done with the handle. After Release the handle must not
// be touched: the record is recycled as soon as any in-flight machinery
// drains, and a later wait or poll would observe an unrelated
// operation. Releasing is optional — an unreleased record is simply
// garbage collected — and idempotent.
func (op *NetOp) Release() {
	if op.owner != nil {
		op.owner.release()
	}
}

// PutAsync injects a one-sided put of size bytes from ep to dst. The
// caller is charged the send overhead and its share of injection
// serialization; the returned handle's Remote event fires when the data is
// applied at the target (apply, which may be nil, runs then, in engine
// context). Same-node endpoints take the conduit's loopback path.
func (ep *Endpoint) PutAsync(p *sim.Proc, dst *Endpoint, size int64, apply func()) *NetOp {
	cond := &ep.c.Conduit
	o := ep.c.getPutOp()
	o.ep, o.dst, o.size, o.apply = ep, dst, size, apply
	if !ep.Shared {
		p.Advance(cond.SendOverhead)
	}
	ep.gapTx.Delay(p, ep.txOccupancy(size))
	if ep.c.Eng.Tracing() {
		p.TraceInstant("fabric", "put", cond.Name, size, int64(ep.conn.Active()))
	}

	// Fault injection decides the message's fate at injection time, in
	// deterministic proc order. The payload still drains from the source
	// either way (the NIC did the work), so Local always fires.
	o.verdict = sim.MsgDeliver
	extra := sim.Duration(0)
	if ep.c.faults != nil {
		o.verdict, extra = ep.c.messageVerdict(ep.node, dst.node, size)
	}

	if dst.node == ep.node {
		o.lat = cond.LoopbackLatency
	} else {
		o.lat = cond.Latency
	}
	if o.verdict == sim.MsgDelay {
		o.lat += extra
	}
	// o is the flow's completion action; it schedules the delivery legs
	// when the payload drains (inline for empty payloads).
	if dst.node == ep.node {
		// Network loopback still runs through the HCA: it consumes the
		// node's NIC resources, which is exactly what PSHM avoids.
		ep.c.Net.StartAction(size, cond.LoopbackBW, o,
			ep.conn, ep.c.egress[ep.node], ep.c.ingress[ep.node])
	} else {
		ep.c.Net.StartAction(size, cond.ConnBW, o,
			ep.conn, ep.c.egress[ep.node], ep.c.ingress[dst.node])
	}
	return &o.op
}

// Put is the blocking form of PutAsync: it returns after remote completion
// has been acknowledged back to the initiator (one extra latency). The
// operation record is released internally, so the blocking path is fully
// pooled.
func (ep *Endpoint) Put(p *sim.Proc, dst *Endpoint, size int64, apply func()) {
	op := ep.PutAsync(p, dst, size, apply)
	op.WaitRemote(p)
	if dst.node != ep.node {
		p.Advance(ep.c.Conduit.Latency) // completion acknowledgement
	}
	op.Release()
}

// GetAsync injects a one-sided get of size bytes from src into ep's node.
// The request travels to src as a small control message; the payload
// streams back on src's connection. apply (may be nil) runs at delivery.
func (ep *Endpoint) GetAsync(p *sim.Proc, src *Endpoint, size int64, apply func()) *NetOp {
	cond := &ep.c.Conduit
	o := ep.c.getGetOp()
	o.ep, o.src, o.size, o.apply = ep, src, size, apply
	if !ep.Shared {
		p.Advance(cond.SendOverhead)
	}
	ep.gapTx.Delay(p, ep.txOccupancy(size))
	if ep.c.Eng.Tracing() {
		p.TraceInstant("fabric", "get", cond.Name, size, int64(src.conn.Active()))
	}

	// One verdict covers the whole round trip: a drop loses the request
	// leg (no payload ever starts), a delay or duplicate applies to the
	// returning payload. Drawn at injection time, in deterministic proc
	// order.
	o.verdict = sim.MsgDeliver
	extra := sim.Duration(0)
	if ep.c.faults != nil {
		o.verdict, extra = ep.c.messageVerdict(ep.node, src.node, size)
	}

	o.sameNode = src.node == ep.node
	reqLat := cond.Latency
	o.lat = cond.Latency
	if o.sameNode {
		reqLat = cond.LoopbackLatency
		o.lat = cond.LoopbackLatency
	}
	if o.verdict == sim.MsgDelay {
		o.lat += extra
	}
	o.stage = gReq
	ep.c.Eng.AfterAction(reqLat, o)
	return &o.op
}

// Get is the blocking form of GetAsync. The operation record is released
// internally, so the blocking path is fully pooled.
func (ep *Endpoint) Get(p *sim.Proc, src *Endpoint, size int64, apply func()) {
	op := ep.GetAsync(p, src, size, apply)
	op.WaitRemote(p)
	op.Release()
}

// RTT performs a control-message round trip from ep to dst (e.g. a lock
// acquire or an AM request/reply), charging overheads and injection gaps on
// both sides, and suspends p for its duration.
func (ep *Endpoint) RTT(p *sim.Proc, dst *Endpoint) {
	ep.Get(p, dst, 8, nil)
}

// BarrierCost estimates the network portion of a dissemination barrier
// across the given number of nodes: ceil(log2(nodes)) rounds of small
// messages, plus one intra-node combine.
func (c *Cluster) BarrierCost(nodes int) sim.Duration {
	cond := &c.Conduit
	intra := 2 * cond.LoopbackLatency
	if nodes <= 1 {
		return intra
	}
	rounds := sim.Duration(math.Ceil(math.Log2(float64(nodes))))
	perRound := cond.Latency + cond.SendOverhead + cond.RecvOverhead + cond.MsgGap
	return intra + rounds*perRound
}
