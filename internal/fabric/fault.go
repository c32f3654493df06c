package fabric

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// FaultModel is the cluster's view of an installed fault injector (see
// internal/fault for the scheduling side). Implementations must draw any
// randomness from the owning engine's seeded source so that decisions
// are a pure function of (seed, schedule, virtual time).
type FaultModel interface {
	// NodeDown reports whether the node is crashed at the current virtual
	// time. Messages to or from a down node are dropped.
	NodeDown(node int) bool
	// MessageVerdict decides the fate of one message from srcNode to
	// dstNode. The returned duration is the extra latency of a
	// sim.MsgDelay and ignored otherwise.
	MessageVerdict(srcNode, dstNode int, size int64) (sim.MessageVerdict, sim.Duration)
}

// SetFaultModel installs a fault model on the cluster. A nil model (the
// default) keeps every fault hook on its zero-cost path: one pointer
// check per message, no draws, no extra events.
func (c *Cluster) SetFaultModel(fm FaultModel) { c.faults = fm }

// FaultModel reports the installed fault model, or nil.
func (c *Cluster) FaultModel() FaultModel { return c.faults }

// NodeDown reports whether the node is crashed under the installed fault
// model; always false without one.
func (c *Cluster) NodeDown(node int) bool {
	return c.faults != nil && c.faults.NodeDown(node)
}

// EgressLink reports the node's NIC transmit link ("nic-tx<node>").
func (c *Cluster) EgressLink(node int) *Link { return c.egress[node] }

// IngressLink reports the node's NIC receive link ("nic-rx<node>").
func (c *Cluster) IngressLink(node int) *Link { return c.ingress[node] }

// LinkByName resolves a cluster-owned link (core/mem/NIC) by its name,
// or nil. Per-endpoint connection links are owned by their endpoints and
// not resolvable here.
func (c *Cluster) LinkByName(name string) *Link {
	for _, set := range [][]*Link{c.cores, c.mem, c.egress, c.ingress} {
		for _, l := range set {
			if l.Name == name {
				return l
			}
		}
	}
	return nil
}

// traceFault emits one recovery-visibility instant (class fault) for an
// injected message fault. Fabric knows nodes, not threads, so the packed
// endpoints carry node coordinates only.
func (c *Cluster) traceFault(name string, srcNode, dstNode int, size int64) {
	if !c.Eng.Tracing() {
		return
	}
	c.Eng.TraceInstant(trace.CatComm, name, trace.ClassFault, size,
		trace.PackEndpoints(0, 0, srcNode, dstNode))
}

// messageVerdict centralizes the per-message injection decision: down
// nodes drop without consuming a random draw, everything else asks the
// model. Call only with a non-nil fault model.
func (c *Cluster) messageVerdict(srcNode, dstNode int, size int64) (sim.MessageVerdict, sim.Duration) {
	if c.faults.NodeDown(srcNode) || c.faults.NodeDown(dstNode) {
		return sim.MsgDrop, 0
	}
	return c.faults.MessageVerdict(srcNode, dstNode, size)
}
