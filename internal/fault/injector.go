package fault

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Injector realizes a schedule against one cluster. It implements
// fabric.FaultModel: the fabric consults it on every message, and timed
// actions (crashes, degradations, flaps) fire as engine events. All
// probability draws come from the engine's seeded PRNG and all times from
// the virtual clock, so a (seed, schedule) pair fully determines every
// injected fault.
type Injector struct {
	eng   *sim.Engine
	cl    *fabric.Cluster
	sched *Schedule
	down  []bool // per node
	rules []rule // message-level rules, in schedule order

	// Membership-epoch state (see DESIGN §15): epoch is the cluster-wide
	// view number, bumped on every crash AND every revival; inc counts
	// each node's completed reincarnations (bumped on revival only).
	// Runtimes stamp one-sided operations with the incarnations of both
	// endpoints at issue time and drop the payload at delivery when
	// either changed, so a node's previous life cannot corrupt its next.
	epoch   int64
	inc     []int64
	onTrans []func(node int, down bool)
}

// rule is one message-level action plus its activation state, toggled by
// the timed events Install books for at_s/until_s.
type rule struct {
	act    *Action
	active bool
}

// Install validates the schedule against the cluster's machine, books
// every timed action on the engine, and registers the injector as the
// cluster's fault model. Call before the engine runs. A nil or empty
// schedule installs nothing and returns a nil injector.
func Install(cl *fabric.Cluster, sched *Schedule) (*Injector, error) {
	if sched == nil || len(sched.Actions) == 0 {
		return nil, nil
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	eng := cl.Eng
	inj := &Injector{eng: eng, cl: cl, sched: sched,
		down: make([]bool, cl.Mach.Nodes), inc: make([]int64, cl.Mach.Nodes)}
	for i := range sched.Actions {
		a := &sched.Actions[i]
		switch a.Op {
		case OpCrash:
			if a.Node >= cl.Mach.Nodes {
				return nil, fmt.Errorf("fault: action %d: crash node %d of %d",
					i, a.Node, cl.Mach.Nodes)
			}
			inj.at(a.At, func() { inj.setDown(a.Node, true) })
			if a.Until > 0 {
				inj.at(a.Until, func() { inj.setDown(a.Node, false) })
			}
		case OpDegrade:
			l := cl.LinkByName(a.Link)
			if l == nil {
				return nil, fmt.Errorf("fault: action %d: unknown link %q", i, a.Link)
			}
			inj.at(a.At, func() {
				base := l.Capacity()
				inj.event("degrade")
				cl.Net.SetCapacity(l, base*a.Factor)
				if a.Until > 0 {
					inj.at(a.Until, func() {
						inj.event("restore")
						cl.Net.SetCapacity(l, base)
					})
				}
			})
		case OpFlap:
			l := cl.LinkByName(a.Link)
			if l == nil {
				return nil, fmt.Errorf("fault: action %d: unknown link %q", i, a.Link)
			}
			until := sim.Time(sim.FromSeconds(a.Until))
			period := sim.FromSeconds(a.Period)
			var tick func()
			tick = func() {
				if inj.eng.Now() >= until {
					if l.Down() {
						inj.event("restore")
						cl.Net.SetDown(l, false)
					}
					return
				}
				down := !l.Down()
				if down {
					inj.event("flap-down")
				} else {
					inj.event("flap-up")
				}
				cl.Net.SetDown(l, down)
				eng.After(period, tick)
			}
			inj.at(a.At, tick)
		case OpDrop, OpDelay, OpDuplicate:
			idx := len(inj.rules)
			inj.rules = append(inj.rules, rule{act: a})
			inj.at(a.At, func() { inj.rules[idx].active = true })
			if a.Until > 0 {
				inj.at(a.Until, func() { inj.rules[idx].active = false })
			}
		}
	}
	cl.SetFaultModel(inj)
	return inj, nil
}

// at books fn at absolute virtual second s (relative to the current
// clock, which is 0 when Install runs before the engine).
func (inj *Injector) at(s float64, fn func()) {
	inj.eng.After(sim.FromSeconds(s)-sim.Duration(inj.eng.Now()), fn)
}

// setDown records a crash or revival, advances the membership epoch,
// emits the visibility event, and notifies transition observers. Runs in
// engine context at the scheduled virtual time, so every observer sees a
// consistent (down, epoch, incarnation) triple.
func (inj *Injector) setDown(node int, down bool) {
	inj.down[node] = down
	inj.epoch++
	name := "revive"
	if down {
		name = "crash"
	} else {
		inj.inc[node]++
	}
	if inj.eng.Tracing() {
		inj.eng.TraceInstant(trace.CatComm, name, trace.ClassFault, inj.epoch,
			trace.PackEndpoints(0, 0, node, node))
	}
	for _, fn := range inj.onTrans {
		fn(node, down)
	}
}

// Epoch reports the current membership view number: the count of
// crash/revive transitions so far. Stamp it on control traffic that must
// be fenced against reincarnation.
func (inj *Injector) Epoch() int64 { return inj.epoch }

// Incarnation reports how many completed reincarnations node has had: 0
// for its original life, bumped at each revival. An operation whose
// endpoint incarnations at delivery differ from those at issue is stale.
func (inj *Injector) Incarnation(node int) int64 {
	if node < 0 || node >= len(inj.inc) {
		return 0
	}
	return inj.inc[node]
}

// Stamp is the membership epoch of one point-to-point operation: its
// endpoint ids (thread or rank), their nodes, and the incarnations of
// those nodes at issue. The issuer is always Src, whichever way the
// payload flows.
type Stamp struct {
	Src, Dst         int
	SrcNode, DstNode int
	srcInc, dstInc   int64
}

// Stamp records the current incarnations of an operation's endpoint
// nodes.
func (inj *Injector) Stamp(src, dst, srcNode, dstNode int) Stamp {
	return Stamp{Src: src, Dst: dst, SrcNode: srcNode, DstNode: dstNode,
		srcInc: inj.Incarnation(srcNode), dstInc: inj.Incarnation(dstNode)}
}

// Stale reports whether either endpoint node of s was reincarnated
// since the stamp was taken.
func (inj *Injector) Stale(s Stamp) bool {
	return inj.Incarnation(s.SrcNode) != s.srcInc || inj.Incarnation(s.DstNode) != s.dstInc
}

// Check reports why an operation stamped s can no longer complete, or
// nil. Staleness wins over liveness: an endpoint that crashed and
// revived is up again, but retrying the op into its new life would
// bypass the checkpoint restore.
func (inj *Injector) Check(s Stamp) error {
	if inj.Stale(s) {
		return ErrStaleEpoch
	}
	if inj.NodeDown(s.SrcNode) || inj.NodeDown(s.DstNode) {
		return ErrNodeDown
	}
	return nil
}

// Fence wraps a network payload apply with the delivery-time epoch
// fence. If either endpoint node was reincarnated since issue, or the
// destination node is down at delivery, the payload is dropped with a
// comm-matrix "stale-drop" instant instead of corrupting the new life's
// restored state. A nil injector or a nil apply passes through
// untouched, which keeps fault-free transfers allocation-free.
func (inj *Injector) Fence(src, dst, srcNode, dstNode int, bytes int64, apply func()) func() {
	if inj == nil || apply == nil {
		return apply
	}
	s := inj.Stamp(src, dst, srcNode, dstNode)
	return func() {
		if inj.Stale(s) || inj.NodeDown(dstNode) {
			if inj.eng.Tracing() {
				inj.eng.TraceInstant(trace.CatComm, "stale-drop", trace.ClassFault,
					bytes, trace.PackEndpoints(src, dst, srcNode, dstNode))
			}
			return
		}
		apply()
	}
}

// OnTransition registers an observer of crash/revive transitions, run in
// engine context immediately after the injector's own state flips.
// Runtimes use it to wake threads parked for a revival. Register before
// the engine runs.
func (inj *Injector) OnTransition(fn func(node int, down bool)) {
	inj.onTrans = append(inj.onTrans, fn)
}

// WillRevive reports whether the schedule revives node after the current
// virtual time — i.e. whether a thread parked for the node's rebirth is
// guaranteed a wake-up. Threads must check it before awaiting a revival:
// the revive event is pre-booked at Install, so a true answer means the
// wake is already in the event queue.
func (inj *Injector) WillRevive(node int) bool {
	now := inj.eng.Now()
	for i := range inj.sched.Actions {
		a := &inj.sched.Actions[i]
		if a.Op == OpCrash && a.Node == node && a.Until > 0 &&
			sim.Time(sim.FromSeconds(a.Until)) > now {
			return true
		}
	}
	return false
}

// event emits a link-action visibility instant.
func (inj *Injector) event(name string) {
	if inj.eng.Tracing() {
		inj.eng.TraceInstant(trace.CatComm, name, trace.ClassFault, 0, 0)
	}
}

// NodeDown implements fabric.FaultModel.
func (inj *Injector) NodeDown(node int) bool {
	return node >= 0 && node < len(inj.down) && inj.down[node]
}

// MessageVerdict implements fabric.FaultModel: active rules are consulted
// in schedule order and the first whose filter matches and whose
// probability draw succeeds decides the message. Each matching active
// rule consumes exactly one PRNG draw, keeping the stream a pure function
// of the schedule and the deterministic message order.
func (inj *Injector) MessageVerdict(srcNode, dstNode int, size int64) (sim.MessageVerdict, sim.Duration) {
	for i := range inj.rules {
		r := &inj.rules[i]
		if !r.active {
			continue
		}
		if r.act.Src >= 0 && r.act.Src != srcNode {
			continue
		}
		if r.act.Dst >= 0 && r.act.Dst != dstNode {
			continue
		}
		if inj.eng.Rand().Float64() >= r.act.Prob {
			continue
		}
		switch r.act.Op {
		case OpDrop:
			return sim.MsgDrop, 0
		case OpDuplicate:
			return sim.MsgDuplicate, 0
		case OpDelay:
			return sim.MsgDelay, sim.FromSeconds(r.act.Extra)
		}
	}
	return sim.MsgDeliver, 0
}
