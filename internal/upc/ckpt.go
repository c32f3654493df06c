package upc

import (
	"strconv"

	"repro/internal/trace"
)

// Barrier-aligned checkpointing and the rejoin protocol (DESIGN §15).
//
// When Config.Ckpt arms the layer, every Every-th barrier generation
// doubles as a coordinated checkpoint line: each thread snapshots its
// own blocks of the registered shared arrays (Shared.Persist /
// Shared2D.Persist) plus whatever application state its Checkpointer
// exports, and ships the replica to a surviving buddy thread — placed
// group-aware, preferring a cross-node peer so a whole-node crash
// cannot take a replica down with its owner, and falling back to a
// same-node (PSHM) peer, then to self. The shipment goes through the
// normal one-sided cost model, so checkpoint traffic shows up in comm
// matrices, trace timelines and the causality engine like any other
// put.
//
// A thread whose node the fault schedule revives rejoins at the next
// barrier generation: Rejoin restores the newest replica (a get from
// the buddy, charged through the cost model), clears the thread's dead
// mark so barrier membership re-admits it, and emits the rejoin edge
// the causality analyzer walks. Collective slots opened while the
// thread was dead are not replayed — rejoined threads must not lag
// into old collective sequences (the UTS workloads issue none mid-run).
//
// Armed-but-idle cost: a run with Ckpt.Every set but no faults pays one
// integer test per barrier and nothing on the one-sided hot path (the
// alloc-regression tests pin this).

// CkptConfig arms barrier-aligned checkpointing: every Every-th barrier
// generation checkpoints the registered state. Zero disables the layer.
type CkptConfig struct {
	Every int64
}

// Checkpointer exports application state beyond the registered shared
// arrays into the checkpoint line. CkptSnapshot returns an opaque
// snapshot plus its modeled byte volume; CkptRestore re-installs a
// snapshot after a rejoin. Both run on the owning thread's process.
type Checkpointer interface {
	CkptSnapshot() (snap any, bytes int64)
	CkptRestore(snap any)
}

// ckptObject is the per-thread snapshot surface the registered shared
// containers implement (Shared, Shared2D).
type ckptObject interface {
	ckptSave(th int) (snap any, bytes int64)
	ckptRestore(th int, snap any)
}

// ckptRec is one thread's newest replica: the generation it covers, the
// per-object snapshots, the application snapshot, the modeled volume,
// and the buddy thread holding it.
type ckptRec struct {
	gen   int64 // -1 = no checkpoint taken yet
	snaps []any
	app   any
	bytes int64
	buddy int
}

// persistObj registers o for checkpointing, once per object (threads
// all call Persist; pointer identity dedups). No-op when the layer is
// disarmed.
func (rt *Runtime) persistObj(o ckptObject) {
	if rt.ckptEvery == 0 {
		return
	}
	for _, p := range rt.persist {
		if p == o {
			return
		}
	}
	rt.persist = append(rt.persist, o)
}

// SetCheckpointer attaches this thread's application-state exporter to
// the checkpoint line. Call before the first checkpointed barrier.
func (t *Thread) SetCheckpointer(c Checkpointer) {
	if t.rt.ckptEvery == 0 {
		return
	}
	t.rt.ckptApps[t.ID] = c
}

// maybeCkpt runs the checkpoint line after barrier generation gen when
// the config selects it. The disarmed path is a single integer test.
func (t *Thread) maybeCkpt(gen int64) {
	if e := t.rt.ckptEvery; e == 0 || (gen+1)%e != 0 {
		return
	}
	t.runCkpt(gen)
}

// ckptBuddy picks the replica holder for thread id: the first live
// thread scanning from id's node-successor — a cross-node peer when the
// layout has one, wrapping through same-node (PSHM) peers, self as the
// last resort.
func (rt *Runtime) ckptBuddy(id int) int {
	n := rt.Cfg.Threads
	for step := 0; step < n-1; step++ {
		p := (id + rt.Cfg.ThreadsPerNode + step) % n
		if p == id {
			continue
		}
		if !rt.dead[p] && !(rt.FaultsOn() && rt.Cluster.NodeDown(rt.places[p].Node)) {
			return p
		}
	}
	return id
}

// runCkpt takes one thread's checkpoint after generation gen: snapshot
// the registered objects and app state, ship the replica to the buddy
// through the cost model, and commit it only once the shipment lands.
// A thread that is dead or whose node is down skips the line; a failed
// shipment keeps the previous replica.
func (t *Thread) runCkpt(gen int64) {
	rt := t.rt
	if rt.FaultsOn() && (rt.dead[t.ID] || t.Failed()) {
		return
	}
	var snaps []any
	var total int64
	for _, o := range rt.persist {
		s, b := o.ckptSave(t.ID)
		snaps = append(snaps, s)
		total += b
	}
	var app any
	if c := rt.ckptApps[t.ID]; c != nil {
		s, b := c.CkptSnapshot()
		app = s
		total += b
	}
	if len(snaps) == 0 && app == nil {
		return
	}
	buddy := rt.ckptBuddy(t.ID)
	end := t.P.TraceSpan("upc", "ckpt")
	if buddy == t.ID {
		t.MemStream(total)
	} else if err := t.PutBytesErr(buddy, total); err != nil {
		end()
		t.FaultEvent("ckpt-fail", buddy, total)
		return
	}
	end()
	rec := &rt.ckptStore[t.ID]
	rec.gen, rec.snaps, rec.app, rec.bytes, rec.buddy = gen, snaps, app, total, buddy
	t.FaultEvent("ckpt", buddy, total)
	if rt.edges {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeCkpt, strconv.FormatInt(gen, 10),
			total, trace.PackEndpoints(t.ID, buddy, t.Place.Node, rt.places[buddy].Node))
	}
}

// ReviveScheduled reports whether the fault schedule revives this
// thread's node after the current virtual time — i.e. whether parking
// in AwaitRevive is guaranteed a wake-up. A thread whose node died for
// good sees false and should Retire permanently.
func (t *Thread) ReviveScheduled() bool {
	rt := t.rt
	return rt.FaultsOn() && rt.inj.WillRevive(t.Place.Node)
}

// AwaitRevive parks the thread until its node's scheduled revival.
// Check ReviveScheduled first: without a booked revival the park would
// never wake. Returns immediately when the node is up.
func (t *Thread) AwaitRevive() {
	rt := t.rt
	if !rt.FaultsOn() {
		return
	}
	node := t.Place.Node
	for rt.Cluster.NodeDown(node) {
		rt.reviveQ[node].Wait(t.P, "upc-revive")
	}
}

// Rejoin re-admits a retired thread after its node's revival: the dead
// mark clears (barrier membership includes it again from the next
// generation), the newest checkpoint replica is restored — a get from
// the buddy charged through the cost model; an unreachable buddy falls
// back to a zero-state rebirth — and the rejoin edge is emitted for the
// causality analyzer. Returns the restored byte volume. The thread must
// re-enter the application's own membership structures (steal rings,
// probe sets) itself. No-op unless the thread actually retired.
func (t *Thread) Rejoin() int64 {
	rt := t.rt
	if !rt.FaultsOn() || !rt.dead[t.ID] {
		return 0
	}
	rt.dead[t.ID] = false
	rt.nDead--
	var restored int64
	buddy := t.ID
	if rt.ckptEvery > 0 {
		if rec := &rt.ckptStore[t.ID]; rec.gen >= 0 {
			buddy = rec.buddy
			ok := true
			if buddy == t.ID {
				t.MemStream(rec.bytes)
			} else if !t.Alive(buddy) {
				ok = false
			} else if err := t.GetBytesErr(buddy, rec.bytes); err != nil {
				ok = false
			}
			if ok {
				for i, o := range rt.persist {
					o.ckptRestore(t.ID, rec.snaps[i])
				}
				if c := rt.ckptApps[t.ID]; c != nil && rec.app != nil {
					c.CkptRestore(rec.app)
				}
				restored = rec.bytes
			} else {
				t.FaultEvent("failover", buddy, rec.bytes)
				buddy = t.ID
			}
		}
	}
	t.FaultEvent("rejoin", buddy, restored)
	if rt.edges {
		t.P.TraceInstant(trace.CatEdge, trace.EdgeRejoin, "", restored,
			trace.PackEndpoints(buddy, t.ID, rt.places[buddy].Node, t.Place.Node))
	}
	return restored
}
