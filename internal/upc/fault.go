package upc

import (
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Self-healing layer: when a fault schedule is installed (Config.Faults
// or the process default), one-sided operations on network paths gain
// virtual-time timeouts with capped exponential backoff and bounded
// retries, barriers and collectives release on the live threads alone,
// and applications can poll Failed/Alive and Retire crashed threads so
// the survivors finish the run. Without a schedule every hook collapses
// to a nil check and the runtime behaves exactly as before.

// FaultsOn reports whether a fault schedule is installed on this run.
func (rt *Runtime) FaultsOn() bool { return rt.inj != nil }

// RetryPolicy reports the run's active retry policy (zero when no fault
// schedule is installed).
func (rt *Runtime) RetryPolicy() fault.RetryPolicy { return rt.retry }

// LiveThreads reports how many threads have not retired.
func (rt *Runtime) LiveThreads() int { return rt.Cfg.Threads - rt.nDead }

// Failed reports whether this thread's own node is crashed under the
// run's fault schedule. Fault-tolerant applications poll it at work-loop
// boundaries and Retire when it reports true.
func (t *Thread) Failed() bool {
	return t.rt.FaultsOn() && t.rt.Cluster.NodeDown(t.Place.Node)
}

// Alive reports whether peer is usable as a communication target: it has
// not retired and its node is up. Always true without a fault schedule.
func (t *Thread) Alive(peer int) bool {
	rt := t.rt
	if !rt.FaultsOn() {
		return true
	}
	return !rt.dead[peer] && !rt.Cluster.NodeDown(rt.places[peer].Node)
}

// Retire removes this thread from the SPMD collective population after
// its node crashed: the in-progress barrier generation and collective
// slots re-check for release on the survivors alone, and future ones
// never wait for it. Idempotent; the thread must not issue further
// barriers or collectives afterwards.
func (t *Thread) Retire() {
	rt := t.rt
	if rt.dead[t.ID] {
		return
	}
	rt.dead[t.ID] = true
	rt.nDead++
	t.FaultEvent("retire", t.ID, 0)
	rt.bar.Recheck(t.ID)
	rt.colls.Recheck(nil, t.ID)
}

// FaultEvent emits one recovery-visibility instant (comm-matrix class
// fault) from this thread toward peer: timeouts, retries, failovers.
// Free when untraced.
func (t *Thread) FaultEvent(name string, peer int, bytes int64) {
	if !t.rt.Eng.Tracing() {
		return
	}
	t.P.TraceInstant(trace.CatComm, name, trace.ClassFault, bytes,
		trace.PackEndpoints(t.ID, peer, t.Place.Node, t.rt.places[peer].Node))
}

// retriable reports whether an op toward peer needs timeout/retry
// protection: only network paths (the conduit or its loopback) under an
// installed fault schedule. Shared-memory copies cannot lose messages.
func (t *Thread) retriable(peer int) bool {
	return t.rt.FaultsOn() && peer != t.ID &&
		!(topo.SameNode(t.Place, t.rt.places[peer]) && t.rt.Cfg.sharedMem())
}

// issue starts an op toward peer and returns its handle. On a protected
// path it fails fast when either end is already down, and arms the
// handle with the retry context, so WaitSync recovers lost messages
// transparently.
func (t *Thread) issue(op string, peer int, bytes int64, start func() *fabric.NetOp) (*Handle, error) {
	if !t.retriable(peer) {
		return &Handle{op: start()}, nil
	}
	if t.Failed() || !t.Alive(peer) {
		return nil, &fault.CommError{Op: op, Src: t.ID, Dst: peer, Err: fault.ErrNodeDown}
	}
	rt := t.rt
	h := &Handle{op: start()}
	h.leg = &fault.Leg{
		Stamp: rt.inj.Stamp(t.ID, peer, t.Place.Node, rt.places[peer].Node),
		Op:    op, Bytes: bytes, Edges: rt.edges, Retired: rt.dead,
		// Abandon the timed-out op before reissuing: dropping the hold
		// lets its pooled record recycle once any in-flight legs (a
		// delayed original, an injected duplicate) drain.
		Reissue: func() *sim.Event {
			h.op.Release()
			h.op = start()
			return &h.op.Remote
		},
	}
	return h, nil
}

// WaitSyncErr blocks until the asynchronous operation completes,
// recovering lost messages under the run's retry policy when the handle
// was issued on a protected path. It is the error-returning form of
// WaitSync.
func (t *Thread) WaitSyncErr(h *Handle) error {
	if h.op == nil {
		return nil
	}
	var err error
	if h.leg == nil {
		h.op.WaitRemote(t.P)
	} else {
		err = t.rt.inj.Retry(t.P, t.rt.retry, &h.op.Remote, *h.leg)
	}
	h.op.Release()
	h.op, h.leg = nil, nil // the wait consumed the operation either way; Try reads done
	return err
}

// BarrierErr is Barrier with failure detection: instead of hanging when
// the barrier can never release, it gives up after the retry policy's
// deadline ladder and returns a typed error. A barrier that is merely
// slow (survivors still arriving within the deadlines) succeeds.
func (t *Thread) BarrierErr() error {
	rt := t.rt
	if !rt.FaultsOn() {
		t.Barrier()
		return nil
	}
	if t.Failed() {
		return &fault.CommError{Op: "barrier", Src: t.ID, Dst: t.ID, Err: fault.ErrNodeDown}
	}
	t.flushXlateCounters()
	end := t.P.TraceSpan("upc", "barrier")
	defer end()
	gen := rt.bar.Gen()
	attempts, err := rt.retry.AwaitEvent(t.P, rt.bar.Arrive(t.ID), rt.barCost, func(int) error {
		t.FaultEvent("timeout", t.ID, 0)
		if t.Failed() {
			return fault.ErrNodeDown
		}
		return nil
	})
	if err != nil {
		return &fault.CommError{Op: "barrier", Src: t.ID, Dst: t.ID, Attempts: attempts, Err: err}
	}
	t.maybeCkpt(gen)
	return nil
}

// ---- Error-returning one-sided operations ----
//
// The Err variants recover from injected message loss on network paths
// and surface unrecoverable failures (crashed nodes, exhausted retries,
// out-of-range accesses) as typed errors. The legacy void forms delegate
// to them and panic on error, preserving their historical contract.

// PutBytesErr is PutBytes with fault recovery and typed errors. On a
// fault-free run the blocking form never materializes a handle or retry
// context: it rides the pooled fabric record end to end, allocation-free.
func (t *Thread) PutBytesErr(dst int, bytes int64) error {
	if !t.retriable(dst) {
		op := t.putBytes(dst, bytes, nil)
		op.WaitRemote(t.P)
		op.Release()
		t.remoteAck(dst)
		return nil
	}
	h, err := t.putBytesAsyncErr(dst, bytes, nil)
	if err != nil {
		return err
	}
	if err := t.WaitSyncErr(h); err != nil {
		return err
	}
	t.remoteAck(dst)
	return nil
}

// GetBytesErr is GetBytes with fault recovery and typed errors. Like
// PutBytesErr, the fault-free blocking form is allocation-free.
func (t *Thread) GetBytesErr(src int, bytes int64) error {
	if !t.retriable(src) {
		op := t.getBytes(src, bytes, nil)
		op.WaitRemote(t.P)
		op.Release()
		return nil
	}
	h, err := t.issue("get", src, bytes, func() *fabric.NetOp { return t.getBytes(src, bytes, nil) })
	if err != nil {
		return err
	}
	return t.WaitSyncErr(h)
}

// putBytesAsyncErr issues a protected put, failing fast when either end
// is already down. The async contract hands the caller an owned Handle,
// so this path allocates exactly that handle on fault-free runs.
func (t *Thread) putBytesAsyncErr(dst int, bytes int64, apply func()) (*Handle, error) {
	if !t.retriable(dst) {
		return &Handle{op: t.putBytes(dst, bytes, apply)}, nil
	}
	return t.issue("put", dst, bytes, func() *fabric.NetOp { return t.putBytes(dst, bytes, apply) })
}

// PutAsyncTErr is PutAsyncT with typed range errors and a retry-armed
// handle: WaitSyncErr on the result recovers lost messages.
func PutAsyncTErr[T any](t *Thread, s *Shared[T], owner, off int, src []T) (*Handle, error) {
	if err := checkRangeErr(len(s.segs[owner]), off, len(src), "Put"); err != nil {
		return nil, err
	}
	snap := make([]T, len(src))
	copy(snap, src)
	dst := s.segs[owner]
	return t.putBytesAsyncErr(owner, int64(len(src)*s.elemBytes), func() {
		copy(dst[off:], snap)
	})
}

// PutTErr is PutT with fault recovery and typed errors.
func PutTErr[T any](t *Thread, s *Shared[T], owner, off int, src []T) error {
	h, err := PutAsyncTErr(t, s, owner, off, src)
	if err != nil {
		return err
	}
	if err := t.WaitSyncErr(h); err != nil {
		return err
	}
	t.remoteAck(owner)
	return nil
}

// GetAsyncTErr is GetAsyncT with typed range errors and a retry-armed
// handle.
func GetAsyncTErr[T any](t *Thread, s *Shared[T], dst []T, owner, off int) (*Handle, error) {
	if err := checkRangeErr(len(s.segs[owner]), off, len(dst), "Get"); err != nil {
		return nil, err
	}
	src := s.segs[owner]
	n := len(dst)
	bytes := int64(n * s.elemBytes)
	return t.issue("get", owner, bytes, func() *fabric.NetOp {
		return t.getBytes(owner, bytes, func() {
			copy(dst, src[off:off+n])
		})
	})
}

// GetTErr is GetT with fault recovery and typed errors.
func GetTErr[T any](t *Thread, s *Shared[T], dst []T, owner, off int) error {
	h, err := GetAsyncTErr(t, s, dst, owner, off)
	if err != nil {
		return err
	}
	return t.WaitSyncErr(h)
}

// ReadElemErr is ReadElem with fault recovery and typed errors.
func ReadElemErr[T any](t *Thread, s *Shared[T], i int) (T, error) {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		return s.segs[owner][local], nil
	}
	buf := make([]T, 1)
	if err := GetTErr(t, s, buf, owner, local); err != nil {
		var zero T
		return zero, err
	}
	return buf[0], nil
}

// WriteElemErr is WriteElem with fault recovery and typed errors.
func WriteElemErr[T any](t *Thread, s *Shared[T], i int, v T) error {
	owner, local := s.Owner(i), s.LocalIndex(i)
	t.xlateAccess(s.id, i/s.block)
	if t.Castable(owner) {
		t.MemStreamFrom(int64(s.elemBytes), t.rt.places[owner].Socket)
		s.segs[owner][local] = v
		return nil
	}
	return PutTErr(t, s, owner, local, []T{v})
}
