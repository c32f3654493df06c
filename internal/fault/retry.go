package fault

import (
	"errors"
	"fmt"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Sentinel failure causes of a communication attempt.
var (
	// ErrTimeout marks an operation whose retries were exhausted without
	// a completion (the message or its acknowledgement kept getting lost).
	ErrTimeout = errors.New("timed out")
	// ErrNodeDown marks an operation whose peer's node is crashed.
	ErrNodeDown = errors.New("peer node down")
	// ErrStaleEpoch marks an operation issued in a previous membership
	// epoch: one of its endpoints crashed and was reincarnated after the
	// operation left, so completing (or re-issuing) it would let a dead
	// node's past corrupt a live node's present. The payload was dropped
	// at delivery; the issuer must re-run the operation in its new life.
	ErrStaleEpoch = errors.New("stale membership epoch")
)

// CommError is the typed failure a fault-aware communication call
// returns after recovery gave up: which operation, between which
// endpoints (thread or rank ids), how many attempts were made, and why.
type CommError struct {
	Op       string // "put", "get", "send", "barrier", ...
	Src, Dst int
	Attempts int
	Err      error // sentinel cause
}

func (e *CommError) Error() string {
	return fmt.Sprintf("fault: %s %d->%d failed after %d attempts: %v",
		e.Op, e.Src, e.Dst, e.Attempts, e.Err)
}

// Unwrap exposes the sentinel cause for errors.Is.
func (e *CommError) Unwrap() error { return e.Err }

// RetryPolicy is how a runtime recovers from lost messages: per-attempt
// virtual-time timeouts with capped exponential backoff and a bounded
// retry count. The zero value means "no policy"; use DefaultRetryPolicy.
type RetryPolicy struct {
	// Timeout is the base deadline of one attempt, before the expected
	// transfer time is added.
	Timeout sim.Duration
	// MaxRetries bounds re-sends after the first attempt: an operation
	// makes at most MaxRetries+1 attempts.
	MaxRetries int
	// Backoff is the pause after the first failed attempt; it doubles per
	// subsequent failure up to MaxBackoff.
	Backoff sim.Duration
	// MaxBackoff caps the exponential growth.
	MaxBackoff sim.Duration
}

// DefaultRetryPolicy reports the policy fault-aware runtimes use when
// the caller does not set one. The base timeout comfortably covers a
// healthy small-message round trip (a few microseconds) and the cap
// keeps six attempts within a few milliseconds of virtual time.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		Timeout:    500 * sim.Microsecond,
		MaxRetries: 6,
		Backoff:    100 * sim.Microsecond,
		MaxBackoff: 10 * sim.Millisecond,
	}
}

// OrDefault replaces a zero policy with DefaultRetryPolicy.
func (rp RetryPolicy) OrDefault() RetryPolicy {
	if rp.Timeout > 0 {
		return rp
	}
	return DefaultRetryPolicy()
}

// timeoutScaleCap bounds the per-attempt timeout growth: later attempts
// wait longer (a degraded-but-alive link needs patience, not traffic)
// but not unboundedly.
const timeoutScaleCap = 8

// AttemptTimeout reports the deadline of attempt try (0-based) for an
// operation whose fault-free completion takes about xfer of pure
// transfer time. The base grows exponentially with the attempt number,
// capped at timeoutScaleCap, so retries on a degraded link converge
// instead of storming.
func (rp RetryPolicy) AttemptTimeout(try int, xfer sim.Duration) sim.Duration {
	scale := sim.Duration(1) << uint(try)
	if scale > timeoutScaleCap || scale <= 0 {
		scale = timeoutScaleCap
	}
	return scale*rp.Timeout + 2*xfer
}

// BackoffFor reports the pause before re-attempt try (1-based: the pause
// taken after the try'th attempt failed): Backoff doubled per failure,
// capped at MaxBackoff.
func (rp RetryPolicy) BackoffFor(try int) sim.Duration {
	if try < 1 {
		try = 1
	}
	b := rp.Backoff << uint(try-1)
	if b > rp.MaxBackoff || b <= 0 {
		b = rp.MaxBackoff
	}
	return b
}

// Await is the deadline ladder of a blocking wait: rung k parks for
// AttemptTimeout(k, cost), and the wait gives up with ErrTimeout after
// MaxRetries+1 rungs expire. ready is polled before every park and ends
// the wait in success; check runs next, with the number of expired
// rungs, and ends it early with the cause it returns. park reports
// whether it was woken before the deadline. A wake that leaves ready
// false re-parks on the same rung. Await returns the expired-rung count
// with the outcome, for the caller's CommError.
func (rp RetryPolicy) Await(cost sim.Duration, ready func() bool, check func(timeouts int) error, park func(sim.Duration) bool) (int, error) {
	timeouts := 0
	for {
		if ready() {
			return timeouts, nil
		}
		if err := check(timeouts); err != nil {
			return timeouts, err
		}
		if timeouts > rp.MaxRetries {
			return timeouts, ErrTimeout
		}
		if !park(rp.AttemptTimeout(timeouts, cost)) {
			timeouts++
		}
	}
}

// AwaitEvent runs the deadline ladder on a release event, the wait of
// every fault-aware barrier and collective. timedOut runs after each
// expired rung; it emits the timeout instant, may re-check the release
// and ends the wait with the cause it returns.
func (rp RetryPolicy) AwaitEvent(p *sim.Proc, ev *sim.Event, cost sim.Duration, timedOut func(timeouts int) error) (int, error) {
	return rp.Await(cost, ev.Fired, func(timeouts int) error {
		if timeouts == 0 {
			return nil
		}
		return timedOut(timeouts)
	}, func(d sim.Duration) bool { return ev.WaitTimeout(p, d) })
}

// Leg is one point-to-point operation under the retry ladder (Retry):
// its endpoints and issue-time epoch, the operation name for errors and
// retry edges, and how to issue it again.
type Leg struct {
	Stamp
	Op    string
	Bytes int64
	Edges bool // also emit a retry completion edge per re-issue
	// Retired, if set, marks endpoints (by id) that left the membership
	// while their node stays up; a retired Dst counts as down.
	Retired []bool
	// Reissue abandons the current attempt, issues the next and returns
	// its completion event.
	Reissue func() *sim.Event
}

// Retry drives an issued point-to-point operation whose completion is
// done to the end under rp. Each attempt waits its rung of the deadline
// ladder. After a timeout the epoch and liveness checks run, then the
// retry cap; after the backoff the checks run again, and the op is
// re-issued. A completion is a success only if neither endpoint was
// reincarnated since issue, because the delivery-time fence drops a
// stale payload while the fabric-level op still completes. Failures
// come back as a *CommError wrapping ErrStaleEpoch, ErrNodeDown or
// ErrTimeout.
func (inj *Injector) Retry(p *sim.Proc, rp RetryPolicy, done *sim.Event, l Leg) error {
	cond := &inj.cl.Conduit
	xfer := 2*cond.Latency + sim.TransferTime(l.Bytes, cond.ConnBW)
	pack := trace.PackEndpoints(l.Src, l.Dst, l.SrcNode, l.DstNode)
	fail := func(attempts int, cause error) error {
		return &CommError{Op: l.Op, Src: l.Src, Dst: l.Dst, Attempts: attempts, Err: cause}
	}
	for try := 0; ; try++ {
		attempts := try + 1
		if done.WaitTimeout(p, rp.AttemptTimeout(try, xfer)) {
			if inj.Stale(l.Stamp) {
				return fail(attempts, ErrStaleEpoch)
			}
			return nil
		}
		p.TraceInstant(trace.CatComm, "timeout", trace.ClassFault, l.Bytes, pack)
		if cause := inj.broken(&l); cause != nil {
			return fail(attempts, cause)
		}
		if try >= rp.MaxRetries {
			return fail(attempts, ErrTimeout)
		}
		p.Advance(rp.BackoffFor(try + 1))
		if cause := inj.broken(&l); cause != nil { // the peer may have died while we backed off
			return fail(attempts, cause)
		}
		p.TraceInstant(trace.CatComm, "retry", trace.ClassFault, l.Bytes, pack)
		if l.Edges {
			p.TraceInstant(trace.CatEdge, trace.EdgeRetry, l.Op, int64(attempts), pack)
		}
		done = l.Reissue()
	}
}

// broken is Check plus the leg's membership.
func (inj *Injector) broken(l *Leg) error {
	if err := inj.Check(l.Stamp); err != nil {
		return err
	}
	if l.Retired != nil && l.Retired[l.Dst] {
		return ErrNodeDown
	}
	return nil
}
