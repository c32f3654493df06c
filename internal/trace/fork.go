package trace

// Forker is the fork/join capability of a sink. Fork returns an empty
// child sink of the same kind; events fed to the child instead of the
// parent can be folded back into the parent with Join, leaving the
// parent in the state it would have reached had it consumed the
// child's events directly, in the order the children are joined.
//
// This is how parallel sweeps trace: every job streams into its own
// forked chain on its own goroutine, and the small per-job aggregates
// are joined into the session in job-index order once the pool drains.
// A child's stream must continue the parent's at a run boundary: its
// first event, if any, is a KRunBegin (every engine and shard group
// opens its stream with one). Join consumes the child; a child must not
// be used after it has been joined.
type Forker interface {
	Fork() Tracer
	Join(child Tracer)
}

// Fork returns a child chain mirroring t: each sink forked, wrapped in
// the same fan-out and capability wrappers, so the child opts into the
// same clock, link-occupancy and completion-edge events as t. The
// result is false when some sink in t is not a Forker. A nil t forks
// to a nil child.
func Fork(t Tracer) (Tracer, bool) {
	switch t := t.(type) {
	case nil:
		return nil, true
	case multi:
		out := make(multi, len(t))
		for i, s := range t {
			c, ok := Fork(s)
			if !ok {
				return nil, false
			}
			out[i] = c
		}
		return out, true
	case caps:
		c, ok := Fork(t.Tracer)
		if !ok {
			return nil, false
		}
		t.Tracer = c
		return t, true
	case Forker:
		return t.Fork(), true
	}
	return nil, false
}

// Join folds child, a chain Fork(t) returned, back into t.
func Join(t, child Tracer) {
	switch t := t.(type) {
	case multi:
		c := child.(multi)
		for i, s := range t {
			Join(s, c[i])
		}
	case caps:
		Join(t.Tracer, child.(caps).Tracer)
	case Forker:
		t.Join(child)
	}
}
