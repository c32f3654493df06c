package experiments

import (
	"fmt"

	"repro/internal/trace"
)

// legacyDigest is a verbatim copy of the byte-wise FNV-1a trace.Digest
// that the TraceDigest was defined by before the digest was redefined
// as a word-hashed one. The Figure 4.5 golden feeds it the same stream
// as the current digest and pins its value, which proves the stream
// itself did not change across the redefinition.

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// legacyDigest folds the event stream into an order-sensitive hash: a
// complete fingerprint of a run. Two simulations with the same seed and
// the same code produce identical digests — the engine's determinism
// guarantee turned into a checkable (and CI-gated) property.
//
// The stream is cut into runs at every KRunBegin (a run holds its
// KRunBegin and every event up to the next one; events before the
// first KRunBegin form a run of their own). Each run is hashed on its
// own with FNV-1a over the events' fields, and the digest is FNV-1a
// over the sequence of (run hash, run event count) pairs. Hashing runs
// separately is what makes legacyDigest a Forker: a child digest hashes its
// runs without the parent's state, and Join appends them.
type legacyDigest struct {
	runs []runSum // closed runs, in stream order
	cur  runSum   // the open run
	n    int64    // events over all runs
}

// runSum is one run's FNV-1a hash and event count.
type runSum struct {
	h uint64
	n int64
}

// newLegacyDigest returns an empty digest.
func newLegacyDigest() *legacyDigest { return &legacyDigest{cur: runSum{h: fnvOffset}} }

// Emit folds one event into the hash.
func (d *legacyDigest) Emit(e trace.Event) {
	if e.Kind == trace.KRunBegin {
		d.closeRun()
	}
	d.n++
	d.cur.n++
	h := d.cur.h
	h = word(h, uint64(e.Time))
	h = word(h, uint64(e.Kind))
	h = word(h, uint64(e.Proc))
	h = str(h, e.Cat)
	h = str(h, e.Name)
	h = str(h, e.Aux)
	h = word(h, uint64(e.Arg))
	h = word(h, uint64(e.Arg2))
	d.cur.h = h
}

// closeRun ends the open run; an empty run leaves no trace.
func (d *legacyDigest) closeRun() {
	if d.cur.n > 0 {
		d.runs = append(d.runs, d.cur)
	}
	d.cur = runSum{h: fnvOffset}
}

// Fork returns an empty digest for a stream that continues this one at
// a run boundary.
func (d *legacyDigest) Fork() trace.Tracer { return newLegacyDigest() }

// Join appends the forked child's runs: the parent's open run closes
// (the child's first event is a KRunBegin), the child's closed runs
// follow it, and the child's open run becomes the parent's.
func (d *legacyDigest) Join(child trace.Tracer) {
	c := child.(*legacyDigest)
	if c.n == 0 {
		return
	}
	d.closeRun()
	d.runs = append(d.runs, c.runs...)
	d.cur = c.cur
	d.n += c.n
}

func word(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

func str(h uint64, s string) uint64 {
	h = word(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// Sum64 reports the current hash value: FNV-1a over the (hash, count)
// pairs of every run so far, the open one included.
func (d *legacyDigest) Sum64() uint64 {
	h := uint64(fnvOffset)
	for _, r := range d.runs {
		h = word(word(h, r.h), uint64(r.n))
	}
	if d.cur.n > 0 {
		h = word(word(h, d.cur.h), uint64(d.cur.n))
	}
	return h
}

// Events reports how many events have been folded in.
func (d *legacyDigest) Events() int64 { return d.n }

// String renders the digest as 16 hex digits.
func (d *legacyDigest) String() string { return fmt.Sprintf("%016x", d.Sum64()) }
