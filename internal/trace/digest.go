package trace

import "fmt"

// digestSeed starts every hash chain; mixMul is the odd multiplier of
// the fold step.
const (
	digestSeed = 0xcbf29ce484222325
	mixMul     = 0x9e3779b97f4a7c15
)

// Digest folds the event stream into an order-sensitive hash: a
// complete fingerprint of a run. Two simulations with the same seed and
// the same code produce identical digests — the engine's determinism
// guarantee turned into a checkable (and CI-gated) property.
//
// Each event is encoded as a sequence of 64-bit words — Time, Kind and
// Proc packed into one word, Arg, Arg2, then Cat, Name and Aux by
// content (see foldString) — and every word is folded into the hash
// with one mix step. The encoding is prefix-free, and the step is a
// bijection of both the running hash and the word, so changing any one
// field of one event always changes the run's hash. Nothing address-
// or order-of-interning-dependent is ever folded.
//
// The stream is cut into runs at every KRunBegin (a run holds its
// KRunBegin and every event up to the next one; events before the
// first KRunBegin form a run of their own). Each run is hashed on its
// own, and the digest folds the sequence of (run hash, run event count)
// pairs. Hashing runs separately is what makes Digest a Forker: a child
// digest hashes its runs without the parent's state, and Join appends
// them.
type Digest struct {
	runs []runSum // closed runs, in stream order
	cur  runSum   // the open run
	n    int64    // events over all runs
}

// runSum is one run's hash and event count.
type runSum struct {
	h uint64
	n int64
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{cur: runSum{h: digestSeed}} }

// Emit folds one event into the hash.
func (d *Digest) Emit(e Event) {
	if e.Kind == KRunBegin {
		d.closeRun()
	}
	d.n++
	d.cur.n++
	h := d.cur.h
	h = mix(h, uint64(e.Time))
	h = mix(h, uint64(e.Kind)<<32|uint64(uint32(e.Proc)))
	h = mix(h, uint64(e.Arg))
	h = mix(h, uint64(e.Arg2))
	h = foldString(h, e.Cat)
	h = foldString(h, e.Name)
	h = foldString(h, e.Aux)
	d.cur.h = h
}

// closeRun ends the open run; an empty run leaves no trace.
func (d *Digest) closeRun() {
	if d.cur.n > 0 {
		d.runs = append(d.runs, d.cur)
	}
	d.cur = runSum{h: digestSeed}
}

// Fork returns an empty digest for a stream that continues this one at
// a run boundary.
func (d *Digest) Fork() Tracer { return NewDigest() }

// Join appends the forked child's runs: the parent's open run closes
// (the child's first event is a KRunBegin), the child's closed runs
// follow it, and the child's open run becomes the parent's.
func (d *Digest) Join(child Tracer) {
	c := child.(*Digest)
	if c.n == 0 {
		return
	}
	d.closeRun()
	d.runs = append(d.runs, c.runs...)
	d.cur = c.cur
	d.n += c.n
}

// mix folds one word into h: xor, multiply by an odd constant, then
// xor-shift so the multiply's high bits reach the low ones. Each of the
// three steps is invertible, so for a fixed h distinct words give
// distinct results, and for a fixed word distinct hashes stay distinct.
func mix(h, v uint64) uint64 {
	h = (h ^ v) * mixMul
	return h ^ h>>29
}

// foldString folds s by content. A string shorter than 8 bytes is one
// word: its bytes little-endian in the low seven bytes and its length
// in the top byte. A longer one is a header word — its length with bit
// 63 set, which no short-form word has — followed by its bytes in
// 8-byte little-endian words, the last one zero-padded.
func foldString(h uint64, s string) uint64 {
	if len(s) < 8 {
		return mix(h, uint64(len(s))<<56|tail(s))
	}
	h = mix(h, uint64(len(s))|1<<63)
	for len(s) >= 8 {
		h = mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
		s = s[8:]
	}
	if len(s) > 0 {
		h = mix(h, tail(s))
	}
	return h
}

// tail packs the fewer than 8 bytes of s little-endian.
func tail(s string) uint64 {
	var v uint64
	for i := len(s) - 1; i >= 0; i-- {
		v = v<<8 | uint64(s[i])
	}
	return v
}

// Sum64 reports the current hash value: the (hash, count) pairs of
// every run so far, the open one included, folded in stream order.
func (d *Digest) Sum64() uint64 {
	h := uint64(digestSeed)
	for _, r := range d.runs {
		h = mix(mix(h, r.h), uint64(r.n))
	}
	if d.cur.n > 0 {
		h = mix(mix(h, d.cur.h), uint64(d.cur.n))
	}
	return h
}

// Events reports how many events have been folded in.
func (d *Digest) Events() int64 { return d.n }

// String renders the digest as 16 hex digits.
func (d *Digest) String() string { return fmt.Sprintf("%016x", d.Sum64()) }
