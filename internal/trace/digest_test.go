package trace

import (
	"fmt"
	"testing"
)

// sumOf hashes a stream into a fresh digest.
func sumOf(evs []Event) uint64 {
	d := NewDigest()
	for _, e := range evs {
		d.Emit(e)
	}
	return d.Sum64()
}

// TestDigestFieldSensitivity: every single-field change must change the
// digest — any one flipped bit of an integer field (bit 63 included),
// the last byte of a long string, a trailing NUL, a byte moved across
// the Cat/Name boundary — and so must swapping any two adjacent distinct events.
func TestDigestFieldSensitivity(t *testing.T) {
	base := sample()
	const at = 6                              // the fabric put instant
	base[at].Name = "put-nonblocking-strided" // longer than 8 bytes
	want := sumOf(base)

	mutated := func(name string, mut func(*Event)) {
		t.Helper()
		evs := append([]Event(nil), base...)
		mut(&evs[at])
		if sumOf(evs) == want {
			t.Errorf("%s did not change the digest", name)
		}
	}
	for bit := 0; bit < 64; bit++ {
		m := int64(1) << bit
		mutated(fmt.Sprintf("Time bit %d", bit), func(e *Event) { e.Time ^= m })
		mutated(fmt.Sprintf("Arg bit %d", bit), func(e *Event) { e.Arg ^= m })
		mutated(fmt.Sprintf("Arg2 bit %d", bit), func(e *Event) { e.Arg2 ^= m })
		if bit < 32 {
			pm := int32(1) << bit
			mutated(fmt.Sprintf("Proc bit %d", bit), func(e *Event) { e.Proc ^= pm })
		}
	}
	mutated("Kind", func(e *Event) { e.Kind = KCounter })
	last := func(s string) string { return s[:len(s)-1] + string(s[len(s)-1]^1) }
	mutated("last byte of a long Name", func(e *Event) { e.Name = last(e.Name) })
	mutated("last byte of a long Cat", func(e *Event) { e.Cat = last("fabric-transport") })
	mutated("last byte of a long Aux", func(e *Event) { e.Aux = last(e.Aux + "-conduit") })
	mutated("a trailing NUL on a short Cat", func(e *Event) { e.Cat += "\x00" })

	ab := []Event{{Kind: KInstant, Cat: "ab", Name: "c"}}
	ba := []Event{{Kind: KInstant, Cat: "a", Name: "bc"}}
	if sumOf(ab) == sumOf(ba) {
		t.Error(`"ab"/"c" and "a"/"bc" hash alike`)
	}
	long := []Event{{Kind: KInstant, Cat: "category", Name: "n"}}
	longer := []Event{{Kind: KInstant, Cat: "categor", Name: "yn"}}
	if sumOf(long) == sumOf(longer) {
		t.Error(`"category"/"n" and "categor"/"yn" hash alike`)
	}

	for i := 0; i+1 < len(base); i++ {
		if base[i] == base[i+1] {
			continue
		}
		evs := append([]Event(nil), base...)
		evs[i], evs[i+1] = evs[i+1], evs[i]
		if sumOf(evs) == want {
			t.Errorf("swapping events %d and %d did not change the digest", i, i+1)
		}
	}
}

// carrier is a sink carrying its own digest, like metrics.Collection.
type carrier struct{ *Digest }

func (c carrier) StreamDigest() *Digest { return c.Digest }

// hashers counts the digests a chain feeds every event into.
func hashers(t Tracer) int {
	switch t := t.(type) {
	case multi:
		n := 0
		for _, s := range t {
			n += hashers(s)
		}
		return n
	case caps:
		return hashers(t.Tracer)
	case *Digest, carrier:
		return 1
	}
	return 0
}

// TestSessionHashesOnce: attaching a digest carrier to a session takes
// the session's own digest out of the chain, so each event is hashed
// exactly once and the session reports the carrier's digest.
func TestSessionHashesOnce(t *testing.T) {
	if Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	s := StartSession("")
	if n := hashers(Default()); n != 1 {
		t.Errorf("digest-only session hashes each event %d times, want 1", n)
	}
	c := carrier{NewDigest()}
	s.Attach(c)
	s.Attach(NewChromeWriter())
	if n := hashers(Default()); n != 1 {
		t.Errorf("session with a digest carrier hashes each event %d times, want 1", n)
	}
	for _, e := range sample() {
		Default().Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Events() != int64(len(sample())) || c.Events() != s.Events() {
		t.Errorf("session saw %d events, carrier %d, want %d", s.Events(), c.Events(), len(sample()))
	}
	if s.Digest() != sumOf(sample()) || s.Digest() != c.Sum64() {
		t.Errorf("session digest %016x, carrier %s, want %016x", s.Digest(), c, sumOf(sample()))
	}
}
