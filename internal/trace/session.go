package trace

import (
	"fmt"
	"os"
	"slices"
)

// Session ties the process-default tracer to a Chrome trace file and a
// digest for the duration of one traced run (the -trace=out.json flag of
// the cmd/upc-* binaries). Every engine created between StartSession and
// Close feeds both sinks; Close restores the previous default, writes
// the JSON file, and leaves the digest readable.
//
// Every event is hashed once: when a sink that carries its own digest
// is attached (a DigestCarrier, such as the -metrics collection), the
// session drops its digest from the chain and reports the carrier's.
type Session struct {
	prev  Tracer
	sinks []Tracer // the session's chain, teed after prev
	cw    *ChromeWriter
	dg    *Digest
	ownDg bool // dg is the session's own sink, not a carrier's
	path  string
	f     *os.File
	err   error
}

// DigestCarrier is a sink that hashes every event it consumes into a
// Digest of its own. StreamDigest returns that digest; it must be empty
// when the sink is attached to a session.
type DigestCarrier interface {
	StreamDigest() *Digest
}

// StartSession installs a ChromeWriter+Digest pair as the process
// default tracer. path names the JSON file Close will write; "" runs a
// digest-only session — no ChromeWriter, so nothing is buffered and the
// memory cost stays flat no matter how many events the run emits (this
// is what the CI determinism gate uses on the large sweeps). The file is
// created eagerly so an unwritable path fails before the run, not after
// it.
func StartSession(path string) *Session {
	s := &Session{prev: Default(), dg: NewDigest(), ownDg: true, path: path}
	if path != "" {
		s.cw = NewChromeWriter()
		s.sinks = append(s.sinks, s.cw)
		if s.f, s.err = os.Create(path); s.err != nil {
			s.err = fmt.Errorf("trace: %w", s.err)
		}
	}
	s.sinks = append(s.sinks, s.dg)
	s.install()
	return s
}

// install makes the session's chain the process default.
func (s *Session) install() { SetDefault(Tee(s.prev, Multi(s.sinks...))) }

// Err reports whether the session's trace file could be created; call
// after StartSession to fail fast on a bad path.
func (s *Session) Err() error { return s.err }

// Attach adds another sink to the session's process-default chain (the
// -metrics collectors ride the same stream as the digest). Call between
// StartSession and the first simulation; Close removes it along with the
// session's own sinks. The first DigestCarrier attached takes over the
// session's digest: the session's own Digest leaves the chain, and
// Digest and Events report the carrier's.
func (s *Session) Attach(t Tracer) {
	if t == nil {
		return
	}
	if dc, ok := t.(DigestCarrier); ok && s.ownDg {
		if s.dg.Events() != 0 {
			panic("trace: Session.Attach after the session observed events")
		}
		s.sinks = slices.DeleteFunc(s.sinks, func(x Tracer) bool { return x == Tracer(s.dg) })
		s.dg, s.ownDg = dc.StreamDigest(), false
	}
	s.sinks = append(s.sinks, t)
	s.install()
}

// Close restores the previous default tracer and writes the trace file.
func (s *Session) Close() error {
	SetDefault(s.prev)
	if s.path == "" {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if err := s.cw.Export(s.f); err != nil {
		s.f.Close()
		return fmt.Errorf("trace: exporting %s: %w", s.path, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Digest reports the hash over every event the session observed.
func (s *Session) Digest() uint64 { return s.dg.Sum64() }

// Events reports how many events the session observed.
func (s *Session) Events() int64 { return s.dg.Events() }
