package metrics

import (
	"repro/internal/trace"
)

// Collection bundles the registry and the three trace-fed collectors
// behind one trace.Tracer, and tracks the stream-level facts a manifest
// records: run count, seeds, event count, digest, total virtual time.
// Attach it to a trace session (Session.Attach) so it rides the same
// stream as the digest. It is a trace.Forker: a parallel sweep feeds
// each job into its own forked Collection and joins them in job-index
// order, and every aggregate merges exactly — that is what makes
// -metrics manifests byte-identical at any -parallel level.
//
// Collection opts into link-occupancy events (trace.UtilObserver), so
// installing one enables the fabric's CatLink emissions for the whole
// sink chain of the engines built afterwards. It hashes the stream into
// its own digest, which a trace session adopts when the collection is
// attached (trace.DigestCarrier), so an observed stream is hashed once.
//
// The registry keys an event feeds ("comm.put.msgs", "util.peak.nic0",
// ...) are derived from its labels once per distinct label, and the
// registry slots they name are cached, so the per-event path builds no
// strings.
type Collection struct {
	Reg  *Registry
	Comm *CommMatrix
	Util *UtilTimelines
	Prof *Profile

	dg        *trace.Digest
	runs      int64
	seeds     []int64
	curMax    int64 // latest virtual time seen in the current run
	totalNS   int64 // summed final times of completed runs
	finalized bool

	// Registry slots by label.
	ops      map[string]slotPair    // comm op: msgs and bytes counters
	sizes    map[string]*Histogram  // comm path class: size histogram
	peaks    map[string]*int64      // link: util.peak gauge
	instants map[[2]string]slotPair // instant cat, name: n and sum counters
	counters map[string]*int64      // counter name: counter
}

// slotPair is a count slot and a sum slot fed by one label.
type slotPair struct{ n, sum *int64 }

// add counts one occurrence carrying v.
func (p slotPair) add(v int64) {
	*p.n++
	*p.sum += v
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{
		Reg:  NewRegistry(),
		Comm: NewCommMatrix(),
		Util: NewUtilTimelines(),
		Prof: NewProfile(),
		dg:   trace.NewDigest(),

		ops:      map[string]slotPair{},
		sizes:    map[string]*Histogram{},
		peaks:    map[string]*int64{},
		instants: map[[2]string]slotPair{},
		counters: map[string]*int64{},
	}
}

// ObserveUtil opts the collection into link-occupancy events.
func (c *Collection) ObserveUtil() bool { return true }

// Emit aggregates one event.
func (c *Collection) Emit(e trace.Event) {
	c.dg.Emit(e)
	if e.Time > c.curMax {
		c.curMax = e.Time
	}
	switch e.Kind {
	case trace.KRunBegin:
		c.endRun()
		c.runs++
		c.addSeed(e.Arg)
	case trace.KSpanBegin, trace.KSpanEnd:
		c.Prof.Record(e)
	case trace.KInstant:
		switch e.Cat {
		case trace.CatComm:
			c.Comm.Record(e)
			op, ok := c.ops[e.Name]
			if !ok {
				op = slotPair{c.Reg.counter("comm." + e.Name + ".msgs"), c.Reg.counter("comm." + e.Name + ".bytes")}
				c.ops[e.Name] = op
			}
			op.add(e.Arg)
			h := c.sizes[e.Aux]
			if h == nil {
				h = c.Reg.hist("comm.size." + e.Aux)
				c.sizes[e.Aux] = h
			}
			h.observe(e.Arg)
		case trace.CatLink:
			c.Util.Record(e)
			g := c.peaks[e.Name]
			if g == nil {
				g = c.Reg.gauge("util.peak."+e.Name, e.Arg)
				c.peaks[e.Name] = g
			}
			setMax(g, e.Arg)
		default:
			k := [2]string{e.Cat, e.Name}
			in, ok := c.instants[k]
			if !ok {
				p := "instant." + e.Cat + "/" + e.Name
				in = slotPair{c.Reg.counter(p + ".n"), c.Reg.counter(p + ".sum")}
				c.instants[k] = in
			}
			in.add(e.Arg)
		}
	case trace.KCounter:
		n := c.counters[e.Name]
		if n == nil {
			n = c.Reg.counter("counter." + e.Name)
			c.counters[e.Name] = n
		}
		*n += e.Arg
	case trace.KProcSpawn:
		c.Reg.Add("procs.spawned", 1)
	case trace.KProcExit:
		c.Reg.Add("procs.exited", 1)
	}
}

// Fork returns an empty collection for a stream that continues this
// one at a run boundary.
func (c *Collection) Fork() trace.Tracer { return NewCollection() }

// Join folds a forked child in: this collection's open run closes (the
// child's stream begins with a KRunBegin), the child's aggregates merge
// in, and the child's open run becomes this collection's.
func (c *Collection) Join(child trace.Tracer) {
	k := child.(*Collection)
	if k.dg.Events() == 0 {
		return
	}
	c.endRun()
	c.dg.Join(k.dg)
	c.runs += k.runs
	for _, s := range k.seeds {
		c.addSeed(s)
	}
	c.totalNS += k.totalNS
	c.curMax = k.curMax
	c.Reg.merge(k.Reg)
	c.Comm.merge(k.Comm)
	c.Util.join(k.Util)
	c.Prof.join(k.Prof)
}

// endRun closes out the current run's per-run state.
func (c *Collection) endRun() {
	c.totalNS += c.curMax
	c.Util.EndRun(c.curMax)
	c.Prof.EndRun()
	c.curMax = 0
}

// addSeed records a run seed, keeping the distinct values in
// first-seen order (sweeps reuse one seed; a distinct-seeds study
// records each).
func (c *Collection) addSeed(seed int64) {
	for _, s := range c.seeds {
		if s == seed {
			return
		}
	}
	if len(c.seeds) < 64 {
		c.seeds = append(c.seeds, seed)
	}
}

// Runs reports the number of runs observed so far.
func (c *Collection) Runs() int64 { return c.runs }

// Events reports the number of events observed so far.
func (c *Collection) Events() int64 { return c.dg.Events() }

// Digest reports the order-sensitive hash of the observed stream: the
// trace session's digest, which is this collection's own once the
// collection is attached to the session.
func (c *Collection) Digest() uint64 { return c.dg.Sum64() }

// StreamDigest returns the digest the collection hashes the stream
// into; it makes the collection a trace.DigestCarrier.
func (c *Collection) StreamDigest() *trace.Digest { return c.dg }

// VirtualNS reports the summed final virtual time across runs,
// including the still-open one.
func (c *Collection) VirtualNS() int64 { return c.totalNS + c.curMax }

// Manifest finalizes the collection and builds the run manifest. Call
// once, after the last simulation finished; further events would
// land in closed-out aggregations.
func (c *Collection) Manifest(tool string, params map[string]string) *Manifest {
	if !c.finalized {
		c.finalized = true
		c.endRun()
	}
	return &Manifest{
		Tool:       tool,
		Params:     params,
		Runs:       c.runs,
		Seeds:      append([]int64(nil), c.seeds...),
		Events:     c.dg.Events(),
		Digest:     c.dg.String(),
		VirtualNS:  c.totalNS,
		Counters:   c.Reg.Counters(),
		Gauges:     c.Reg.Gauges(),
		Histograms: c.Reg.Histograms(),
		Comm:       c.Comm.Export(),
		Util:       c.Util.Export(),
		Profile:    c.Prof.Export(),
	}
}
