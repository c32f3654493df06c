package trace

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Collector aggregates the event stream into counters, span statistics
// and log2 duration histograms, per (cat, name) pair. It is the sink the
// experiments and perf query mechanically: steal percentages, phase
// breakdowns, message counts — derived from the trace rather than from
// ad-hoc counting in the apps.
//
// The per-event path builds no strings: each distinct (cat, name) pair
// is resolved once, through a struct-keyed map, to the record that
// holds its instant counts and span statistics, and an open span keeps
// a pointer to the statistics it will close into. Once every pair, proc
// and counter has been seen, Emit does not allocate.
type Collector struct {
	pairs     map[pairKey]*pairStat
	life      [KCounter + 1]int64 // lifecycle events by Kind
	unmatched int64               // span ends with no open span on their proc
	counters  map[string]int64    // KCounter totals by bare counter name
	open      map[int32][]openSpan
	events    int64
}

// pairKey names one (cat, name) pair.
type pairKey struct{ cat, name string }

// pairStat aggregates the instants and closed spans of one pair.
type pairStat struct {
	count  int64           // instant occurrences
	sum    int64           // summed Arg over instants
	byProc map[int32]int64 // instant occurrences per proc
	span   SpanStat
}

type openSpan struct {
	stat  *SpanStat
	start int64
}

// SpanStat aggregates the closed spans of one cat/name key.
type SpanStat struct {
	Count int64
	Total int64 // summed duration, ns
	Min   int64
	Max   int64
	// ByProc is the summed duration per emitting process.
	ByProc map[int32]int64
	// Buckets is a log2 histogram: Buckets[i] counts spans whose duration
	// in nanoseconds has bit length i (bucket 0 holds zero-length spans).
	Buckets [65]int64
}

// MaxByProc reports the largest per-process duration total — the metric
// phase breakdowns report (the slowest thread bounds the phase).
func (s *SpanStat) MaxByProc() int64 {
	var m int64
	for _, v := range s.ByProc {
		if v > m {
			m = v
		}
	}
	return m
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		pairs:    map[pairKey]*pairStat{},
		counters: map[string]int64{},
		open:     map[int32][]openSpan{},
	}
}

// pair resolves cat/name to its record, creating it on first sight.
func (c *Collector) pair(cat, name string) *pairStat {
	k := pairKey{cat, name}
	p := c.pairs[k]
	if p == nil {
		p = &pairStat{}
		c.pairs[k] = p
	}
	return p
}

// Emit aggregates one event.
func (c *Collector) Emit(e Event) {
	c.events++
	switch e.Kind {
	case KSpanBegin:
		c.open[e.Proc] = append(c.open[e.Proc], openSpan{&c.pair(e.Cat, e.Name).span, e.Time})
	case KSpanEnd:
		stack := c.open[e.Proc]
		if len(stack) == 0 {
			c.unmatched++
			return
		}
		sp := stack[len(stack)-1]
		c.open[e.Proc] = stack[:len(stack)-1]
		sp.stat.record(e.Proc, e.Time-sp.start)
	case KInstant:
		p := c.pair(e.Cat, e.Name)
		p.count++
		p.sum += e.Arg
		if p.byProc == nil {
			p.byProc = map[int32]int64{}
		}
		p.byProc[e.Proc]++
	case KCounter:
		c.counters[e.Name] += e.Arg
	case KProcSpawn, KProcPark, KProcUnpark, KProcExit:
		c.life[e.Kind]++
	}
}

func (s *SpanStat) record(proc int32, d int64) {
	if s.Count == 0 {
		s.Min = d
		s.ByProc = map[int32]int64{}
	}
	s.Count++
	s.Total += d
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.ByProc[proc] += d
	s.Buckets[bits.Len64(uint64(d))]++
}

// Events reports the number of events aggregated.
func (c *Collector) Events() int64 { return c.events }

// Count reports how many instants of cat/name were seen. Lifecycle
// events count as "sim" instants named after their Kind ("sim/park"),
// and span ends with no open span as "trace/unmatched-end".
func (c *Collector) Count(cat, name string) int64 {
	var n int64
	if p := c.pairs[pairKey{cat, name}]; p != nil {
		n = p.count
	}
	switch cat {
	case "sim":
		for _, k := range [...]Kind{KProcSpawn, KProcPark, KProcUnpark, KProcExit} {
			if name == k.String() {
				n += c.life[k]
			}
		}
	case "trace":
		if name == "unmatched-end" {
			n += c.unmatched
		}
	}
	return n
}

// Sum reports the summed Arg over instants of cat/name.
func (c *Collector) Sum(cat, name string) int64 {
	if p := c.pairs[pairKey{cat, name}]; p != nil {
		return p.sum
	}
	return 0
}

// CountByProc reports, per emitting process, how many instants of
// cat/name were seen. The returned slice is ordered by ascending process
// id, so consumers stay deterministic without sorting map keys
// themselves; feed the counts to perf.Quantile for per-thread
// distribution stats (the Table 3.2 percentile columns).
func (c *Collector) CountByProc(cat, name string) []int64 {
	p := c.pairs[pairKey{cat, name}]
	if p == nil || len(p.byProc) == 0 {
		return nil
	}
	procs := make([]int, 0, len(p.byProc))
	for pr := range p.byProc {
		procs = append(procs, int(pr))
	}
	sort.Ints(procs)
	out := make([]int64, len(procs))
	for i, pr := range procs {
		out[i] = p.byProc[int32(pr)]
	}
	return out
}

// Counter reports the named counter's total.
func (c *Collector) Counter(name string) int64 { return c.counters[name] }

// CounterTotals returns a copy of every named counter total.
func (c *Collector) CounterTotals() map[string]int64 {
	out := make(map[string]int64, len(c.counters))
	for k, v := range c.counters {
		out[k] = v
	}
	return out
}

// Span reports the aggregated statistics of cat/name spans; the zero
// SpanStat if none closed.
func (c *Collector) Span(cat, name string) SpanStat {
	if p := c.pairs[pairKey{cat, name}]; p != nil {
		return p.span
	}
	return SpanStat{}
}

// namedSpan is one pair's closed-span statistics under its cat/name key.
type namedSpan struct {
	key  string
	stat *SpanStat
}

// closedSpans lists the pairs with at least one closed span, sorted by
// cat/name key.
func (c *Collector) closedSpans() []namedSpan {
	var out []namedSpan
	for k, p := range c.pairs {
		if p.span.Count > 0 {
			out = append(out, namedSpan{k.cat + "/" + k.name, &p.span})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// SpanKeys lists the cat/name keys with at least one closed span, sorted.
func (c *Collector) SpanKeys() []string {
	spans := c.closedSpans()
	keys := make([]string, len(spans))
	for i, s := range spans {
		keys[i] = s.key
	}
	return keys
}

// String renders a compact summary: span totals then counters, sorted.
func (c *Collector) String() string {
	var b strings.Builder
	for _, s := range c.closedSpans() {
		fmt.Fprintf(&b, "%s: n=%d total=%dns max=%dns\n", s.key, s.stat.Count, s.stat.Total, s.stat.Max)
	}
	names := make([]string, 0, len(c.counters))
	for k := range c.counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "%s=%d\n", k, c.counters[k])
	}
	return b.String()
}
