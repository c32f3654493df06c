package metrics

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Profile aggregates KSpanBegin/KSpanEnd events into a virtual-time
// profile: per-phase inclusive and exclusive time (a phase is a span's
// cat/name, summed over every process and stack position), and folded
// call stacks in the collapsed flamegraph text format — each line one
// unique span stack with the exclusive virtual nanoseconds spent
// there, ready for any flamegraph renderer that accepts collapsed
// stacks.
type Profile struct {
	open   map[int32][]profFrame
	phases map[string]*phaseAgg
	folded map[string]*foldAgg
}

type profFrame struct {
	key   string // cat/name
	path  string // folded stack including this frame
	start int64
	child int64 // inclusive ns of completed children
}

type phaseAgg struct {
	count int64
	incl  int64
	excl  int64
}

type foldAgg struct {
	count int64
	excl  int64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{
		open:   map[int32][]profFrame{},
		phases: map[string]*phaseAgg{},
		folded: map[string]*foldAgg{},
	}
}

// Record aggregates one span event; other kinds are ignored.
func (p *Profile) Record(e trace.Event) {
	switch e.Kind {
	case trace.KSpanBegin:
		key := e.Cat + "/" + e.Name
		path := key
		if stack := p.open[e.Proc]; len(stack) > 0 {
			path = stack[len(stack)-1].path + ";" + key
		}
		p.open[e.Proc] = append(p.open[e.Proc], profFrame{key: key, path: path, start: e.Time})
	case trace.KSpanEnd:
		stack := p.open[e.Proc]
		if len(stack) == 0 {
			return
		}
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.open[e.Proc] = stack
		incl := e.Time - f.start
		excl := incl - f.child
		if excl < 0 {
			excl = 0
		}
		if len(stack) > 0 {
			stack[len(stack)-1].child += incl
		}
		ph := p.phases[f.key]
		if ph == nil {
			ph = &phaseAgg{}
			p.phases[f.key] = ph
		}
		ph.count++
		ph.incl += incl
		ph.excl += excl
		fa := p.folded[f.path]
		if fa == nil {
			fa = &foldAgg{}
			p.folded[f.path] = fa
		}
		fa.count++
		fa.excl += excl
	}
}

// join folds a profile that continued this one's stream at a run
// boundary: phase and folded-stack aggregates add, and the child's open
// spans (its last run's) become this profile's. Call EndRun first. c is
// consumed; its aggregates may be adopted.
func (p *Profile) join(c *Profile) {
	for k, ca := range c.phases {
		a := p.phases[k]
		if a == nil {
			p.phases[k] = ca
			continue
		}
		a.count += ca.count
		a.incl += ca.incl
		a.excl += ca.excl
	}
	for k, ca := range c.folded {
		a := p.folded[k]
		if a == nil {
			p.folded[k] = ca
			continue
		}
		a.count += ca.count
		a.excl += ca.excl
	}
	p.open = c.open
}

// EndRun discards spans left open at a run boundary (they never closed
// within their run, so they have no measurable duration).
func (p *Profile) EndRun() {
	for k := range p.open {
		delete(p.open, k)
	}
}

// PhaseStat is one phase's aggregate: inclusive time counts the full
// span durations, exclusive time subtracts enclosed child spans.
type PhaseStat struct {
	Name        string `json:"name"`
	Count       int64  `json:"count"`
	InclusiveNS int64  `json:"incl_ns"`
	ExclusiveNS int64  `json:"excl_ns"`
}

// FoldedLine is one collapsed stack: semicolon-joined span keys from
// outermost to innermost, with the exclusive time spent exactly there.
type FoldedLine struct {
	Stack string `json:"stack"`
	Count int64  `json:"count"`
	NS    int64  `json:"ns"`
}

// ProfileExport is the manifest form of the profile.
type ProfileExport struct {
	Phases []PhaseStat  `json:"phases,omitempty"`
	Folded []FoldedLine `json:"folded,omitempty"`
}

// Export builds the manifest form, or nil if no spans closed.
func (p *Profile) Export() *ProfileExport {
	if len(p.phases) == 0 {
		return nil
	}
	e := &ProfileExport{}
	names := make([]string, 0, len(p.phases))
	for k := range p.phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		a := p.phases[n]
		e.Phases = append(e.Phases, PhaseStat{Name: n, Count: a.count, InclusiveNS: a.incl, ExclusiveNS: a.excl})
	}
	paths := make([]string, 0, len(p.folded))
	for k := range p.folded {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	for _, pa := range paths {
		a := p.folded[pa]
		e.Folded = append(e.Folded, FoldedLine{Stack: pa, Count: a.count, NS: a.excl})
	}
	return e
}

// FoldedText renders the collapsed-stack flamegraph text: one line per
// unique stack, "stack value", value in exclusive virtual nanoseconds.
func (e *ProfileExport) FoldedText() string {
	if e == nil {
		return ""
	}
	var b strings.Builder
	for _, f := range e.Folded {
		fmt.Fprintf(&b, "%s %d\n", f.Stack, f.NS)
	}
	return b.String()
}
