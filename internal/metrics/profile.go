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
//
// Stacks are kept as a call tree: an open span holds the tree node of
// its stack, and a span beginning inside it resolves its own node among
// that node's children. The per-event path builds no strings; stack
// names are rendered once, at export.
type Profile struct {
	open   map[int32][]profFrame
	root   *profNode // its children are the outermost spans
	phases map[spanKey]*phaseAgg
}

// spanKey names a phase: a span's cat and name.
type spanKey struct{ cat, name string }

// String renders the key as "cat/name".
func (k spanKey) String() string { return k.cat + "/" + k.name }

// profNode is one call-tree node: a unique stack of spans, outermost
// first, ending in key.
type profNode struct {
	key      spanKey
	children map[spanKey]*profNode
	count    int64 // closed spans with exactly this stack
	excl     int64 // their exclusive ns
}

type profFrame struct {
	node  *profNode
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
		root:   &profNode{},
		phases: map[spanKey]*phaseAgg{},
	}
}

// child resolves the node for span k opened inside n's stack.
func (n *profNode) child(k spanKey) *profNode {
	c := n.children[k]
	if c == nil {
		if n.children == nil {
			n.children = map[spanKey]*profNode{}
		}
		c = &profNode{key: k}
		n.children[k] = c
	}
	return c
}

// phase resolves the aggregate of phase k.
func (p *Profile) phase(k spanKey) *phaseAgg {
	a := p.phases[k]
	if a == nil {
		a = &phaseAgg{}
		p.phases[k] = a
	}
	return a
}

// Record aggregates one span event; other kinds are ignored.
func (p *Profile) Record(e trace.Event) {
	switch e.Kind {
	case trace.KSpanBegin:
		stack := p.open[e.Proc]
		parent := p.root
		if len(stack) > 0 {
			parent = stack[len(stack)-1].node
		}
		n := parent.child(spanKey{e.Cat, e.Name})
		p.open[e.Proc] = append(stack, profFrame{node: n, start: e.Time})
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
		ph := p.phase(f.node.key)
		ph.count++
		ph.incl += incl
		ph.excl += excl
		f.node.count++
		f.node.excl += excl
	}
}

// join folds a profile that continued this one's stream at a run
// boundary: phase aggregates and call trees add, and the child's open
// spans (its last run's) become this profile's, re-pointed at this
// profile's tree. Call EndRun first. c is consumed; its aggregates and
// subtrees may be adopted.
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
	p.root.merge(c.root)
	p.open = c.open
	for _, stack := range p.open {
		n := p.root
		for i := range stack {
			n = n.children[stack[i].node.key]
			stack[i].node = n
		}
	}
}

// merge adds the subtree under o into the one under n: matching nodes
// add, the others are adopted.
func (n *profNode) merge(o *profNode) {
	for k, oc := range o.children {
		nc := n.children[k]
		if nc == nil {
			if n.children == nil {
				n.children = map[spanKey]*profNode{}
			}
			n.children[k] = oc
			continue
		}
		nc.count += oc.count
		nc.excl += oc.excl
		nc.merge(oc)
	}
}

// EndRun discards spans left open at a run boundary (they never closed
// within their run, so they have no measurable duration).
func (p *Profile) EndRun() {
	for k, stack := range p.open {
		p.open[k] = stack[:0]
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

// Export builds the manifest form, or nil if no spans closed. Phases
// and stacks are keyed by their rendered names.
func (p *Profile) Export() *ProfileExport {
	phases := map[string]*phaseAgg{}
	for k, a := range p.phases {
		name := k.String()
		if m := phases[name]; m != nil {
			m.count += a.count
			m.incl += a.incl
			m.excl += a.excl
		} else {
			phases[name] = &phaseAgg{a.count, a.incl, a.excl}
		}
	}
	if len(phases) == 0 {
		return nil
	}
	folded := map[string]*foldAgg{}
	p.root.fold("", folded)
	e := &ProfileExport{}
	names := make([]string, 0, len(phases))
	for k := range phases {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, n := range names {
		a := phases[n]
		e.Phases = append(e.Phases, PhaseStat{Name: n, Count: a.count, InclusiveNS: a.incl, ExclusiveNS: a.excl})
	}
	paths := make([]string, 0, len(folded))
	for k := range folded {
		paths = append(paths, k)
	}
	sort.Strings(paths)
	for _, pa := range paths {
		a := folded[pa]
		e.Folded = append(e.Folded, FoldedLine{Stack: pa, Count: a.count, NS: a.excl})
	}
	return e
}

// fold adds the closed-span aggregates of every node under n to out,
// keyed by the node's semicolon-joined stack; path is n's own stack.
func (n *profNode) fold(path string, out map[string]*foldAgg) {
	for k, c := range n.children {
		cp := k.String()
		if path != "" {
			cp = path + ";" + cp
		}
		if c.count > 0 {
			a := out[cp]
			if a == nil {
				a = &foldAgg{}
				out[cp] = a
			}
			a.count += c.count
			a.excl += c.excl
		}
		c.fold(cp, out)
	}
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
