package fabric

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// The differential exactness test drives the incremental Net and a
// reference settler with the same seeded operation scripts and demands
// bit-identical results. The reference is the full-recompute settler
// the incremental one replaced, kept verbatim (types renamed, pooling
// and tracing dropped): every settle re-rates every in-flight flow from
// freshly computed link shares.

type refLink struct {
	Capacity float64
	Beta     float64
	active   int
	Down     bool
}

func (l *refLink) share() float64 {
	if l.Down {
		return 0
	}
	if l.Capacity <= 0 {
		return math.Inf(1)
	}
	n := l.active
	if n < 1 {
		n = 1
	}
	eff := l.Capacity
	if l.Beta > 0 && n > 1 {
		d := 1 + l.Beta*float64(n-1)
		if d > maxCongestion {
			d = maxCongestion
		}
		eff /= d
	}
	return eff / float64(n)
}

type refFlow struct {
	remaining float64
	cap       float64
	links     []*refLink
	rate      float64
	onDone    func()
}

type refNet struct {
	eng   *sim.Engine
	flows []*refFlow
	last  sim.Time
	epoch uint64
}

func (n *refNet) start(size int64, cap float64, links []*refLink, done func()) {
	f := &refFlow{remaining: float64(size), cap: cap, links: links, onDone: done}
	n.account()
	for _, l := range f.links {
		l.active++
	}
	n.flows = append(n.flows, f)
	n.reschedule()
}

func (n *refNet) nudge() {
	n.account()
	n.reschedule()
}

func (n *refNet) account() {
	now := n.eng.Now()
	if now > n.last {
		dt := (now - n.last).Seconds()
		for _, f := range n.flows {
			f.remaining -= f.rate * dt
		}
	}
	n.last = now
}

func (n *refNet) recomputeRates() {
	for _, f := range n.flows {
		r := math.Inf(1)
		if f.cap > 0 {
			r = f.cap
		}
		for _, l := range f.links {
			if s := l.share(); s < r {
				r = s
			}
		}
		if math.IsInf(r, 1) {
			r = math.MaxFloat64
		}
		f.rate = r
	}
}

func (n *refNet) reschedule() {
	const eps = 1e-6
	var finished []*refFlow
	for {
		kept := n.flows[:0]
		finished = finished[:0]
		for _, f := range n.flows {
			if f.remaining <= eps {
				for _, l := range f.links {
					l.active--
				}
				finished = append(finished, f)
			} else {
				kept = append(kept, f)
			}
		}
		for i := len(kept); i < len(n.flows); i++ {
			n.flows[i] = nil
		}
		n.flows = kept
		for _, f := range finished {
			f.onDone()
		}
		if len(finished) == 0 {
			break
		}
	}
	n.recomputeRates()
	n.epoch++
	if len(n.flows) == 0 {
		return
	}
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		if t := f.remaining / f.rate; t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	dt := sim.FromSeconds(next)
	dt += dt >> 10
	if dt < 1 {
		dt = 1
	}
	epoch := n.epoch
	n.eng.After(dt, func() {
		if n.epoch != epoch {
			return
		}
		n.account()
		n.reschedule()
	})
}

// settler is the surface the scripts drive, over link indices.
type settler interface {
	start(size int64, cap float64, links []int, pooled bool, done func())
	setCapacity(l int, c float64)
	setDown(l int, down bool)
	active() int
	linkActive(l int) int
	// progress lists each in-flight flow's remaining bytes and rate as
	// raw float bits, in flow order.
	progress() []uint64
}

type incSettler struct {
	n     *Net
	links []*Link
}

// doneAction adapts a callback to the pooled StartAction path.
type doneAction func()

func (a doneAction) Run() { a() }

func (s *incSettler) start(size int64, cap float64, idx []int, pooled bool, done func()) {
	ls := make([]*Link, len(idx))
	for i, k := range idx {
		ls[i] = s.links[k]
	}
	if pooled {
		s.n.StartAction(size, cap, doneAction(done), ls...)
		return
	}
	s.n.Start(size, cap, ls...).OnComplete(done)
}
func (s *incSettler) setCapacity(l int, c float64) { s.n.SetCapacity(s.links[l], c) }
func (s *incSettler) setDown(l int, down bool)     { s.n.SetDown(s.links[l], down) }
func (s *incSettler) active() int                  { return s.n.Active() }
func (s *incSettler) linkActive(l int) int         { return s.links[l].Active() }
func (s *incSettler) progress() []uint64 {
	var out []uint64
	for i := range s.n.flows {
		out = append(out, math.Float64bits(s.n.rem[i]), math.Float64bits(s.n.rate[i]))
	}
	return out
}

type refSettler struct {
	n     *refNet
	links []*refLink
}

func (s *refSettler) start(size int64, cap float64, idx []int, _ bool, done func()) {
	ls := make([]*refLink, len(idx))
	for i, k := range idx {
		ls[i] = s.links[k]
	}
	s.n.start(size, cap, ls, done)
}
func (s *refSettler) setCapacity(l int, c float64) { s.links[l].Capacity = c; s.n.nudge() }
func (s *refSettler) setDown(l int, down bool)     { s.links[l].Down = down; s.n.nudge() }
func (s *refSettler) active() int                  { return len(s.n.flows) }
func (s *refSettler) linkActive(l int) int         { return s.links[l].active }
func (s *refSettler) progress() []uint64 {
	var out []uint64
	for _, f := range s.n.flows {
		out = append(out, math.Float64bits(f.remaining), math.Float64bits(f.rate))
	}
	return out
}

// linkSpec is one link of a script: capacity (<= 0 is infinitely fast)
// and congestion coefficient.
type linkSpec struct {
	capacity, beta float64
}

// flowSpec is one flow of a script; children start from its completion
// callback.
type flowSpec struct {
	size     int64
	cap      float64
	links    []int
	pooled   bool
	children []*flowSpec
}

// scriptOp is one timed operation: start a flow, change a link's
// capacity, or flap it.
type scriptOp struct {
	at   sim.Duration
	flow *flowSpec
	link int
	capy float64 // > 0: SetCapacity
	down int     // 1: SetDown(true), 2: SetDown(false)
}

type script struct {
	links []linkSpec
	ops   []scriptOp
}

func genFlow(rng *rand.Rand, nlinks, depth int) *flowSpec {
	f := &flowSpec{size: 1 + rng.Int63n(200000), pooled: rng.Intn(2) == 0}
	if rng.Intn(3) == 0 {
		f.cap = float64(1000 + rng.Intn(500000))
	}
	perm := rng.Perm(nlinks)
	f.links = perm[:1+rng.Intn(3)]
	for depth < 3 && rng.Intn(4) == 0 {
		f.children = append(f.children, genFlow(rng, nlinks, depth+1))
	}
	return f
}

func genScript(seed int64) script {
	rng := rand.New(rand.NewSource(seed))
	var s script
	for i := 0; i < 6; i++ {
		ls := linkSpec{capacity: float64(1e4 + rng.Intn(1e6))}
		switch rng.Intn(6) {
		case 0:
			ls.capacity = 0 // infinitely fast
		case 1, 2:
			ls.beta = 0.01 + rng.Float64()*0.3
		}
		s.links = append(s.links, ls)
	}
	var at sim.Duration
	for i := 0; i < 250; i++ {
		at += sim.Duration(rng.Int63n(int64(20 * sim.Millisecond)))
		op := scriptOp{at: at}
		switch r := rng.Intn(20); {
		case r < 2:
			op.link = rng.Intn(len(s.links))
			op.capy = float64(1e4 + rng.Intn(1e6))
		case r < 4:
			op.link = rng.Intn(len(s.links))
			op.down = 1 + rng.Intn(2)
		default:
			op.flow = genFlow(rng, len(s.links), 0)
		}
		s.ops = append(s.ops, op)
	}
	// Bring every link up at the end so every flow drains.
	for l := range s.links {
		s.ops = append(s.ops, scriptOp{at: at + sim.Millisecond, link: l, down: 2})
	}
	return s
}

// observation is one recorded step: what happened and the state after.
type observation struct {
	what     string
	at       sim.Time
	active   int
	links    []int
	progress []uint64
}

// play runs the script against one settler implementation and returns
// everything it observed.
func play(t *testing.T, s script, seed int64, mk func(e *sim.Engine, links []linkSpec) settler) []observation {
	t.Helper()
	e := sim.New(seed)
	st := mk(e, s.links)
	var obs []observation
	record := func(what string) {
		o := observation{what: what, at: e.Now(), active: st.active(), progress: st.progress()}
		for l := range s.links {
			o.links = append(o.links, st.linkActive(l))
		}
		obs = append(obs, o)
	}
	nextID := 0
	var launch func(f *flowSpec)
	launch = func(f *flowSpec) {
		id := nextID
		nextID++
		st.start(f.size, f.cap, f.links, f.pooled, func() {
			record(fmt.Sprintf("done %d", id))
			for _, c := range f.children {
				launch(c)
			}
		})
		record(fmt.Sprintf("start %d", id))
	}
	for i, op := range s.ops {
		op := op
		e.After(op.at, func() {
			switch {
			case op.flow != nil:
				launch(op.flow)
				return
			case op.capy > 0:
				st.setCapacity(op.link, op.capy)
			case op.down == 1:
				st.setDown(op.link, true)
			case op.down == 2:
				st.setDown(op.link, false)
			}
			record(fmt.Sprintf("op %d", i))
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if st.active() != 0 {
		t.Fatalf("%d flows still in flight after the script", st.active())
	}
	return obs
}

func TestIncrementalSettleMatchesFullRecompute(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		s := genScript(seed)
		got := play(t, s, seed, func(e *sim.Engine, specs []linkSpec) settler {
			st := &incSettler{n: NewNet(e)}
			for i, ls := range specs {
				l := NewLink(fmt.Sprintf("l%d", i), ls.capacity)
				l.Beta = ls.beta
				st.links = append(st.links, l)
			}
			return st
		})
		want := play(t, s, seed, func(e *sim.Engine, specs []linkSpec) settler {
			st := &refSettler{n: &refNet{eng: e}}
			for _, ls := range specs {
				st.links = append(st.links, &refLink{Capacity: ls.capacity, Beta: ls.beta})
			}
			return st
		})
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d observations, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			g, w := got[i], want[i]
			if g.what != w.what || g.at != w.at || g.active != w.active {
				t.Fatalf("seed %d step %d: got %s at %v (%d active), reference %s at %v (%d active)",
					seed, i, g.what, g.at, g.active, w.what, w.at, w.active)
			}
			if fmt.Sprint(g.links) != fmt.Sprint(w.links) {
				t.Fatalf("seed %d step %d (%s): link actives %v, reference %v", seed, i, g.what, g.links, w.links)
			}
			if fmt.Sprint(g.progress) != fmt.Sprint(w.progress) {
				t.Fatalf("seed %d step %d (%s): flow progress bits differ from the reference", seed, i, g.what)
			}
		}
	}
}

// allToAll is an 8-NIC all-to-all flow pattern: flow i runs between a
// node pair chosen round-robin over the 56 ordered pairs and crosses the
// pair's connection, the source's egress NIC and the destination's
// ingress NIC (both congested, like the modeled NICs).
type allToAll struct {
	conn            [8][8]*Link
	egress, ingress [8]*Link
	pairs           [][2]int
}

func newAllToAll() *allToAll {
	a := &allToAll{}
	for i := 0; i < 8; i++ {
		a.egress[i] = NewLink(fmt.Sprintf("tx%d", i), 3.2e9)
		a.egress[i].Beta = 0.05
		a.ingress[i] = NewLink(fmt.Sprintf("rx%d", i), 3.2e9)
		a.ingress[i].Beta = 0.05
		for j := 0; j < 8; j++ {
			if i != j {
				a.conn[i][j] = NewLink(fmt.Sprintf("c%d-%d", i, j), 2.5e9)
				a.pairs = append(a.pairs, [2]int{i, j})
			}
		}
	}
	return a
}

// start launches flow i of the pattern, with a size that varies by
// flow so completions stagger.
func (a *allToAll) start(n *Net, i int, act sim.Action) {
	pr := a.pairs[i%len(a.pairs)]
	size := int64(64<<10 + (i*7919)%(192<<10))
	n.StartAction(size, 0, act, a.conn[pr[0]][pr[1]], a.egress[pr[0]], a.ingress[pr[1]])
}

// countdown fires ev when its count of pending completions reaches zero.
type countdown struct {
	left int
	ev   *sim.Event
}

func (c *countdown) Run() {
	if c.left--; c.left == 0 {
		c.ev.Fire()
	}
}

// BenchmarkNetAllToAll measures one all-to-all exchange of 500 flows on
// the 8-NIC pattern, start to last completion: 500 starts and the
// settles of their staggered drain.
func BenchmarkNetAllToAll(b *testing.B) {
	const flows = 500
	e := sim.New(1)
	n := NewNet(e)
	a := newAllToAll()
	e.Go("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for it := 0; it < b.N; it++ {
			ev := &sim.Event{}
			c := &countdown{left: flows, ev: ev}
			for i := 0; i < flows; i++ {
				a.start(n, i, c)
			}
			ev.Wait(p)
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
