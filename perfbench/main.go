// Command perfbench measures the host cost — wall time, CPU, memory and
// set-up time — of producing the thesis's results with this repository's
// simulator, end to end and layer by layer. It runs one named workload
// per invocation; each workload is a sweep of independent simulations
// driven through the same public calls the experiment tables use
// (uts.Run, ft.Run, sweep.Run, and the trace/metrics/causality sinks).
//
//	perfbench --workload uts-steal --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the sweep is repeated for the given seconds and the
// end-to-end metrics are reported as medians. With --trace 1 a short
// untraced pass is followed by traced repetitions under a CPU profile,
// folded per layer, with a counting sink teed into every job; that run
// reports the per-layer metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// run.sh builds the binary from source and runs it; see README.md for
// the workloads, the metrics and the layer each should move.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/sweep"
)

const (
	minReps     = 3  // timed repetitions per run, whatever --seconds says
	setupProbes = 41 // fresh processes timed for setup_s
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: uts-steal, ft-alltoall or uts-observed")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	probe := fs.Bool("probe-setup", false, "set-up probe: stop at the first simulation job and print its start time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := workloadByName(*name)
	if err != nil {
		return err
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *traced)
	}
	sweep.SetWorkers(runtime.NumCPU())
	if *probe {
		in := input{seed: *seed}
		if w.tree {
			in.tree = treeOf(*seed)
		}
		r := runRep(w, w.jobs(in), repOpts{probe: true})
		_, err := fmt.Fprintln(out, r.firstStart.UnixNano())
		return err
	}

	in := makeInput(w, *seed)
	setup, err := measureSetup(w, in)
	if err != nil {
		return err
	}
	b := &bench{w: w, in: in, jobs: w.jobs(in), budget: time.Duration(*seconds * float64(time.Second)), out: out}
	if *traced == 1 {
		return b.traced(setup)
	}
	return b.timed(setup)
}

// bench is one invocation's state.
type bench struct {
	w      *workload
	in     input
	jobs   []job
	budget time.Duration
	out    io.Writer
}

// timed repeats the untraced sweep for the budget and reports the
// end-to-end metrics.
func (b *bench) timed(setup float64) error {
	var reps []*rep
	deadline := time.Now().Add(b.budget)
	for len(reps) < minReps || time.Now().Before(deadline) {
		runtime.GC() // every repetition starts from a collected heap
		reps = append(reps, runRep(b.w, b.jobs, repOpts{}))
	}
	var walls, cpus []float64
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		cpus = append(cpus, r.cpu.Seconds())
	}
	m := endToEnd(walls, cpus, setup)
	chk := check(reps)
	b.header(len(reps), "untraced")
	fmt.Fprintf(b.out, "  %-14s %s\n", "wall_s", spread(walls, "s"))
	fmt.Fprintf(b.out, "  %-14s %s\n", "cpu_s", spread(cpus, "s"))
	fmt.Fprintf(b.out, "  %-14s %.1f MB (process high-water mark)\n", "peak_rss_mb", m["peak_rss_mb"].Value)
	fmt.Fprintf(b.out, "  %-14s %.6f s (median of %d fresh processes, start to first simulation job)\n", "setup_s", setup, setupProbes)
	return b.finish(chk, m)
}

// endToEnd assembles the end-to-end metrics from the repetitions' wall
// and CPU seconds and the set-up probes' median.
func endToEnd(walls, cpus []float64, setup float64) metricSet {
	m := metricSet{}
	m.add("wall_s", median(walls), "s")
	m.add("cpu_s", median(cpus), "s")
	m.add("peak_rss_mb", peakRSSMB(), "MB")
	m.add("setup_s", setup, "s")
	return m
}

// traced runs a short untraced pass, then traced repetitions under a CPU
// profile with a counting sink in every job, and reports the per-layer
// metrics.
func (b *bench) traced(setup float64) error {
	start := time.Now()
	var plain []*rep
	var ms0, ms1 runtime.MemStats
	for len(plain) < 1 || time.Since(start) < b.budget/3 {
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		r := runRep(b.w, b.jobs, repOpts{})
		runtime.ReadMemStats(&ms1)
		plain = append(plain, r)
		r.mem = memDelta(&ms0, &ms1)
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(exe), "cpu-*.pprof")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	var traced []*rep
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	for len(traced) < 1 || time.Since(start) < b.budget {
		traced = append(traced, runRep(b.w, b.jobs, repOpts{count: true}))
		runtime.GC()
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	prof, err := foldProfile(f.Name())
	if err != nil {
		return err
	}

	chk := check(append(append([]*rep(nil), plain...), traced...))
	// The counts are exact: every traced repetition must see the same
	// stream.
	for _, r := range traced[1:] {
		if !r.counts.equal(traced[0].counts) {
			chk.failed++
			chk.notes = append(chk.notes, "event counts differ between traced repetitions")
		}
	}
	m := layerMetrics(b, plain, traced, prof)
	b.header(len(traced), fmt.Sprintf("traced, after %d untraced", len(plain)))
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(b.out, "  %-22s %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Fprintf(b.out, "  (%d profile samples, %.3f s sampled CPU over %d traced repetitions)\n",
		prof.samples, float64(prof.totalNS)/1e9, len(traced))
	return b.finish(chk, m)
}

func (b *bench) header(reps int, mode string) {
	fmt.Fprintf(b.out, "perfbench workload=%s seed=%d workers=%d jobs=%d repetitions=%d (%s)\n",
		b.w.name, b.in.seed, sweep.Workers(), len(b.jobs), reps, mode)
	if b.w.tree {
		fmt.Fprintf(b.out, "  %-14s %d nodes (tree seed %d)\n", "uts.tree", b.in.treeNodes, b.in.tree.Seed)
	}
}

// finish prints the correctness summary and the result line.
func (b *bench) finish(chk checked, m metricSet) error {
	frac := float64(chk.failed) / float64(chk.attempted)
	fmt.Fprintf(b.out, "  %-14s %g (%d of %d simulation runs failed)\n", "fail_frac", frac, chk.failed, chk.attempted)
	fmt.Fprintf(b.out, "  %-14s %016x\n", "model_digest", chk.digest)
	if b.w.observed {
		fmt.Fprintf(b.out, "  %-14s %016x\n", "trace_digest", chk.traceDigest)
	}
	for _, n := range chk.notes {
		fmt.Fprintf(b.out, "  FAIL: %s\n", n)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{chk.failed == 0, chk.attempted, chk.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(b.out, "%s\n", line)
	return err
}

// checked is the correctness verdict over a run's repetitions.
type checked struct {
	attempted, failed int
	digest            uint64 // model_digest: hash of every job's outcome hash
	traceDigest       uint64
	notes             []string
}

// check counts failed simulation runs: runs that returned an error
// (UTS node-count or depth mismatch, FT verification) and runs whose
// virtual-time outcome differs from the same job in another repetition.
// An observed repetition whose TraceDigest or finalization differs
// counts one more failure.
func check(reps []*rep) checked {
	var c checked
	n := len(reps[0].outcomes)
	ref := make([]*outcome, n)
	for _, r := range reps {
		for i := range r.outcomes {
			c.attempted++
			if r.errs[i] != nil {
				c.failed++
				c.notes = append(c.notes, r.errs[i].Error())
				continue
			}
			if ref[i] == nil {
				ref[i] = &r.outcomes[i]
			} else if ref[i].hash != r.outcomes[i].hash {
				c.failed++
				c.notes = append(c.notes, fmt.Sprintf("job %d: outcome differs between repetitions", i))
			}
		}
		if r.finalizeErr != nil {
			c.failed++
			c.notes = append(c.notes, r.finalizeErr.Error())
		}
		if r.traceDigest != reps[0].traceDigest {
			c.failed++
			c.notes = append(c.notes, "TraceDigest differs between repetitions")
		}
	}
	var h hasher
	for _, o := range ref {
		if o != nil {
			h.word(o.hash)
		} else {
			h.word(0)
		}
	}
	c.digest = h.sum()
	c.traceDigest = reps[0].traceDigest
	if c.failed > c.attempted {
		c.failed = c.attempted
	}
	return c
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) add(name string, v float64, unit string) { m[name] = metric{v, unit} }

// spread renders a sample's median and quartiles.
func spread(xs []float64, unit string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(p float64) float64 { return s[int(p*float64(len(s)-1)+0.5)] }
	return fmt.Sprintf("%.4f %s (median of %d; min %.4f, p25 %.4f, p75 %.4f, max %.4f)",
		median(xs), unit, len(xs), s[0], q(0.25), q(0.75), s[len(s)-1])
}

// measureSetup times setupProbes fresh processes of this binary from
// spawn to their first simulation job and reports the median, in
// seconds.
func measureSetup(w *workload, in input) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--probe-setup", "--workload", w.name, "--seed", strconv.FormatInt(in.seed, 10))
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(stdout.String()), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("set-up probe: %w", err)
		}
		xs = append(xs, float64(ns-t0.UnixNano())/1e9)
	}
	return median(xs), nil
}
