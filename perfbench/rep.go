package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"syscall"
	"time"

	"repro/internal/causality"
	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// errProbe stops a sweep at its first job: set-up probes time the path
// from process start to the first simulation job and no further.
var errProbe = errors.New("set-up probe")

// repOpts selects what one repetition records beyond its timings.
type repOpts struct {
	count bool // tee a counting sink into every job
	probe bool // stop each job before it simulates anything
}

// rep is one repetition of a workload's sweep. The spans are the
// benchmark's own, taken around the public calls: the whole sweep, each
// job's app run, the sweep's replay of buffered events after the last
// job returned, the table rendering from the per-run sinks, and the
// session finalization (Session.Close, Collection.Manifest,
// Recorder.Export).
type rep struct {
	wall, cpu  time.Duration
	outcomes   []outcome
	errs       []error
	appRun     []time.Duration
	firstStart time.Time
	replay     time.Duration
	render     time.Duration
	finalize   time.Duration
	// traceDigest is the session's TraceDigest and finalizeErr the
	// error of its finalization (observed workloads).
	traceDigest uint64
	finalizeErr error
	counts      *counter // merged job counts (opts.count)
	mem         memStats // Go allocator and GC activity (untraced passes)
}

// runRep runs the workload's sweep once.
func runRep(w *workload, jobs []job, opts repOpts) *rep {
	n := len(jobs)
	r := &rep{
		outcomes: make([]outcome, n),
		errs:     make([]error, n),
		appRun:   make([]time.Duration, n),
	}
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	counters := make([]*counter, n)
	cols := make([]*trace.Collector, n)
	recs := make([]*causality.Recorder, n)
	cpu0 := cpuTime()
	t0 := time.Now()

	var sess *trace.Session
	var coll *metrics.Collection
	var rec *causality.Recorder
	if w.observed {
		// What upc-uts -metrics=… -analyze=… sets up: a digest session
		// with the manifest collection and the causality recorder
		// attached before any engine is built.
		sess = trace.StartSession("")
		coll = metrics.NewCollection()
		sess.Attach(coll)
		rec = causality.NewRecorder()
		sess.Attach(rec)
	}

	sweep.Run(n, func(i int, tr trace.Tracer) error {
		starts[i] = time.Now()
		if opts.probe {
			return errProbe
		}
		if w.observed {
			// Table 3.2's per-run sinks.
			cols[i] = trace.NewCollector()
			recs[i] = causality.NewRecorder()
			tr = trace.Tee(cols[i], trace.Tee(recs[i], tr))
		}
		if opts.count {
			counters[i] = newCounter()
			tr = trace.Tee(counters[i], tr)
		}
		r.outcomes[i], r.errs[i] = jobs[i](tr)
		ends[i] = time.Now()
		return r.errs[i]
	})
	done := time.Now()

	r.firstStart = starts[0]
	for _, s := range starts {
		if !s.IsZero() && s.Before(r.firstStart) {
			r.firstStart = s
		}
	}
	var lastEnd time.Time
	for i := range jobs {
		r.appRun[i] = ends[i].Sub(starts[i])
		if ends[i].After(lastEnd) {
			lastEnd = ends[i]
		}
	}
	if !lastEnd.IsZero() {
		r.replay = done.Sub(lastEnd)
	}

	if w.observed {
		t := time.Now()
		for i := range jobs {
			if cols[i] != nil {
				renderRow(cols[i], recs[i])
			}
		}
		r.render = time.Since(t)
		t = time.Now()
		r.finalizeErr = finalize(sess, coll, rec)
		r.traceDigest = sess.Digest()
		r.finalize = time.Since(t)
	}
	r.wall = time.Since(t0)
	r.cpu = cpuTime() - cpu0

	if opts.count {
		r.counts = newCounter()
		for _, c := range counters {
			if c != nil {
				r.counts.add(c)
			}
		}
	}
	return r
}

// renderRow does the per-run work of Table 3.2's rendering: the
// trace-fed local-steal share, the per-thread steal spread and the
// critical-path wait share. The benchmark times the work and drops the
// values.
func renderRow(col *trace.Collector, rec *causality.Recorder) (local, p50, wait float64) {
	c := perf.CountersFromTrace(col)
	if s := c.Get("steals"); s > 0 {
		local = 100 * float64(c.Get("steals_local")) / float64(s)
	}
	if counts := perf.Int64s(col.CountByProc("uts", "steal")); len(counts) > 0 {
		_, p50, _ = perf.Percentiles(counts)
	}
	exp := rec.Export()
	var waitNS int64
	for _, s := range exp.Totals {
		if s.Category != causality.CatCompute {
			waitNS += s.NS
		}
	}
	if exp.TotalMakespanNS > 0 {
		wait = 100 * float64(waitNS) / float64(exp.TotalMakespanNS)
	}
	return local, p50, wait
}

// finalize ends an observed sweep the way tracecli does: close the
// session, build the manifest with the analysis riding on it, and
// serialize both plus the folded flamegraph.
func finalize(sess *trace.Session, coll *metrics.Collection, rec *causality.Recorder) error {
	if err := sess.Close(); err != nil {
		return err
	}
	m := coll.Manifest("perfbench", nil)
	exp := rec.Export()
	m.Analysis = exp
	if err := m.Write(io.Discard); err != nil {
		return err
	}
	if err := exp.Write(io.Discard); err != nil {
		return err
	}
	if rec.FoldedText() == "" {
		return fmt.Errorf("causality: empty flamegraph")
	}
	return nil
}

// cpuTime reports the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reports the process's high-water resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median reports the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
