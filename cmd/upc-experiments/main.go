// Command upc-experiments regenerates every table and figure of the
// thesis's evaluation in one run — the full per-experiment index of
// DESIGN.md — printing model values alongside the paper's where the
// paper states absolute numbers.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/tracecli"
)

// runStats is the lightweight footer sink: it rides the trace stream
// to count runs, events and virtual time, and totals the communication
// matrix's bytes by path class. It is far cheaper than the full
// -metrics collection (no per-pair cells, no timelines, no util
// opt-in), so the footer costs little even on the full sweep. It is a
// trace.Forker, so parallel sweeps count each job on its own thread.
type runStats struct {
	runs    int64
	events  int64
	virtual int64 // summed final virtual time across runs, ns
	curMax  int64
	bytes   map[string]int64 // comm bytes by path class
}

func (s *runStats) Emit(e trace.Event) {
	s.events++
	if e.Time > s.curMax {
		s.curMax = e.Time
	}
	switch e.Kind {
	case trace.KRunBegin:
		s.runs++
		s.virtual += s.curMax
		s.curMax = 0
	case trace.KInstant:
		if e.Cat == trace.CatComm {
			s.bytes[e.Aux] += e.Arg
		}
	}
}

// Fork returns empty stats for a stream that continues this one at a
// run boundary.
func (s *runStats) Fork() trace.Tracer { return &runStats{bytes: map[string]int64{}} }

// Join folds a forked child in: this stream's open run closes (the
// child's stream begins with a KRunBegin) and the child's open run
// becomes this one's.
func (s *runStats) Join(child trace.Tracer) {
	c := child.(*runStats)
	if c.events == 0 {
		return
	}
	s.runs += c.runs
	s.events += c.events
	s.virtual += s.curMax + c.virtual
	s.curMax = c.curMax
	for class, b := range c.bytes {
		s.bytes[class] += b
	}
}

// footer prints the run summary: one deterministic line (virtual-time
// and event totals are properties of the simulations, not the host).
func (s *runStats) footer(w io.Writer) {
	fmt.Fprintf(w, "\nrun summary: %d simulations, %d events, %s virtual time",
		s.runs, s.events, fmtSeconds(s.virtual+s.curMax))
	classes := make([]string, 0, len(s.bytes))
	total := int64(0)
	for c, b := range s.bytes {
		classes = append(classes, c)
		total += b
	}
	sort.Strings(classes)
	fmt.Fprintf(w, ", %s moved", report.Bytes(total))
	for _, c := range classes {
		fmt.Fprintf(w, " %s=%s", c, report.Bytes(s.bytes[c]))
	}
	fmt.Fprintln(w)
}

func fmtSeconds(ns int64) string {
	return fmt.Sprintf("%.3fs", float64(ns)/1e9)
}

func main() {
	quick := flag.Bool("quick", true,
		"smaller trees and no SMT sweep points (pass -quick=false for the full paper-scale run)")
	only := flag.String("only", "",
		"render a single experiment by index name (e.g. \"Figure 3.1b\") instead of the full sweep")
	flag.Parse()
	tracecli.Start()
	stats := &runStats{bytes: map[string]int64{}}
	trace.SetDefault(trace.Tee(trace.Default(), stats))
	run := func() error {
		if *only != "" {
			return experiments.Only(os.Stdout, *only, *quick)
		}
		return experiments.All(os.Stdout, *quick)
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "upc-experiments:", err)
		os.Exit(1)
	}
	stats.footer(os.Stdout)
	tracecli.Finish()
}
