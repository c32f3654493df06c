package main

import (
	"runtime"
	"sort"
	"time"
)

// memStats is the Go allocator and collector activity of one repetition.
type memStats struct {
	allocBytes, mallocs, gcCycles uint64
	gcPause                       time.Duration
}

func memDelta(a, b *runtime.MemStats) memStats {
	return memStats{
		allocBytes: b.TotalAlloc - a.TotalAlloc,
		mallocs:    b.Mallocs - a.Mallocs,
		gcCycles:   uint64(b.NumGC - a.NumGC),
		gcPause:    time.Duration(b.PauseTotalNs - a.PauseTotalNs),
	}
}

// layerMetrics assembles the per-layer metrics of a traced run from its
// untraced repetitions (plain), its traced repetitions and their folded
// CPU profile.
func layerMetrics(b *bench, plain, traced []*rep, prof *folded) metricSet {
	m := metricSet{}
	nt := float64(len(traced))

	// Host CPU per layer, per traced repetition.
	for _, l := range layers {
		m.add("cpu."+l+"_s", prof.seconds(l)/nt, "s")
	}
	m.add("cpu.total_s", float64(prof.totalNS)/1e9/nt, "s")

	// Exact counts from the first traced repetition's stream.
	c := traced[0].counts
	m.add("sim.parks", float64(c.parks), "count")
	var plainWall, tracedWall []float64
	for _, r := range plain {
		plainWall = append(plainWall, r.wall.Seconds())
	}
	for _, r := range traced {
		tracedWall = append(tracedWall, r.wall.Seconds())
	}
	perPark := 0.0
	if c.parks > 0 {
		perPark = median(plainWall) * 1e9 / float64(c.parks)
	}
	m.add("host_ns_per_park", perPark, "ns")
	for i, cl := range commClasses {
		m.add("fabric.msgs."+cl, float64(c.msgs[i]), "count")
		m.add("fabric.bytes."+cl, float64(c.bytes[i]), "bytes")
	}
	for _, cat := range eventCats {
		m.add("events."+cat, float64(c.catCount(cat)), "count")
	}
	m.add("events.other", float64(c.catCount("other")), "count")
	m.add("events.total", float64(c.total), "count")
	m.add("model.virtual_s", float64(c.virtualNS())/1e9, "s")

	// UTS steal counters, from the apps' results.
	var steals, probes int64
	for _, o := range traced[0].outcomes {
		steals += o.steals
		probes += o.probes
	}
	m.add("uts.steals", float64(steals), "count")
	m.add("uts.probes", float64(probes), "count")
	success := 0.0
	if probes > 0 {
		success = float64(steals) / float64(probes)
	}
	m.add("uts.steal_success", success, "ratio")
	m.add("uts.tree_nodes", float64(b.in.treeNodes), "count")

	// The benchmark's own spans, medians over the traced repetitions.
	var replay, render, fin, runs []float64
	for _, r := range traced {
		replay = append(replay, r.replay.Seconds())
		render = append(render, r.render.Seconds())
		fin = append(fin, r.finalize.Seconds())
		for _, d := range r.appRun {
			runs = append(runs, d.Seconds())
		}
	}
	sort.Float64s(runs)
	m.add("sweep.replay_s", median(replay), "s")
	m.add("span.render_s", median(render), "s")
	m.add("span.finalize_s", median(fin), "s")
	m.add("span.app_run_s.p50", median(runs), "s")
	m.add("span.app_run_s.max", runs[len(runs)-1], "s")
	m.add("trace.overhead_x", median(tracedWall)/median(plainWall), "ratio")

	// Go allocator and collector, per untraced repetition.
	var alloc, mallocs, cycles, pause []float64
	for _, r := range plain {
		alloc = append(alloc, float64(r.mem.allocBytes)/(1<<20))
		mallocs = append(mallocs, float64(r.mem.mallocs))
		cycles = append(cycles, float64(r.mem.gcCycles))
		pause = append(pause, r.mem.gcPause.Seconds())
	}
	m.add("go.alloc_mb", median(alloc), "MB")
	m.add("go.mallocs", median(mallocs), "count")
	m.add("go.gc_cycles", median(cycles), "count")
	m.add("go.gc_pause_s", median(pause), "s")
	return m
}
