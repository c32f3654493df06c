package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/apps/ft"
	"repro/internal/apps/uts"
	"repro/internal/topo"
	"repro/internal/trace"
)

// A workload is one named sweep of independent simulations, run the way
// the experiment tables run theirs: through sweep.Run, one job per
// point, each installing the tracer sweep hands it.
type workload struct {
	name string
	why  string
	// tree reports whether the workload traverses a UTS tree chosen
	// from the seed.
	tree bool
	// observed attaches the sinks of upc-uts -table=3.2 -metrics -analyze.
	observed bool
	jobs     func(in input) []job
}

// input is what the seed generates for one workload.
type input struct {
	seed      int64
	tree      uts.TreeSpec
	treeNodes int64 // exact node count of tree
}

// job runs one sweep point with tr installed in its engines.
type job func(tr trace.Tracer) (outcome, error)

// outcome is one simulation's virtual-time result: a hash of everything
// the model computed, plus the UTS steal counters.
type outcome struct {
	hash   uint64
	steals int64
	probes int64
}

var workloads = []*workload{
	{
		name: "uts-steal",
		why:  "Table 3.2 UTS sweep, untraced: fine-grained steals, locks and small gets load the engine handoff path and the UTS kernel",
		tree: true,
		jobs: utsJobs,
	},
	{
		name: "ft-alltoall",
		why:  "FT class B all-to-all on Lehman: bulk flows contending on shared links load fabric flow settling; only workload reaching mpi, subthread and fft",
		jobs: ftJobs,
	},
	{
		name:     "uts-observed",
		why:      "the uts-steal sweep with the -metrics/-analyze sinks attached: same model layers plus trace, metrics, causality and the sweep replay buffer",
		tree:     true,
		observed: true,
		jobs:     utsJobs,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// utsJobs is Table 3.2's sweep at two of its machine sizes: ibv-ddr and
// gige, 32 and 128 threads on 16 Pyramid nodes, baseline and optimized
// strategy per shape (even indices baseline, odd optimized, as in the
// table).
func utsJobs(in input) []job {
	shapes := []struct {
		conduit string
		procs   int
	}{{"ibv-ddr", 32}, {"ibv-ddr", 128}, {"gige", 32}, {"gige", 128}}
	var jobs []job
	for _, sh := range shapes {
		gran := 8
		if sh.conduit == "gige" {
			gran = 20
		}
		for _, strat := range []uts.Strategy{uts.BaselineRR, uts.LocalRapid} {
			cfg := uts.Config{
				Machine:     topo.Pyramid(),
				ConduitName: sh.conduit,
				Threads:     sh.procs,
				PerNode:     sh.procs / 16,
				Strategy:    strat,
				Granularity: gran,
				Batch:       64,
				Tree:        in.tree,
				Seed:        in.seed,
			}
			jobs = append(jobs, func(tr trace.Tracer) (outcome, error) {
				c := cfg
				c.Tracer = tr
				r, err := uts.Run(c) // checks node count and depth itself
				if err != nil {
					return outcome{}, err
				}
				if in.treeNodes != 0 && r.Nodes != in.treeNodes {
					return outcome{}, fmt.Errorf("uts: %d nodes, tree has %d", r.Nodes, in.treeNodes)
				}
				var h hasher
				h.word(uint64(r.Nodes))
				h.word(uint64(r.MaxDepth))
				h.word(uint64(r.Elapsed))
				hashMap(&h, r.Counters)
				return outcome{hash: h.sum(), steals: r.Counters.Get("steals"), probes: r.Counters.Get("probes")}, nil
			})
		}
	}
	return jobs
}

// ftJobs covers Figures 4.5/4.6 at 32 cores on 8 Lehman nodes — class B
// in model mode, split-phase and overlap, for every execution model —
// plus one class-W verification run per runtime family, which runs the
// real FFT kernels on real data.
func ftJobs(in input) []job {
	classB, _ := ft.ClassByName("B")
	classW, _ := ft.ClassByName("W")
	specs := []ft.Config{
		{Class: classB, Variant: ft.UPCProcesses, Impl: ft.Overlap, Threads: 32, PerNode: 4},
		{Class: classB, Variant: ft.HybridCilk, Impl: ft.Overlap, Threads: 16, PerNode: 2, SubThreads: 2},
		{Class: classB, Variant: ft.HybridPool, Impl: ft.Overlap, Threads: 16, PerNode: 2, SubThreads: 2},
		{Class: classB, Variant: ft.HybridOMP, Impl: ft.Overlap, Threads: 16, PerNode: 2, SubThreads: 2},
		{Class: classB, Variant: ft.UPCPthreads, Impl: ft.Overlap, Threads: 32, PerNode: 4},
		{Class: classB, Variant: ft.UPCPthreads, Impl: ft.SplitPhase, Threads: 32, PerNode: 4},
		{Class: classB, Variant: ft.UPCProcesses, Impl: ft.SplitPhase, Threads: 32, PerNode: 4},
		{Class: classB, Variant: ft.HybridOMP, Impl: ft.SplitPhase, Threads: 16, PerNode: 2, SubThreads: 2},
		{Class: classB, Variant: ft.MPIFortran, Impl: ft.SplitPhase, Threads: 32, PerNode: 4},
		{Class: classW, Variant: ft.MPIFortran, Impl: ft.SplitPhase, Threads: 8, PerNode: 1, Verify: true},
		{Class: classW, Variant: ft.UPCProcesses, Impl: ft.SplitPhase, Threads: 8, PerNode: 1, Verify: true},
		{Class: classW, Variant: ft.UPCPthreads, Impl: ft.Overlap, Threads: 8, PerNode: 1, Verify: true},
		{Class: classW, Variant: ft.HybridOMP, Impl: ft.Overlap, Threads: 4, PerNode: 1, SubThreads: 2, Verify: true},
	}
	jobs := make([]job, len(specs))
	for i, cfg := range specs {
		cfg.Machine = topo.Lehman()
		cfg.Seed = in.seed
		jobs[i] = func(tr trace.Tracer) (outcome, error) {
			c := cfg
			c.Tracer = tr
			r, err := ft.Run(c)
			if err != nil {
				return outcome{}, err
			}
			if c.Verify && (!r.Verified || !(r.MaxErr <= 1e-9)) {
				return outcome{}, fmt.Errorf("ft: %v %v class %s failed verification (max error %g)",
					c.Variant, c.Impl, c.Class.Name, r.MaxErr)
			}
			var h hasher
			h.word(uint64(r.Elapsed))
			h.word(uint64(r.PerIter))
			h.word(uint64(r.Comm))
			hashMap(&h, r.Phases)
			h.word(math.Float64bits(r.MaxErr))
			return outcome{hash: h.sum()}, nil
		}
	}
	return jobs
}

// utsTrees are the tree seeds a benchmark seed picks from: uts.Small(30000)
// trees within 2% of 30000 nodes whose uts-steal sweep parks the engine
// within 2% of 946K times. Binomial trees near criticality vary
// several-fold in size from seed to seed (uts.Small(400000) realizes 721K
// nodes at tree seed 2 and 294K at tree seed 3), and even at equal size
// the shape moves the sweep's host time by ±30%; host time tracks the
// park count, so steering every seed to trees of equal size and park
// count keeps wall_s comparable across seeds. TestTreeTable re-derives
// both properties of every entry.
var utsTrees = []uint32{
	173971565, 3636114706, 1231906705, 3968122134, 1840359337, 3401223100,
	1442162185, 2357165256, 1566484005, 3809484112, 4261194790,
}

const (
	treeSize      = 30000  // uts.Small argument of every tree in utsTrees
	treeParks     = 946000 // uts-steal sweep parks the table is centred on
	treeTolerance = 0.02
)

// makeInput generates a workload's input from the benchmark seed: the
// seed itself for every Config.Seed and, for the UTS workloads, a tree
// from utsTrees with its exact node count.
func makeInput(w *workload, seed int64) input {
	in := input{seed: seed}
	if w.tree {
		in.tree = treeOf(seed)
		in.treeNodes, _ = in.tree.CountSequential()
	}
	return in
}

// treeOf picks the seed's tree from utsTrees.
func treeOf(seed int64) uts.TreeSpec {
	spec := uts.Small(treeSize)
	spec.Seed = utsTrees[splitmix(uint64(seed))%uint64(len(utsTrees))]
	return spec
}

// splitmix is the first output of a SplitMix64 stream seeded with s.
func splitmix(s uint64) uint64 {
	z := s + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// hasher hashes outcomes with 64-bit FNV-1a.
type hasher struct{ h hash.Hash64 }

func (h *hasher) word(v uint64) {
	if h.h == nil {
		h.h = fnv.New64a()
	}
	h.h.Write(binary.LittleEndian.AppendUint64(nil, v))
}

func (h *hasher) str(s string) {
	h.word(uint64(len(s)))
	h.h.Write([]byte(s))
}

// hashMap hashes a map's entries in key order.
func hashMap[V ~int64](h *hasher, m map[string]V) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		h.str(k)
		h.word(uint64(m[k]))
	}
}

func (h *hasher) sum() uint64 { return h.h.Sum64() }
