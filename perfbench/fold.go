package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// Layers a CPU sample can be attributed to: the repository's internal
// packages (apps/* folds into apps), the benchmark's own frames, and
// the Go runtime (GC workers, scheduler, and anything else without a
// repository frame on its stack). "other" collects internal packages no
// workload is meant to reach, so the per-layer seconds always sum to the
// profile's total.
var layers = []string{
	"sim", "fabric", "upc", "mpi", "subthread", "group", "fault", "topo",
	"apps", "fft", "perf", "sweep", "trace", "metrics", "causality",
	"other", "go_runtime", "bench",
}

const internalPrefix = "repro/internal/"

// layerOf maps a pprof function name to its layer, or "" when the frame
// belongs to neither the repository nor the benchmark.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// folded is a CPU profile attributed to layers.
type folded struct {
	ns      map[string]int64 // layer -> sampled CPU nanoseconds
	totalNS int64
	samples int64
}

// foldRaw reads the text of `go tool pprof -raw` and charges every
// sample's CPU time to the innermost frame of its stack that belongs to
// a layer (leaf first, inlined frames included); samples with no such
// frame go to go_runtime.
func foldRaw(text string) (*folded, error) {
	type sample struct {
		ns  int64
		ids []int
	}
	var samples []sample
	funcs := map[int][]string{} // location id -> functions, innermost first
	valueCol := -1
	section := ""
	lastLoc := -1
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trim := strings.TrimSpace(line)
		switch {
		case trim == "Samples:" || trim == "Locations" || trim == "Mappings":
			section = trim
			continue
		case trim == "":
			continue
		}
		switch section {
		case "Samples:":
			if valueCol < 0 {
				// Header: one "type/unit" column per sample value.
				for i, col := range strings.Fields(trim) {
					if col == "cpu/nanoseconds" {
						valueCol = i
					}
				}
				if valueCol < 0 {
					return nil, fmt.Errorf("fold: no cpu/nanoseconds column in %q", trim)
				}
				continue
			}
			head, ids, ok := strings.Cut(trim, ":")
			if !ok {
				continue // a label line
			}
			vals := strings.Fields(head)
			if valueCol >= len(vals) {
				continue
			}
			ns, err := strconv.ParseInt(vals[valueCol], 10, 64)
			if err != nil {
				continue
			}
			s := sample{ns: ns}
			for _, f := range strings.Fields(ids) {
				id, err := strconv.Atoi(f)
				if err != nil {
					return nil, fmt.Errorf("fold: bad location id in %q", trim)
				}
				s.ids = append(s.ids, id)
			}
			samples = append(samples, s)
		case "Locations":
			f := strings.Fields(trim)
			if id, ok := strings.CutSuffix(f[0], ":"); ok && len(f) >= 2 && strings.HasPrefix(f[1], "0x") {
				// "<id>: 0x<addr> [M=<n>] <func> <file:line> s=<n>"
				n, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("fold: bad location %q", trim)
				}
				lastLoc = n
				f = f[2:]
				if len(f) > 0 && strings.HasPrefix(f[0], "M=") {
					f = f[1:]
				}
				funcs[n] = nil
			}
			// The same line or a continuation line (an inlined caller)
			// names one function.
			if lastLoc >= 0 && len(f) > 0 && !strings.HasPrefix(f[0], "s=") {
				funcs[lastLoc] = append(funcs[lastLoc], f[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if valueCol < 0 {
		return nil, fmt.Errorf("fold: no Samples section")
	}
	out := &folded{ns: map[string]int64{}}
	for _, s := range samples {
		layer := "go_runtime"
	stack:
		for _, id := range s.ids {
			for _, fn := range funcs[id] {
				if l := layerOf(fn); l != "" {
					layer = l
					break stack
				}
			}
		}
		out.ns[layer] += s.ns
		out.totalNS += s.ns
		out.samples++
	}
	return out, nil
}

// foldProfile folds a CPU profile file with the toolchain's pprof.
func foldProfile(path string) (*folded, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("fold: go tool pprof -raw: %w", err)
	}
	return foldRaw(string(out))
}

// seconds reports a layer's CPU seconds.
func (f *folded) seconds(layer string) float64 { return float64(f.ns[layer]) / 1e9 }
