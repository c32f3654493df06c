package main

import (
	"testing"
)

// rawProfile is `go tool pprof -raw` text in the toolchain's format:
// five stacks, one with an inlined repository frame inside a runtime
// location (location 6) and one with no repository frame at all.
const rawProfile = `PeriodType: cpu nanoseconds
Period: 10000000
Time: 2026-01-01 00:00:00 +0000 UTC
Duration: 1.2
Samples:
samples/count cpu/nanoseconds
          3   30000000: 1 2 3 4 
          2   20000000: 5 3 4 
          4   40000000: 6 4 
          1   10000000: 7 8 
          5   50000000: 9 10 4 
Locations
     1: 0x495fb4 M=1 crypto/sha1.blockAMD64 /go/src/crypto/sha1/sha1block_amd64.s:1095:0 s=8
     2: 0x4a0001 M=1 repro/internal/apps/uts.Child /repo/internal/apps/uts/tree.go:90:0 s=87
     3: 0x4a0002 M=1 repro/internal/sim.(*Engine).handoff /repo/internal/sim/engine.go:300:0 s=290
     4: 0x43a3ca M=1 runtime.goexit /go/src/runtime/asm_amd64.s:1700:0 s=1699
     5: 0x4a0003 M=1 repro/internal/fabric.(*SharedLink).settle /repo/internal/fabric/link.go:10:0 s=5
     6: 0x471289 M=1 runtime.memmove /go/src/runtime/memmove_amd64.s:200:0 s=35
             repro/internal/trace.(*Buffer).Emit /repo/internal/trace/buffer.go:40:0 s=38
             repro/internal/sweep.Run.func1 /repo/internal/sweep/sweep.go:110:0 s=100
     7: 0x410001 M=1 runtime.gcDrain /go/src/runtime/mgcmark.go:1200:0 s=1100
     8: 0x410002 M=1 runtime.gcBgMarkWorker /go/src/runtime/mgc.go:1400:0 s=1300
     9: 0x4b0001 M=1 main.(*counter).Emit /repo/perfbench/count.go:40:0 s=38
    10: 0x4a0004 M=1 repro/internal/upc.(*Runtime).put /repo/internal/upc/put.go:10:0 s=5
    11: 0x4a0005 M=1 
Mappings
1: 0x400000/0x5a5000/0x0 /repo/.bench_build/perfbench  [FN]
`

func TestFoldRaw(t *testing.T) {
	f, err := foldRaw(rawProfile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"apps":       30000000, // stdlib leaf charged to its repository caller
		"fabric":     20000000,
		"trace":      40000000, // inlined frame inside a runtime location
		"go_runtime": 10000000, // GC worker: no repository frame
		"bench":      50000000, // the benchmark's own sink, above upc
	}
	var sum int64
	for _, l := range layers {
		if f.ns[l] != want[l] {
			t.Errorf("layer %s: %d ns, want %d", l, f.ns[l], want[l])
		}
		sum += f.ns[l]
	}
	if f.totalNS != 150000000 || f.samples != 5 {
		t.Errorf("total %d ns over %d samples, want 150000000 over 5", f.totalNS, f.samples)
	}
	if sum != f.totalNS {
		t.Errorf("per-layer sum %d != profile total %d", sum, f.totalNS)
	}
	if s := f.seconds("trace"); s != 0.04 {
		t.Errorf("trace seconds %g, want 0.04", s)
	}
}

func TestFoldRawRejectsNonCPU(t *testing.T) {
	if _, err := foldRaw("Samples:\nsamples/count space/bytes\n 1 2: 1\n"); err == nil {
		t.Error("a profile without cpu/nanoseconds folded without error")
	}
	if _, err := foldRaw("garbage\n"); err == nil {
		t.Error("text without a Samples section folded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct{ fn, want string }{
		{"repro/internal/apps/ft.runUPC", "apps"},
		{"repro/internal/sim.(*Engine).handoff", "sim"},
		{"repro/internal/sim.(*FreeList[go.shape.int]).Get", "sim"},
		{"repro/internal/report.Table", "other"},
		{"main.runRep.func1", "bench"},
		{"runtime.mallocgc", ""},
		{"crypto/sha1.Sum", ""},
	} {
		fn, want := c.fn, c.want
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
