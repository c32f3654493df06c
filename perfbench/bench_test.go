package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"repro/internal/apps/uts"
)

// Every tree a seed can pick has the size and the sweep park count the
// table promises.
func TestTreeTable(t *testing.T) {
	w, err := workloadByName("uts-steal")
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range utsTrees {
		spec := uts.Small(treeSize)
		spec.Seed = ts
		nodes, _ := spec.CountSequential()
		if dev := float64(nodes)/treeSize - 1; dev < -treeTolerance || dev > treeTolerance {
			t.Errorf("tree seed %d: %d nodes, %.1f%% off %d", ts, nodes, 100*dev, treeSize)
		}
		if testing.Short() {
			continue
		}
		r := runRep(w, w.jobs(input{seed: 1, tree: spec, treeNodes: nodes}), repOpts{count: true})
		for _, err := range r.errs {
			if err != nil {
				t.Fatalf("tree seed %d: %v", ts, err)
			}
		}
		if dev := float64(r.counts.parks)/treeParks - 1; dev < -treeTolerance || dev > treeTolerance {
			t.Errorf("tree seed %d: sweep parks %d, %.1f%% off %d", ts, r.counts.parks, 100*dev, treeParks)
		}
	}
}

func TestMakeInputIsSeeded(t *testing.T) {
	w, _ := workloadByName("uts-observed")
	a, b := makeInput(w, 7), makeInput(w, 7)
	if a.tree != b.tree || a.treeNodes != b.treeNodes || a.seed != 7 {
		t.Fatalf("seed 7 gave %+v and %+v", a, b)
	}
	seen := map[uint32]bool{}
	for s := int64(1); s <= 40; s++ {
		in := makeInput(w, s)
		seen[in.tree.Seed] = true
	}
	if len(seen) < len(utsTrees)/2 {
		t.Fatalf("40 seeds reached only %d of %d trees", len(seen), len(utsTrees))
	}
}

// BENCHMARK.json names exactly the workloads and metrics the benchmark
// reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDecl struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDecl `json:"end_to_end"`
		PerLayer  []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.name, w.why)
		}
	}

	plain := &rep{wall: time.Second, appRun: []time.Duration{time.Second}}
	traced := &rep{wall: time.Second, appRun: []time.Duration{time.Second}, counts: newCounter(),
		outcomes: []outcome{{}}}
	b := &bench{w: workloads[0]}
	for _, c := range []struct {
		decl []metricDecl
		got  metricSet
	}{
		{spec.EndToEnd, endToEnd([]float64{1}, []float64{1}, 1)},
		{spec.PerLayer, layerMetrics(b, []*rep{plain}, []*rep{traced}, &folded{ns: map[string]int64{}})},
	} {
		if len(c.decl) != len(c.got) {
			t.Errorf("BENCHMARK.json declares %d metrics, the benchmark reports %d", len(c.decl), len(c.got))
		}
		for _, d := range c.decl {
			m, ok := c.got[d.Name]
			if !ok {
				t.Errorf("metric %s is declared but not reported", d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("metric %s: unit %q declared, %q reported", d.Name, d.Unit, m.Unit)
			}
		}
	}
}
