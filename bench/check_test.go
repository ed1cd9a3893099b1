package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestCheckMode is `bench -check` as a test: one checked op per workload,
// traced and untraced, nothing timed. It is how tier-1 compiles and
// exercises the benchmark, so it must stay quick: about 2 s here, 11 s
// under the race detector. The duration is logged, not asserted — a
// wall-clock limit in tier-1 would fail on the machine's bad days.
func TestCheckMode(t *testing.T) {
	start := time.Now()
	if err := checkAll("", 1994); err != nil {
		t.Fatal(err)
	}
	t.Logf("check mode took %v", time.Since(start))
}

// TestTracedPassPopulatesItsLayers: a traced pass may only report metrics
// the perLayer table declares, and between them the four workloads must
// populate every one.
func TestTracedPassPopulatesItsLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a one-second traced pass per workload")
	}
	declared := map[string]bool{}
	for _, md := range perLayer {
		declared[md.name] = true
	}
	populated := map[string]bool{}
	for i := range workloadDefs {
		def := &workloadDefs[i]
		rep := traced(def, 1994, time.Second, t.TempDir())
		if rep.failed != 0 {
			t.Fatalf("%s: %d failed ops: %v", def.name, rep.failed, rep.firstErr)
		}
		for name, v := range rep.metrics {
			if !declared[name] {
				t.Errorf("%s reports undeclared layer metric %s", def.name, name)
			}
			if v != 0 {
				populated[name] = true
			}
		}
	}
	for _, md := range perLayer {
		if !populated[md.name] {
			t.Errorf("no workload populated %s", md.name)
		}
	}
}

// TestManifest keeps BENCHMARK.json equal to the tables in metrics.go and
// workloads.go.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []manifestMetric `json:"end_to_end"`
		PerLayer   []manifestMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &mf); err != nil {
		t.Fatal(err)
	}
	if len(mf.Workloads) != len(workloadDefs) {
		t.Fatalf("manifest lists %d workloads, the bench has %d", len(mf.Workloads), len(workloadDefs))
	}
	for i, w := range mf.Workloads {
		if w.Name != workloadDefs[i].name || w.Why != workloadDefs[i].why {
			t.Errorf("workload %d: manifest %q / %q, bench %q / %q", i, w.Name, w.Why, workloadDefs[i].name, workloadDefs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	compareMetrics(t, "end_to_end", mf.EndToEnd, endToEndMetrics, true)
	compareMetrics(t, "per_layer", mf.PerLayer, perLayer, false)
	if len(mf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(mf.PerLayer))
	}
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func compareMetrics(t *testing.T, section string, got []manifestMetric, want []metricDef, bounded bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: manifest lists %d metrics, the bench prints %d", section, len(got), len(want))
	}
	for i, md := range want {
		better := "lower"
		if md.higher {
			better = "higher"
		}
		g := got[i]
		if g.Name != md.name || g.Unit != md.unit || g.Better != better {
			t.Errorf("%s[%d]: manifest %s/%s/%s, bench %s/%s/%s", section, i, g.Name, g.Unit, g.Better, md.name, md.unit, better)
		}
		switch {
		case bounded && (g.Bound == nil || *g.Bound != md.bound):
			t.Errorf("%s: manifest bound %v, bench %v", md.name, g.Bound, md.bound)
		case !bounded && g.Bound != nil:
			t.Errorf("%s: a per-layer metric carries no bound", md.name)
		}
	}
}
