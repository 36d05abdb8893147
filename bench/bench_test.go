package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

// benchmarkJSON is the part of ../BENCHMARK.json the harness must agree
// with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricDefsMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the harness has %d", names, len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; d != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; d != (metricDef{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, harness %+v", i, m, d)
		}
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := &obs.Span{ID: 1, Start: 0, End: 100 * ms}
	children := []*obs.Span{
		{ID: 2, Parent: 1, Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Start: 30 * ms, End: 70 * ms},  // overlaps 2
		{ID: 4, Parent: 1, Start: 90 * ms, End: 120 * ms}, // outlives the parent
	}
	// Covered: [10, 70) and [90, 100); subtracting durations would give
	// 100 − 40 − 40 − 30 = −10.
	if got := selfTime(parent, children); got != 30*ms {
		t.Fatalf("self time %v, want 30ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("self time without children %v, want 100ms", got)
	}
}

func TestAttributionSumsToRootDuration(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.Span{
		{ID: 1, Name: "bench.request", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "server.sweep", Start: 5 * ms, End: 95 * ms},
		{ID: 3, Parent: 2, Name: "engine.eval", Start: 10 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "engine.eval", Start: 20 * ms, End: 80 * ms},
		{ID: 5, Parent: 4, Name: "sim.run", Start: 30 * ms, End: 40 * ms},
	}
	sum := summarize(spans)
	total := 0.0
	for _, v := range sum.selfMS {
		total += v
	}
	if d := total - 100; d > 1e-9 || d < -1e-9 {
		t.Fatalf("attributed times %v sum to %v ms, want 100", sum.selfMS, total)
	}
	// server.sweep keeps the 20 ms its children leave uncovered.
	if got := sum.selfMS["server.sweep"]; got < 20-1e-9 || got > 20+1e-9 {
		t.Fatalf("server.sweep share %v ms, want 20", got)
	}
}

// tinyConfig runs each workload in well under a second of measurement.
func tinyConfig() config {
	cfg := defaultConfig()
	cfg.seed = 7
	cfg.seconds = 0.2
	cfg.warm = 0.1
	cfg.setups = 2
	cfg.batchPoints = 4
	cfg.apsRefs = 2000
	cfg.peerPoints = 16
	return cfg
}

// metricNames lists a report's metric names, sorted.
func metricNames(r report) []string {
	var names []string
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func defNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	sort.Strings(names)
	return names
}

func TestWorkloadsEndToEndTiny(t *testing.T) {
	want := defNames(endToEnd)
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			rep, err := endToEndRun(context.Background(), w, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.errs)
			}
			if got := metricNames(rep); len(got) != len(want) || fmtNames(got) != fmtNames(want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			for n, m := range rep.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestLayerRunTiny(t *testing.T) {
	want := defNames(perLayer)
	for _, name := range []string{"sweep-cold", "cluster-sweep"} {
		t.Run(name, func(t *testing.T) {
			rep, err := layerRun(context.Background(), workloads[name], tinyConfig(), "")
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct {
				t.Fatalf("%d of %d failed: %v", rep.Failed, rep.Attempted, rep.errs)
			}
			if got := metricNames(rep); fmtNames(got) != fmtNames(want) {
				t.Fatalf("metrics %v, want %v", got, want)
			}
			if v := rep.Metrics["engine.eval.self_ms"].Value; v <= 0 && name == "sweep-cold" {
				t.Errorf("engine.eval.self_ms = %v, want > 0 on a cold sweep", v)
			}
			if v := rep.Metrics["cluster.fallback_points"].Value; v != 0 {
				t.Errorf("cluster.fallback_points = %v, want 0", v)
			}
		})
	}
}

func fmtNames(names []string) string {
	b, _ := json.Marshal(names)
	return string(b)
}
