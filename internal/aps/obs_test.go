package aps

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/obs"
)

// TestEngineMetricsBitExact runs APS twice on one instrumented engine (a
// cold pass and a warm, cache-served pass) and demands that every engine
// counter in the metrics registry equals the corresponding engine.Stats
// field exactly — Stats must read the registry's instruments and
// nothing else.
func TestEngineMetricsBitExact(t *testing.T) {
	m := core.Model{Chip: chip.DefaultConfig(), App: core.FluidanimateApp()}
	space, err := dse.ReducedSpace(m.Chip, 3)
	if err != nil {
		t.Fatalf("ReducedSpace: %v", err)
	}

	tr := obs.NewTracer(1 << 13)
	reg := obs.NewRegistry()
	eng := engine.New(engine.Options{Workers: 2, Tracer: tr, Metrics: reg})
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), reg)

	eval := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	opts := Options{Engine: eng, Optimize: core.Options{MaxN: 64}}
	if _, err := RunCtx(ctx, m, space, eval, opts); err != nil {
		t.Fatalf("cold APS run: %v", err)
	}
	warm, err := RunCtx(ctx, m, space, eval, opts)
	if err != nil {
		t.Fatalf("warm APS run: %v", err)
	}
	if warm.Engine.CacheHits == 0 {
		t.Fatalf("warm run hit the cache 0 times: %+v", warm.Engine)
	}

	st := eng.Stats()
	for _, c := range []struct {
		metric string
		want   uint64
	}{
		{"engine_requests_total", st.Requests},
		{"engine_evaluations_total", st.Evaluations},
		{"engine_cache_hits_total", st.CacheHits},
		{"engine_cache_misses_total", st.CacheMisses},
		{"engine_dedups_total", st.Dedups},
		{"engine_panics_total", st.Panics},
		{"engine_retries_total", st.Retries},
		{"engine_failures_total", st.Failures},
		{"engine_evictions_total", st.Evictions},
	} {
		if got := reg.Counter(c.metric).Value(); got != c.want {
			t.Errorf("%s = %d, engine.Stats says %d", c.metric, got, c.want)
		}
	}
	if got := reg.Gauge("engine_inflight").Value(); got != 0 {
		t.Errorf("engine_inflight = %d after the runs, want 0", got)
	}
	if got := reg.Histogram("engine_eval_seconds", nil).Count(); got != st.Evaluations {
		t.Errorf("engine_eval_seconds count = %d, want every raw evaluation (%d)", got, st.Evaluations)
	}

	// The staged spans must be present and the export loadable.
	names := map[string]int{}
	for _, sp := range tr.Snapshot() {
		names[sp.Name]++
	}
	for _, want := range []string{"aps.run", "aps.optimize", "aps.grid-snap", "aps.slice", "dse.sweep", "dse.batch", "engine.eval"} {
		if names[want] == 0 {
			t.Errorf("missing span %q (have %v)", want, names)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not load: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace export")
	}
}
