package main

import "repro/internal/obs"

// metricDef names one reported metric. The lists below are the metric
// sections of BENCHMARK.json; the test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the service sees; every workload reports
// all of them (see README.md for what a "request" and a "point" are in
// each workload).
var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"points_per_s", "1/s", "higher"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// spanLayers are the span names whose attributed time per request the
// traced half reports as "<name>.self_ms"; bench.request's own share is
// reported as bench.transport_ms.
var spanLayers = []string{
	"bench.serve",
	"server.evaluate", "server.batch", "server.sweep", "server.aps",
	"dse.sweep", "dse.batch", "engine.eval",
	"aps.run", "aps.optimize", "core.optimize", "aps.grid-snap", "aps.slice",
	"sim.run", "sim.core",
	"cluster.peer_sweep", "cluster.peer_eval",
}

// perLayer is every per-layer metric; a layer a workload never reaches
// reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"bench.p50_ms.low", "ms", "lower"},
		{"bench.p50_ms.mid", "ms", "lower"},
		{"bench.p50_ms.high", "ms", "lower"},
		{"bench.p99_ms.low", "ms", "lower"},
		{"bench.p99_ms.mid", "ms", "lower"},
		{"bench.p99_ms.high", "ms", "lower"},
		{"bench.max_rate_rps", "1/s", "higher"},
		{"bench.gen_lag_ms.p99", "ms", "lower"},
		{"bench.invalid_steps", "count", "lower"},
		{"bench.transport_ms", "ms", "lower"},
		{"trace.overhead_pct", "%", "lower"},
		{"trace.p50_ms", "ms", "lower"},
		{"trace.layer_sum_ms", "ms", "lower"},
		{"trace.other.self_ms", "ms", "lower"},
		{"trace.spans", "count", "lower"},
		{"server.serve_ms.p50", "ms", "lower"},
		{"server.serve_ms.p99", "ms", "lower"},
		{"server.handler_ms.mean", "ms", "lower"},
		{"server.admission_wait_ms.mean", "ms", "lower"},
		{"server.requests", "count", "higher"},
		{"server.shed", "count", "lower"},
		{"server.errors", "count", "lower"},
		{"engine.cache_hit_ratio", "ratio", "higher"},
		{"engine.requests", "count", "higher"},
		{"engine.evaluations", "count", "lower"},
		{"engine.dedups", "count", "higher"},
		{"engine.evictions", "count", "lower"},
		{"engine.cold_ns_per_point", "ns", "lower"},
		{"engine.cold_allocs_per_point", "count", "lower"},
		{"engine.warm_ns_per_point", "ns", "lower"},
		{"engine.warm_allocs_per_point", "count", "lower"},
		{"model.compile_us", "us", "lower"},
		{"core.kernel_ns_per_point.c2bound", "ns", "lower"},
		{"core.kernel_ns_per_point.gpu", "ns", "lower"},
		{"core.kernel_ns_per_point.commsync", "ns", "lower"},
		{"core.kernel_ns_per_point.sqrtm", "ns", "lower"},
		{"core.optimize_direct_ms", "ms", "lower"},
		{"core.optimize_probes", "count", "lower"},
		{"dse.points_completed", "count", "higher"},
		{"aps.simulations", "count", "lower"},
		{"sim.runs", "count", "lower"},
		{"sim.instructions_per_s", "1/s", "higher"},
		{"sim.direct_run_ms", "ms", "lower"},
		{"cluster.peer_exchanges", "count", "lower"},
		{"cluster.peer_ms.mean", "ms", "lower"},
		{"cluster.peer_errors", "count", "lower"},
		{"cluster.peer_bytes_per_point", "B", "lower"},
		{"cluster.remote_points", "count", "higher"},
		{"cluster.local_points", "count", "higher"},
		{"cluster.fallback_points", "count", "lower"},
		{"cluster.remote_hit_ratio", "ratio", "higher"},
		{"cluster.remote_serve_ms.mean", "ms", "lower"},
		{"cluster.evalonpeer_us_per_point", "us", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.gc_pause_ms.total", "ms", "lower"},
	}
	for _, name := range spanLayers {
		defs = append(defs, metricDef{name + ".self_ms", "ms", "lower"})
	}
	return defs
}()

// Registry instruments the untraced half reads, summed over peers.
var (
	registryCounters = []string{
		"server_requests_total", "server_shed_total", "server_errors_total",
		"engine_requests_total", "engine_evaluations_total", "engine_cache_hits_total",
		"engine_cache_misses_total", "engine_dedups_total", "engine_evictions_total",
		"dse_points_completed_total", "sim_runs_total",
		"cluster_peer_requests_total", "cluster_peer_errors_total", "cluster_remote_points_total",
		"cluster_local_points_total", "cluster_fallback_points_total", "cluster_remote_hits_total",
	}
	registryHistograms = []string{
		"server_request_seconds",
		obs.Labeled("tenant_queue_seconds", "tenant", "anonymous"),
		"cluster_peer_seconds",
	}
)

// readRegistries snapshots the instruments of every peer, summed.
func readRegistries(st *stack) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range st.peers {
		for _, name := range registryCounters {
			out[name] += float64(p.reg.Counter(name).Value())
		}
		for _, name := range registryHistograms {
			h := p.reg.Histogram(name, obs.LatencyBuckets())
			out[name+"_sum"] += h.Sum()
			out[name+"_count"] += float64(h.Count())
		}
	}
	return out
}

// sumCounter reads one counter summed over the peers.
func sumCounter(st *stack, name string) float64 {
	var n float64
	for _, p := range st.peers {
		n += float64(p.reg.Counter(name).Value())
	}
	return n
}

// layerMetrics assembles the per-layer metrics from the untraced half a
// (registry, runtime and rate-step deltas over its timed requests), the
// traced half's spans and the direct probes.
func layerMetrics(a, b *phase, spans []obs.Span, wireBytes int64, probes map[string]float64) map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		v[d.name] = 0
	}
	delta := func(name string) float64 { return a.reg1[name] - a.reg0[name] }
	meanMS := func(h string) float64 { return 1000 * ratio(delta(h+"_sum"), delta(h+"_count")) }

	for _, s := range a.steps {
		v["bench.p50_ms."+s.name] = s.p50
		v["bench.p99_ms."+s.name] = s.p99
		v["bench.gen_lag_ms.p99"] = max(v["bench.gen_lag_ms.p99"], s.lagP99)
		if !s.valid() {
			v["bench.invalid_steps"]++
		}
		if s.meets() {
			v["bench.max_rate_rps"] = max(v["bench.max_rate_rps"], s.rps)
		}
	}

	ops := float64(len(a.samples))
	v["runtime.alloc_bytes_per_op"] = ratio(float64(a.mem1.TotalAlloc-a.mem0.TotalAlloc), ops)
	v["runtime.gc_pause_ms.total"] = float64(a.mem1.PauseTotalNs-a.mem0.PauseTotalNs) / 1e6

	v["server.handler_ms.mean"] = meanMS("server_request_seconds")
	v["server.admission_wait_ms.mean"] = meanMS(registryHistograms[1])
	v["server.requests"] = delta("server_requests_total")
	v["server.shed"] = delta("server_shed_total")
	v["server.errors"] = delta("server_errors_total")

	hits, misses := delta("engine_cache_hits_total"), delta("engine_cache_misses_total")
	v["engine.cache_hit_ratio"] = ratio(hits, hits+misses)
	v["engine.requests"] = delta("engine_requests_total")
	v["engine.evaluations"] = delta("engine_evaluations_total")
	v["engine.dedups"] = delta("engine_dedups_total")
	v["engine.evictions"] = delta("engine_evictions_total")

	v["dse.points_completed"] = delta("dse_points_completed_total")
	v["sim.runs"] = delta("sim_runs_total")
	v["aps.simulations"] = float64(a.simulations)

	v["cluster.peer_exchanges"] = delta("cluster_peer_requests_total")
	v["cluster.peer_ms.mean"] = meanMS("cluster_peer_seconds")
	v["cluster.peer_errors"] = delta("cluster_peer_errors_total")
	v["cluster.remote_points"] = delta("cluster_remote_points_total")
	v["cluster.local_points"] = delta("cluster_local_points_total")
	v["cluster.fallback_points"] = delta("cluster_fallback_points_total")
	v["cluster.remote_hit_ratio"] = ratio(delta("cluster_remote_hits_total"), delta("cluster_remote_points_total"))
	// Wire bytes cover the whole traced half, so divide by its whole
	// remote-point count.
	v["cluster.peer_bytes_per_point"] = ratio(float64(wireBytes), b.reg1["cluster_remote_points_total"])

	sum := summarize(spans)
	v["trace.spans"] = float64(len(spans))
	v["trace.p50_ms"] = sum.p50
	v["trace.overhead_pct"] = 100 * (ratio(median(latencies(b.samples)), median(latencies(a.samples))) - 1)
	v["bench.transport_ms"] = sum.selfMS["bench.request"]
	layerSum := 0.0
	for name, t := range sum.selfMS {
		layerSum += t
		if _, ok := v[name+".self_ms"]; ok {
			v[name+".self_ms"] = t
		} else if name != "bench.request" {
			v["trace.other.self_ms"] += t
		}
	}
	v["trace.layer_sum_ms"] = layerSum
	v["server.serve_ms.p50"] = percentile(sum.serve, 50)
	v["server.serve_ms.p99"] = percentile(sum.serve, 99)
	v["cluster.remote_serve_ms.mean"] = mean(sum.remoteServe)
	v["sim.instructions_per_s"] = ratio(sum.simInstr, sum.simSeconds)

	for k, x := range probes {
		v[k] = x
	}
	return v
}
