package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/server"
	"repro/internal/sim"
)

// Direct timed calls into single layers, bypassing the HTTP edge: the
// per-layer numbers no span or registry instrument carries.

// sink keeps measured kernel results alive.
var sink float64

// measure runs f once and returns its wall time and heap allocations.
func measure(f func() error) (time.Duration, uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return d, m1.Mallocs - m0.Mallocs, err
}

// runProbes measures the engine, model, core and sim layers directly.
func runProbes(ctx context.Context, cfg config) (map[string]float64, error) {
	v := make(map[string]float64)
	tmmSpec := server.ModelSpec{App: "tmm"}
	tmm, err := catalog.ResolveModel(tmmSpec)
	if err != nil {
		return nil, err
	}
	cm, err := catalog.Resolve(tmmSpec)
	if err != nil {
		return nil, err
	}
	space, err := dse.SpaceFor(tmm, sweepPer)
	if err != nil {
		return nil, err
	}
	points := make([][]float64, space.Size())
	for i := range points {
		points[i] = space.Point(i)
	}
	n := float64(len(points))

	// engine: a whole sweep slab through a fresh engine (cold: every point
	// computed and inserted), then again (warm: every point a cache hit).
	var cold, coldAllocs, warm, warmAllocs []float64
	for rep := 0; rep < 3; rep++ {
		eng := engine.New(engine.Options{})
		ev := dse.NewFamilyEvaluator(tmm)
		out := make([]float64, len(points))
		for pass := 0; pass < 2; pass++ {
			d, allocs, err := measure(func() error { return eng.EvaluateBatch(ctx, ev, points, out) })
			if err != nil {
				return nil, err
			}
			if pass == 0 {
				cold, coldAllocs = append(cold, float64(d)/n), append(coldAllocs, float64(allocs)/n)
			} else {
				warm, warmAllocs = append(warm, float64(d)/n), append(warmAllocs, float64(allocs)/n)
			}
		}
	}
	v["engine.cold_ns_per_point"] = median(cold)
	v["engine.cold_allocs_per_point"] = median(coldAllocs)
	v["engine.warm_ns_per_point"] = median(warm)
	v["engine.warm_allocs_per_point"] = median(warmAllocs)

	// model: build and compile a never-seen c2bound model.
	var compile []float64
	app := appProfiles["tmm"]()
	for rep := 0; rep < 50; rep++ {
		a := app
		a.Fseq = app.Fseq * (1 + float64(rep)/100)
		d, _, err := measure(func() error {
			m, err := model.New(model.FamilyC2Bound, model.Config{Chip: cm.Chip, App: a})
			if err != nil {
				return err
			}
			_, err = m.Compile()
			return err
		})
		if err != nil {
			return nil, err
		}
		compile = append(compile, float64(d)/float64(time.Microsecond))
	}
	v["model.compile_us"] = median(compile)

	// core: each family's compiled kernel over its sweep grid.
	for _, f := range serveFamilies {
		spec := server.ModelSpec{Schema: server.CatalogSchema, App: "tmm", Family: f.name}
		m, err := catalog.ResolveModel(spec)
		if err != nil {
			return nil, err
		}
		per := f.per
		if per < 0 {
			per = sweepPer
		}
		fs, err := dse.SpaceFor(m, per)
		if err != nil {
			return nil, err
		}
		k, err := m.Compile()
		if err != nil {
			return nil, err
		}
		pts := make([][]float64, fs.Size())
		for i := range pts {
			pts[i] = fs.Point(i)
		}
		var perPoint []float64
		for rep := 0; rep < 3; rep++ {
			start, evals := time.Now(), 0
			for time.Since(start) < 20*time.Millisecond {
				for _, p := range pts {
					sink += k.TimeAt(p)
				}
				evals += len(pts)
			}
			perPoint = append(perPoint, float64(time.Since(start))/float64(evals))
		}
		v["core.kernel_ns_per_point."+f.name] = median(perPoint)
	}

	// core: the analytic optimizer on a fresh engine; its probes are the
	// engine requests it makes.
	eng := engine.New(engine.Options{})
	d, _, err := measure(func() error {
		_, err := cm.OptimizeCtx(ctx, core.Options{Engine: eng})
		return err
	})
	if err != nil {
		return nil, err
	}
	v["core.optimize_direct_ms"] = ms(d)
	v["core.optimize_probes"] = float64(eng.Stats().Requests)

	// sim: one simulation of aps-sim's size at a mid-space design.
	ev, err := catalog.Evaluator(cm, server.EvaluatorSpec{Kind: "sim", TotalRefs: cfg.apsRefs})
	if err != nil {
		return nil, err
	}
	se := ev.(*dse.SimEvaluator)
	apsSpace, err := dse.ReducedSpace(cm.Chip, apsPer)
	if err != nil {
		return nil, err
	}
	scfg, err := se.Config(apsSpace.Point(apsSpace.Size() / 2))
	if err != nil {
		return nil, err
	}
	d, _, err = measure(func() error {
		_, err := sim.RunWorkloadCountsCtx(ctx, scfg, se.Workload, se.WSBytes, se.MeanGap, dse.SplitRefs(se.TotalRefs, scfg.Cores), se.Seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	v["sim.direct_run_ms"] = ms(d)
	return v, nil
}

// probeEvalOnPeer times direct peer-eval exchanges from the coordinator
// to the other peer, warm after the first.
func probeEvalOnPeer(ctx context.Context, st *stack, cfg config) (map[string]float64, error) {
	spec := server.ModelSpec{App: "tmm"}
	m, err := catalog.ResolveModel(spec)
	if err != nil {
		return nil, err
	}
	space, err := dse.SpaceFor(m, sweepPer)
	if err != nil {
		return nil, err
	}
	pts := make([][]float64, min(cfg.peerPoints, space.Size()))
	for i := range pts {
		pts[i] = space.Point(i)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req := cluster.PeerEvalRequest{Model: raw, Points: pts}
	var per []float64
	for rep := 0; rep < 21; rep++ {
		start := time.Now()
		outs, err := st.peers[0].cl.EvalOnPeer(ctx, st.peers[1].name, req)
		if err != nil {
			return nil, err
		}
		if len(outs) != len(pts) {
			return nil, fmt.Errorf("EvalOnPeer returned %d outcomes for %d points", len(outs), len(pts))
		}
		if rep > 0 {
			per = append(per, float64(time.Since(start))/float64(time.Microsecond)/float64(len(pts)))
		}
	}
	return map[string]float64{"cluster.evalonpeer_us_per_point": median(per)}, nil
}
