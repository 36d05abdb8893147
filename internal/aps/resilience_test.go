package aps

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// TestRunCtxMatchesRun checks that a plain evaluator lifted by
// dse.WithContext and the same evaluator run natively (ctx-aware and
// batched) reach the same optimum with the same simulation count.
func TestRunCtxMatchesRun(t *testing.T) {
	m, space, eval := testSetup(t, 4)
	opts := Options{Optimize: core.Options{MaxN: 64}}
	plain, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), opts)
	if err != nil {
		t.Fatalf("RunCtx (plain evaluator): %v", err)
	}
	ctxRes, err := RunCtx(context.Background(), m, space, eval.(dse.CtxEvaluator), opts)
	if err != nil {
		t.Fatalf("RunCtx: %v", err)
	}
	if plain.BestValue != ctxRes.BestValue || plain.Simulations != ctxRes.Simulations {
		t.Fatalf("RunCtx diverged: best %v vs %v, sims %d vs %d",
			ctxRes.BestValue, plain.BestValue, ctxRes.Simulations, plain.Simulations)
	}
}

func TestRunCtxWithFaultInjectionFindsSameOptimum(t *testing.T) {
	m, space, eval := testSetup(t, 4)
	opts := Options{Optimize: core.Options{MaxN: 64}}
	clean, err := RunCtx(context.Background(), m, space, dse.WithContext(eval), opts)
	if err != nil {
		t.Fatalf("clean RunCtx: %v", err)
	}

	faulty := robust.NewFaulty(dse.WithContext(eval), 0xbad5eed)
	faulty.PFail = 0.15
	faulty.PPanic = 0.05 // 20% transient faults on every simulated point
	fopts := opts
	fopts.Engine = engine.New(engine.Options{Retry: robust.RetryPolicy{
		MaxAttempts: 12, BaseDelay: time.Microsecond, MaxDelay: 50 * time.Microsecond,
	}})
	got, err := RunCtx(context.Background(), m, space, faulty, fopts)
	if err != nil {
		t.Fatalf("faulty RunCtx: %v", err)
	}
	if math.Float64bits(got.BestValue) != math.Float64bits(clean.BestValue) {
		t.Fatalf("fault-injected optimum %v != clean optimum %v", got.BestValue, clean.BestValue)
	}
	if got.BestIdx != clean.BestIdx {
		t.Fatalf("fault-injected best index %d != clean %d", got.BestIdx, clean.BestIdx)
	}
	if got.Report.Retries == 0 {
		t.Fatal("no retries despite 20% fault injection")
	}
	if len(got.Report.Failed) != 0 {
		t.Fatalf("permanent failures under transient faults: %+v", got.Report.Failed)
	}
}

func TestRunCtxCancelledBeforeSweep(t *testing.T) {
	m, space, eval := testSetup(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunCtx(ctx, m, space, dse.WithContext(eval), Options{Optimize: core.Options{MaxN: 64}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunCtxCancelMidSweepReturnsPartialReport(t *testing.T) {
	m, space, _ := testSetup(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	inner := dse.NewFamilyEvaluator(model.NewC2Bound(m))
	var calls atomic.Int64 // the run's engine calls eval from several workers
	eval := robust.EvaluatorFunc(func(c context.Context, p []float64) (float64, error) {
		if calls.Add(1) > 4 {
			cancel()
		}
		return inner.EvaluateCtx(c, p)
	})
	res, err := RunCtx(ctx, m, space, eval, Options{Optimize: core.Options{MaxN: 64}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !res.Report.Canceled {
		t.Fatal("report does not mark cancellation")
	}
	if len(res.Report.Pending) == 0 {
		t.Fatal("no pending indices recorded for the interrupted slice")
	}
}
