package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/robust"
)

// fastRetry retries immediately so the chain tests stay fast.
func fastRetry(attempts int) robust.RetryPolicy {
	return robust.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Nanosecond, MaxDelay: time.Nanosecond, Multiplier: 1}
}

// TestRetryErrorChainKeepsSentinel pins the retry machinery's error-chain
// contract: the error an engine reports after exhausting its attempts must
// still satisfy errors.Is against the evaluator's own sentinel, through
// the guard, the retry loop and any %w layers the evaluator added.
func TestRetryErrorChainKeepsSentinel(t *testing.T) {
	sentinel := errors.New("backend unavailable")
	ev := robust.EvaluatorFunc(func(_ context.Context, p []float64) (float64, error) {
		return 0, fmt.Errorf("evaluating %v: %w", p, sentinel)
	})
	e := New(Options{Retry: fastRetry(3)})
	o := e.Do(context.Background(), ev, []float64{1})
	if o.Err == nil {
		t.Fatal("persistently failing evaluator reported success")
	}
	if o.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", o.Attempts)
	}
	if !errors.Is(o.Err, sentinel) {
		t.Fatalf("errors.Is lost the sentinel through the retry chain: %v", o.Err)
	}
}

// TestRetryErrorChainExposesPanicError checks the other chain the engine
// guarantees: a panicking evaluator surfaces as *robust.PanicError via
// errors.As, with the panic value and its stack preserved.
func TestRetryErrorChainExposesPanicError(t *testing.T) {
	ev := robust.EvaluatorFunc(func(_ context.Context, _ []float64) (float64, error) {
		panic("numeric invariant violated")
	})
	e := New(Options{Retry: fastRetry(2)})
	o := e.Do(context.Background(), ev, []float64{2})
	if o.Err == nil {
		t.Fatal("panicking evaluator reported success")
	}
	var pe *robust.PanicError
	if !errors.As(o.Err, &pe) {
		t.Fatalf("errors.As failed to extract *robust.PanicError from %v", o.Err)
	}
	if pe.Value != "numeric invariant violated" || len(pe.Stack) == 0 {
		t.Fatalf("panic not preserved: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	if !strings.Contains(pe.Error(), "numeric invariant violated") {
		t.Fatalf("Error() = %q does not name the panic value", pe.Error())
	}
	st := e.Stats()
	if st.Panics == 0 {
		t.Fatalf("panic not counted: %+v", st)
	}
}

// TestRetryErrorChainInjectedFault routes the fault injector through the
// engine and checks the robust.ErrInjected sentinel survives end to end.
func TestRetryErrorChainInjectedFault(t *testing.T) {
	inner := robust.EvaluatorFunc(func(_ context.Context, p []float64) (float64, error) {
		return p[0], nil
	})
	faulty := robust.NewFaulty(inner, 42)
	faulty.PFail = 1 // every draw fails
	e := New(Options{Retry: fastRetry(2)})
	o := e.Do(context.Background(), faulty, []float64{7})
	if o.Err == nil {
		t.Fatal("always-failing injector reported success")
	}
	if !errors.Is(o.Err, robust.ErrInjected) {
		t.Fatalf("errors.Is lost robust.ErrInjected: %v", o.Err)
	}
}

// TestFaultyEvaluatorPanicsAndGuardComposition runs the fault injector's
// panics through the engine's panic guard: with every call panicking, Do
// reports a *robust.PanicError and a NaN value, and each attempt is one
// injected and one counted panic.
func TestFaultyEvaluatorPanicsAndGuardComposition(t *testing.T) {
	inner := robust.EvaluatorFunc(func(context.Context, []float64) (float64, error) { return 7, nil })
	f := robust.NewFaulty(inner, 7)
	f.PPanic = 1 // every call panics
	e := New(Options{Retry: fastRetry(2)})
	o := e.Do(context.Background(), f, []float64{1})
	var pe *robust.PanicError
	if !errors.As(o.Err, &pe) || !math.IsNaN(o.Value) {
		t.Fatalf("outcome = %+v, want a *robust.PanicError and NaN", o)
	}
	if _, _, panics, _ := f.Counts(); panics != 2 || e.Stats().Panics != 2 || o.Attempts != 2 {
		t.Fatalf("injected %d panics, counted %d over %d attempts, want 2, 2 and 2", panics, e.Stats().Panics, o.Attempts)
	}
}
