package robust

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRetryDoSucceedsAfterTransients(t *testing.T) {
	rng := NewRNG(1)
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	calls := 0
	attempts, err := p.Do(context.Background(), rng, func(context.Context) error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if attempts != 3 || calls != 3 {
		t.Fatalf("attempts = %d, calls = %d, want 3", attempts, calls)
	}
}

func TestRetryDoExhaustsBudget(t *testing.T) {
	rng := NewRNG(2)
	p := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	boom := errors.New("always broken")
	attempts, err := p.Do(context.Background(), rng, func(context.Context) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the operation's last error", err)
	}
	if attempts != 4 {
		t.Fatalf("attempts = %d, want 4", attempts)
	}
}

func TestRetryDoNeverRetriesContextErrors(t *testing.T) {
	rng := NewRNG(3)
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: time.Microsecond}
	calls := 0
	ctx, cancel := context.WithCancel(context.Background())
	attempts, err := p.Do(ctx, rng, func(context.Context) error {
		calls++
		cancel()
		return context.Canceled
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 1 || calls != 1 {
		t.Fatalf("context error was retried: attempts=%d calls=%d", attempts, calls)
	}
}

func TestRetryDoCancelDuringBackoff(t *testing.T) {
	rng := NewRNG(4)
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := p.Do(ctx, rng, func(context.Context) error { return errors.New("transient") })
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do did not return promptly after cancel during backoff")
	}
}

func TestRetryDelayBoundedAndJittered(t *testing.T) {
	rng := NewRNG(5)
	p := DefaultRetry()
	for attempt := 1; attempt < 20; attempt++ {
		d := p.Delay(attempt, rng)
		if d < 0 || d > 2*p.MaxDelay {
			t.Fatalf("delay(%d) = %v outside [0, 2·max]", attempt, d)
		}
	}
	// With zero jitter the schedule is deterministic and capped.
	flat := RetryPolicy{BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2, Jitter: 0, MaxAttempts: 10}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond}
	for i, w := range want {
		if d := flat.Delay(i+1, rng); d != w {
			t.Fatalf("delay(%d) = %v, want %v", i+1, d, w)
		}
	}
}

func TestFaultyEvaluatorInjectsAtConfiguredRate(t *testing.T) {
	inner := EvaluatorFunc(func(_ context.Context, p []float64) (float64, error) { return p[0], nil })
	f := NewFaulty(inner, 99)
	f.PFail = 0.3
	const n = 5000
	fails := 0
	for i := 0; i < n; i++ {
		_, err := f.EvaluateCtx(context.Background(), []float64{1})
		if err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("unexpected error type: %v", err)
			}
			fails++
		}
	}
	rate := float64(fails) / n
	if rate < 0.25 || rate > 0.35 {
		t.Fatalf("observed failure rate %.3f, want ≈ 0.30", rate)
	}
	calls, failures, panics, stalls := f.Counts()
	if calls != n || failures != int64(fails) || panics != 0 || stalls != 0 {
		t.Fatalf("counts = (%d, %d, %d, %d)", calls, failures, panics, stalls)
	}
}

func TestFaultyEvaluatorStallRespectsContext(t *testing.T) {
	inner := EvaluatorFunc(func(context.Context, []float64) (float64, error) { return 1, nil })
	f := NewFaulty(inner, 11)
	f.PStall = 1
	f.StallFor = time.Hour
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := f.EvaluateCtx(ctx, nil)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("stalled call returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("stalled call ignored cancellation")
	}
}

func TestRNGDeterministicAndConcurrencySafe(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	r := NewRNG(1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if f := r.Float64(); f < 0 || f >= 1 {
					t.Errorf("Float64 out of range: %v", f)
					return
				}
			}
		}()
	}
	wg.Wait()
}
