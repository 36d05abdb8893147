package robust

import (
	"context"
	"errors"
	"time"
)

// RetryPolicy bounds how a transiently failing operation is re-attempted:
// exponential backoff starting at BaseDelay, capped at MaxDelay, with a
// uniform jitter fraction to decorrelate concurrent workers. The zero
// value selects the defaults documented on each field.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 3). A value of 1 disables retries.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 1ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (default 250ms).
	MaxDelay time.Duration
	// Multiplier is the backoff growth factor (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay drawn uniformly at random
	// (default 0.5): delay' = delay × (1 − Jitter + Jitter·U[0,2)).
	Jitter float64
}

// DefaultRetry returns the policy used by the sweep pipeline when the
// caller leaves the zero value.
func DefaultRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 250 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	d := DefaultRetry()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = d.Multiplier
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		p.Jitter = d.Jitter
	}
	return p
}

// Delay returns the jittered backoff before attempt number `attempt`
// (attempt 1 is the first retry). rng may be nil to disable jitter.
func (p RetryPolicy) Delay(attempt int, rng *RNG) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= p.Multiplier
		if d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if rng != nil && p.Jitter > 0 {
		d *= 1 - p.Jitter + p.Jitter*2*rng.Float64()
	}
	return time.Duration(d)
}

// Do runs op until it succeeds, the attempt budget is exhausted, or the
// context is done. It returns the number of attempts made and the last
// error (nil on success). Context errors are never retried: cancellation
// must propagate within one evaluator call.
func (p RetryPolicy) Do(ctx context.Context, rng *RNG, op func(ctx context.Context) error) (int, error) {
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			if err == nil {
				err = cerr
			}
			return attempt - 1, err
		}
		err = op(ctx)
		if err == nil {
			return attempt, nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
			return attempt, err
		}
		if attempt >= p.MaxAttempts {
			return attempt, err
		}
		if !sleep(ctx, p.Delay(attempt, rng)) {
			// Cancelled mid-backoff: surface the context error so callers
			// classify this as cancellation, not an evaluation failure.
			return attempt, ctx.Err()
		}
	}
}

// sleep waits for d or until ctx is done, reporting whether the full
// delay elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
