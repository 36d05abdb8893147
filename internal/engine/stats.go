package engine

import (
	"fmt"
	"time"
)

// Stats is a consistent-enough snapshot of the engine's registry
// instruments (each field is read atomically; the set is not a single
// atomic transaction, which is fine for monitoring). Engines built on
// one registry share the instruments, so each reports their combined
// traffic.
type Stats struct {
	// Requests is the number of evaluation requests received.
	Requests uint64 `json:"requests"`
	// Evaluations is the number of raw evaluator invocations, counting
	// every retry attempt — the "simulations spent" figure.
	Evaluations uint64 `json:"evaluations"`
	// CacheHits and CacheMisses account memoization lookups (fingerprinted
	// evaluators only).
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// Dedups counts requests served by waiting on a concurrent in-flight
	// computation of the same key.
	Dedups uint64 `json:"dedups"`
	// Panics is the number of evaluator panics isolated by the guard.
	Panics uint64 `json:"panics"`
	// Retries is the number of re-attempts after transient failures.
	Retries uint64 `json:"retries"`
	// Failures counts requests whose final outcome was an error (context
	// cancellations excluded).
	Failures uint64 `json:"failures"`
	// Evictions counts cache entries displaced by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// CacheEntries is the live number of memoized values.
	CacheEntries int `json:"cache_entries"`
	// WallTime is the cumulative wall-clock time spent inside evaluators,
	// the sum of engine_eval_seconds (summed across workers, so it
	// exceeds elapsed time under parallelism).
	WallTime time.Duration `json:"wall_time_ns"`
}

// Snapshot bundles the engine's static shape with its live Stats —
// the /readyz payload of internal/server serializes it, so the JSON
// field names are part of the service contract and covered by tests.
type Snapshot struct {
	// Workers is the engine's concurrency bound.
	Workers int `json:"workers"`
	// CacheCapacity is the memo cache bound (0: caching disabled).
	CacheCapacity int `json:"cache_capacity"`
	// Stats is the live instrument snapshot.
	Stats Stats `json:"stats"`
}

// Snapshot returns the engine's shape and Stats in one value.
func (e *Engine) Snapshot() Snapshot {
	return Snapshot{
		Workers:       e.Workers(),
		CacheCapacity: e.CacheCap(),
		Stats:         e.Stats(),
	}
}

// Stats reads the engine's instruments.
func (e *Engine) Stats() Stats {
	return Stats{
		Requests:     e.obs.requests.Value(),
		Evaluations:  e.obs.evaluations.Value(),
		CacheHits:    e.obs.cacheHits.Value(),
		CacheMisses:  e.obs.cacheMisses.Value(),
		Dedups:       e.obs.dedups.Value(),
		Panics:       e.obs.panics.Value(),
		Retries:      e.obs.retries.Value(),
		Failures:     e.obs.failures.Value(),
		Evictions:    e.obs.evictions.Value(),
		CacheEntries: e.CacheLen(),
		WallTime:     time.Duration(e.obs.evalSeconds.Sum() * float64(time.Second)),
	}
}

// Delta returns the change from an earlier snapshot: s − prev for every
// monotone field (CacheEntries keeps the later value).
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Requests:     s.Requests - prev.Requests,
		Evaluations:  s.Evaluations - prev.Evaluations,
		CacheHits:    s.CacheHits - prev.CacheHits,
		CacheMisses:  s.CacheMisses - prev.CacheMisses,
		Dedups:       s.Dedups - prev.Dedups,
		Panics:       s.Panics - prev.Panics,
		Retries:      s.Retries - prev.Retries,
		Failures:     s.Failures - prev.Failures,
		Evictions:    s.Evictions - prev.Evictions,
		CacheEntries: s.CacheEntries,
		WallTime:     s.WallTime - prev.WallTime,
	}
}

// HitRate is the fraction of requests served from the cache.
func (s Stats) HitRate() float64 {
	if s.Requests == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(s.Requests)
}

// String renders the one-line summary the CLIs print on exit.
func (s Stats) String() string {
	return fmt.Sprintf(
		"engine: %d requests, %d evaluations, %d cache hits (%.1f%%), %d dedup, %d retries, %d panics, %d failures, eval wall %v",
		s.Requests, s.Evaluations, s.CacheHits, 100*s.HitRate(),
		s.Dedups, s.Retries, s.Panics, s.Failures, s.WallTime.Round(time.Millisecond))
}
