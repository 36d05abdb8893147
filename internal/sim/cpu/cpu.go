// Package cpu is a simplified out-of-order core model in the interval-
// simulation style: instructions issue at up to IssueWidth per cycle,
// memory operations occupy the instruction window (ROB) until their data
// returns, and the number of overlapping outstanding misses — the
// memory-level parallelism the C-AMAT C_M parameter measures — is bounded
// by both the window and the L1 MSHRs. Dependent loads (trace.Ref.Dep)
// serialize against the previous access, reproducing pointer-chase
// behaviour.
package cpu

import (
	"fmt"

	"repro/internal/sim/cache"
	"repro/internal/trace"
)

// Config describes the core microarchitecture parameters the APS
// experiment sweeps (issue width and ROB size, §IV).
type Config struct {
	IssueWidth int
	ROB        int
	// ComputeCPI is the average compute cost of one non-memory
	// instruction in issue-slot units (so the effective compute CPI is
	// ComputeCPI/IssueWidth). It carries the Pollack-rule core-area effect
	// (Eq. 11) into the simulator: larger cores execute compute work
	// faster. Zero selects 1.0.
	ComputeCPI float64
}

// DefaultConfig models the paper's 4-way OoO core with a 128-entry ROB.
func DefaultConfig() Config { return Config{IssueWidth: 4, ROB: 128, ComputeCPI: 1} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.IssueWidth < 1 || c.ROB < 1 {
		return fmt.Errorf("cpu: issue width %d and ROB %d must be ≥ 1", c.IssueWidth, c.ROB)
	}
	if c.ComputeCPI < 0 {
		return fmt.Errorf("cpu: compute CPI %v negative", c.ComputeCPI)
	}
	return nil
}

// Stats summarizes one core's execution.
type Stats struct {
	Instructions uint64 // memory refs + compute gap instructions
	MemAccesses  uint64
	Cycles       int64
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// completionHeap is a min-heap of outstanding completion times.
type completionHeap []int64

// push adds a completion time.
func (h *completionHeap) push(t int64) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p] <= t {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = t
	*h = s
}

// pop removes and returns the earliest completion time.
func (h *completionHeap) pop() int64 {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s[c+1] < s[c] {
			c++
		}
		if last <= s[c] {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	*h = s
	return top
}

// AccessObserver receives the timing of every L1 access the core issues;
// the C-AMAT detector implements it. A non-nil error marks a malformed
// timing record — an internal invariant violation the core surfaces from
// Step instead of panicking, so the engine's retry/guard machinery (and
// not a crash) decides what happens to the run.
type AccessObserver interface {
	Observe(res cache.Result, hitLatency int) error
}

// Core executes a reference stream against an L1 cache.
type Core struct {
	cfg Config
	l1  *cache.Cache
	obs AccessObserver // optional

	clock           int64
	issueDebt       float64 // fractional issue-slot debt carried across cycles
	inflight        completionHeap
	lastDone        int64
	start           int64
	stats           Stats
	maxInFlightSeen int
	computeCPI      float64
}

// NewCore builds a core over its private L1. The observer may be nil.
func NewCore(cfg Config, l1 *cache.Cache, obs AccessObserver) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if l1 == nil {
		return nil, fmt.Errorf("cpu: core needs an L1 cache")
	}
	cpi := cfg.ComputeCPI
	if cpi == 0 { //lint:allow floatguard exact zero is the unset-field sentinel
		cpi = 1
	}
	return &Core{cfg: cfg, l1: l1, obs: obs, computeCPI: cpi}, nil
}

// Clock returns the core's current issue cycle; the multi-core scheduler
// advances the core with the smallest clock.
func (c *Core) Clock() int64 { return c.clock }

// advanceIssue consumes issue bandwidth for n instructions weighing
// `weight` issue slots each; fractional cycles carry over as debt.
func (c *Core) advanceIssue(n int, weight float64) {
	c.issueDebt += float64(n) * weight / float64(c.cfg.IssueWidth)
	whole := int64(c.issueDebt)
	c.clock += whole
	c.issueDebt -= float64(whole)
}

// Step processes one memory reference (with its preceding compute gap).
// The only error source is the observer rejecting a timing record, which
// indicates a simulator invariant violation; the core's own state stays
// consistent and the caller decides whether to abort the run.
func (c *Core) Step(ref trace.Ref) error {
	// Compute instructions before the reference.
	gap := int(ref.Gap)
	if gap > 0 {
		c.advanceIssue(gap, c.computeCPI)
		c.stats.Instructions += uint64(gap)
	}
	// Dependent references wait for the previous access's data.
	if ref.Dep && c.lastDone > c.clock {
		c.clock = c.lastDone
		c.issueDebt = 0
	}
	// Window constraint: a memory op and its gap occupy 1+gap ROB slots,
	// so at most ROB/(1+gap) such groups are simultaneously in flight.
	maxOutstanding := c.cfg.ROB / (1 + gap)
	if maxOutstanding < 1 {
		maxOutstanding = 1
	}
	for len(c.inflight) >= maxOutstanding {
		earliest := c.inflight.pop()
		if earliest > c.clock {
			c.clock = earliest
			c.issueDebt = 0
		}
	}
	// Drain completions that already happened (keeps the heap small).
	for len(c.inflight) > 0 && c.inflight[0] <= c.clock {
		c.inflight.pop()
	}

	res := c.l1.AccessTimed(c.clock, ref.Addr, ref.Write)
	var obsErr error
	if c.obs != nil {
		obsErr = c.obs.Observe(res, c.l1.Config().HitLatency)
	}
	c.inflight.push(res.Done)
	if len(c.inflight) > c.maxInFlightSeen {
		c.maxInFlightSeen = len(c.inflight)
	}
	c.lastDone = res.Done
	c.advanceIssue(1, 1)
	c.stats.Instructions++
	c.stats.MemAccesses++
	if obsErr != nil {
		return fmt.Errorf("cpu: access observer rejected timing record: %w", obsErr)
	}
	return nil
}

// Drain waits for all outstanding accesses and returns final statistics.
func (c *Core) Drain() Stats {
	for len(c.inflight) > 0 {
		done := c.inflight.pop()
		if done > c.clock {
			c.clock = done
		}
	}
	if c.lastDone > c.clock {
		c.clock = c.lastDone
	}
	c.stats.Cycles = c.clock - c.start
	return c.stats
}

// MaxInFlight reports the peak number of simultaneously outstanding
// memory accesses — the core's realized memory-level parallelism bound.
func (c *Core) MaxInFlight() int { return c.maxInFlightSeen }
