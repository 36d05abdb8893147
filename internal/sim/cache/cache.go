// Package cache implements a non-blocking set-associative cache timing
// model with banks, ports, LRU replacement, write-back/write-allocate
// policy and MSHRs (miss status holding registers). Misses are forwarded
// to a lower Level; secondary misses to an in-flight line merge into the
// existing MSHR, which is precisely the hardware behaviour the C-AMAT
// miss-concurrency detector (MCD) observes.
//
// Like the DRAM model, the cache is a timing calculator: tag state is
// updated in access-processing order while latencies are computed from
// per-resource reservations (ports, banks, MSHR slots), the standard
// trace-driven simulation discipline.
package cache

import "fmt"

// Level is anything that can service a line request and report when the
// data arrives.
type Level interface {
	Access(t int64, addr uint64, write bool) int64
}

// Config describes one cache.
type Config struct {
	Name       string
	SizeKB     int
	LineBytes  int
	Assoc      int
	Banks      int
	Ports      int // concurrent accesses accepted per cycle
	HitLatency int
	MSHRs      int
	// NextLinePrefetch enables a simple sequential prefetcher: every
	// demand miss also requests the following line (if neither present
	// nor in flight), using a free MSHR when one is available. Prefetch
	// fills install with low replacement priority and never block demand
	// accesses.
	NextLinePrefetch bool
}

// DefaultL1 returns a 32 KB, 8-way, 3-cycle private L1 with 8 MSHRs.
func DefaultL1() Config {
	return Config{Name: "L1", SizeKB: 32, LineBytes: 64, Assoc: 8, Banks: 4, Ports: 2, HitLatency: 3, MSHRs: 8}
}

// DefaultL2 returns a 2 MB, 16-way, 12-cycle shared L2 with 32 MSHRs.
func DefaultL2() Config {
	return Config{Name: "L2", SizeKB: 2048, LineBytes: 64, Assoc: 16, Banks: 8, Ports: 4, HitLatency: 12, MSHRs: 32}
}

// Validate checks the geometry. Sets must come out a positive power-of-two
// friendly integer, but non-power-of-two set counts are allowed (modulo
// indexing).
func (c Config) Validate() error {
	switch {
	case c.SizeKB < 1 || c.LineBytes < 8 || c.Assoc < 1:
		return fmt.Errorf("cache %s: bad geometry size=%dKB line=%dB assoc=%d", c.Name, c.SizeKB, c.LineBytes, c.Assoc)
	case c.Banks < 1 || c.Ports < 1:
		return fmt.Errorf("cache %s: need ≥1 bank and port", c.Name)
	case c.HitLatency < 1:
		return fmt.Errorf("cache %s: hit latency %d below 1", c.Name, c.HitLatency)
	case c.MSHRs < 1:
		return fmt.Errorf("cache %s: need ≥1 MSHR", c.Name)
	}
	if c.SizeKB*1024 < c.LineBytes*c.Assoc {
		return fmt.Errorf("cache %s: capacity below one set", c.Name)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeKB * 1024 / (c.LineBytes * c.Assoc) }

// Stats aggregates cache behaviour.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	MSHRMerges uint64 // secondary misses merged into an in-flight line
	Writebacks uint64
	Prefetches uint64 // next-line prefetch requests issued
	// LatencySum accumulates per-access total latency (done − request),
	// so LatencySum/Accesses is the cache's average access time.
	LatencySum uint64
}

// MissRate returns conventional misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// AvgLatency returns mean cycles per access.
func (s Stats) AvgLatency() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Accesses)
}

// Result describes one access's timing for detectors: the cycle the cache
// began processing it, the completion cycle, and whether it hit.
type Result struct {
	Start int64
	Done  int64
	Hit   bool
	// Merged reports a secondary miss satisfied by an in-flight MSHR.
	Merged bool
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU clock
}

// Cache is the timing model. Not safe for concurrent use.
type Cache struct {
	cfg   Config
	lower Level

	sets [][]way
	lru  uint64

	portFree []int64
	bankFree []int64
	mshrFree []int64
	inflight map[uint64]int64 // line → fill completion time

	stats Stats
}

// New builds a cache over the given lower level (which must not be nil).
func New(cfg Config, lower Level) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if lower == nil {
		return nil, fmt.Errorf("cache %s: nil lower level", cfg.Name)
	}
	c := &Cache{
		cfg:      cfg,
		lower:    lower,
		sets:     make([][]way, cfg.Sets()),
		portFree: make([]int64, cfg.Ports),
		bankFree: make([]int64, cfg.Banks),
		mshrFree: make([]int64, cfg.MSHRs),
		inflight: make(map[uint64]int64),
	}
	ways := make([]way, len(c.sets)*cfg.Assoc)
	for i := range c.sets {
		c.sets[i] = ways[i*cfg.Assoc : (i+1)*cfg.Assoc : (i+1)*cfg.Assoc]
	}
	return c, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// argmin returns the index of the earliest-free resource slot.
func argmin(a []int64) int {
	best := 0
	for i, v := range a {
		if v < a[best] {
			best = i
		}
	}
	return best
}

// AccessTimed services one reference arriving at cycle t and returns full
// timing detail. State updates (tags, LRU, dirty bits) occur immediately
// in processing order.
func (c *Cache) AccessTimed(t int64, addr uint64, write bool) Result {
	line := addr / uint64(c.cfg.LineBytes)
	setIdx := int(line % uint64(len(c.sets)))
	bankIdx := int(line % uint64(c.cfg.Banks))

	// Port and bank arbitration: the access starts when the request
	// arrives and a port plus the target bank are free. Each occupies the
	// resource for one (pipelined) cycle.
	p := argmin(c.portFree)
	start := t
	if c.portFree[p] > start {
		start = c.portFree[p]
	}
	if c.bankFree[bankIdx] > start {
		start = c.bankFree[bankIdx]
	}
	c.portFree[p] = start + 1
	c.bankFree[bankIdx] = start + 1

	c.stats.Accesses++
	c.lru++
	set := c.sets[setIdx]
	tag := line
	lookupDone := start + int64(c.cfg.HitLatency)

	// An in-flight line is a secondary miss even though its tag is already
	// installed: the data has not arrived, so the access merges into the
	// outstanding MSHR and completes at the fill.
	if fill, ok := c.inflight[line]; ok {
		if fill > lookupDone {
			c.stats.Misses++
			c.stats.MSHRMerges++
			for i := range set {
				if set[i].valid && set[i].tag == tag {
					set[i].used = c.lru
					if write {
						set[i].dirty = true
					}
					break
				}
			}
			c.stats.LatencySum += uint64(fill - t)
			return Result{Start: start, Done: fill, Hit: false, Merged: true}
		}
		delete(c.inflight, line)
	}

	// Lookup.
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = c.lru
			if write {
				set[i].dirty = true
			}
			c.stats.Hits++
			done := lookupDone
			c.stats.LatencySum += uint64(done - t)
			return Result{Start: start, Done: done, Hit: true}
		}
	}

	// Miss path. A full MSHR file stalls the access at the cache
	// interface (the hardware behaviour: the load/store unit replays the
	// access once a slot frees), so the access's observable window —
	// which the MCD measures from MSHR state — begins when a slot is
	// available.
	c.stats.Misses++
	m := argmin(c.mshrFree)
	if c.mshrFree[m] > start {
		start = c.mshrFree[m]
		lookupDone = start + int64(c.cfg.HitLatency)
	}
	reqStart := lookupDone
	fill := c.lower.Access(reqStart, line*uint64(c.cfg.LineBytes), false)
	c.mshrFree[m] = fill
	c.inflight[line] = fill

	// Install the line: LRU victim, write back if dirty.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].used < set[victim].used {
			victim = i
		}
	}
	if set[victim].valid && set[victim].dirty {
		c.stats.Writebacks++
		victimAddr := set[victim].tag * uint64(c.cfg.LineBytes)
		// Fire-and-forget: the writeback occupies lower-level resources
		// but nothing waits for it.
		c.lower.Access(fill, victimAddr, true)
	}
	set[victim] = way{tag: tag, valid: true, dirty: write, used: c.lru}

	if c.cfg.NextLinePrefetch {
		c.prefetch(line+1, reqStart)
	}

	c.stats.LatencySum += uint64(fill - t)
	return Result{Start: start, Done: fill, Hit: false}
}

// prefetch issues a next-line fill if the line is absent, not in flight,
// and a free MSHR exists right now (prefetches never queue behind demand).
func (c *Cache) prefetch(line uint64, t int64) {
	if _, ok := c.inflight[line]; ok {
		return
	}
	setIdx := int(line % uint64(len(c.sets)))
	set := c.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == line {
			return // already resident
		}
	}
	m := argmin(c.mshrFree)
	if c.mshrFree[m] > t {
		return // no spare MSHR: drop the prefetch
	}
	fill := c.lower.Access(t, line*uint64(c.cfg.LineBytes), false)
	c.mshrFree[m] = fill
	c.inflight[line] = fill
	c.stats.Prefetches++

	// Install with lowest replacement priority (used = 0 ages it out
	// first) unless it would evict a dirty line, in which case skip the
	// install to avoid writeback traffic for speculation.
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if !set[i].dirty && (victim < 0 || set[i].used < set[victim].used) {
			victim = i
		}
	}
	if victim < 0 {
		return
	}
	set[victim] = way{tag: line, valid: true, dirty: false, used: 0}
}

// Access implements Level: it services the reference and returns only the
// completion time, so caches stack naturally (L1 over L2 over DRAM).
func (c *Cache) Access(t int64, addr uint64, write bool) int64 {
	return c.AccessTimed(t, addr, write).Done
}

// Contents returns the number of valid lines, for tests.
func (c *Cache) Contents() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// PruneInflight drops stale in-flight records older than the watermark;
// the simulator calls it periodically to bound memory on long runs.
func (c *Cache) PruneInflight(watermark int64) {
	//lint:allow detguard prune order is irrelevant: every record below the watermark is deleted regardless of iteration order
	for line, fill := range c.inflight {
		if fill < watermark {
			delete(c.inflight, line)
		}
	}
}
