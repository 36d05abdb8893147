// Package detector implements the C-AMAT analyzer of Fig. 4 in the paper:
// a Hit Concurrency Detector (HCD) that counts wall-clock hit cycles and
// per-cycle hit activity, and a Miss Concurrency Detector (MCD) that, fed
// with the MSHR-derived miss windows and the HCD's per-cycle hit
// indicator, counts pure-miss cycles and attributes them to individual
// miss accesses. The detector is online: it processes cycle events
// incrementally as accesses are observed, holding only the sliding window
// of cycles that future accesses could still affect.
//
// Its output is bit-identical to the offline camat.Analyze sweep — a
// property the tests verify — so measured parameters plug directly into
// the C²-Bound model.
package detector

import (
	"fmt"

	"repro/internal/camat"
	"repro/internal/sim/cache"
)

// Event operations at a cycle boundary.
const (
	opHitStart uint8 = iota
	opHitEnd
	opMissStart
	opMissEnd
)

// event is one change at a cycle boundary: a hit window opening or
// closing, or miss window win opening or closing. Events of one cycle
// may apply in any order, because nothing is accounted between them.
type event struct {
	cycle int64
	win   int32 // index into Detector.wins (miss events only); int32 keeps an event at 16 bytes
	op    uint8
}

// Detector is the online C-AMAT analyzer for one cache level. It is not
// safe for concurrent use; attach one per core (or per monitored cache).
//
// Like the hardware tables of Fig. 4 it allocates nothing per access
// once warm: pending events sit in a min-heap over one slice, and each
// outstanding miss holds a slot of the reused wins table, found again
// through the free list when the miss retires. The retained state is the
// events and misses within the lateness window.
type Detector struct {
	// Lateness bounds how far behind the newest observed start an
	// access's start cycle may lag; events older than the watermark are
	// folded eagerly. The resource-reservation discipline of the cache
	// model bounds reordering by the longest miss round trip, so the
	// default of 1<<22 cycles is far beyond safe.
	lateness int64

	pending []event // min-heap on cycle
	// wins holds, per open miss window, the pure-miss cycle count when
	// the window opened: every pure-miss cycle charges every open window,
	// so a window's own pure cycles are the count's growth until it
	// closes. free lists the slots of retired windows.
	wins []int64
	free []int32

	cursor    int64 // sweep has consumed cycles < cursor
	hitCount  int
	missCount int
	started   bool
	maxStart  int64

	// accumulators, matching camat.Analysis
	accesses    int
	misses      int
	pureMisses  int
	hitSum      int64
	hitCycles   int64
	missCycles  int64
	pureCycles  int64
	activeCyc   int64
	pureAct     int64
	perMissCyc  int64
	perPureCyc  int64
	lateRecords uint64
}

// Option configures a Detector.
type Option func(*Detector)

// WithLateness overrides the out-of-order tolerance window (cycles).
func WithLateness(cycles int64) Option {
	return func(d *Detector) { d.lateness = cycles }
}

// New builds a detector.
func New(opts ...Option) *Detector {
	d := &Detector{lateness: 1 << 22}
	for _, o := range opts {
		o(d)
	}
	return d
}

// LateRecords reports how many accesses violated the lateness bound and
// were clamped; nonzero values indicate the bound needs enlarging.
func (d *Detector) LateRecords() uint64 { return d.lateRecords }

// Observe implements the cpu.AccessObserver interface: it converts a cache
// access result into a (start, hit-cycles, miss-penalty) record. The
// simulator guarantees well-formed timings, so a malformed record here is
// an internal invariant violation; it surfaces as a returned error (never
// a panic), which the core propagates out of Step so the evaluation
// engine's guard/retry machinery can handle it like any other fault.
func (d *Detector) Observe(res cache.Result, hitLatency int) error {
	penalty := res.Done - res.Start - int64(hitLatency)
	if penalty < 0 {
		penalty = 0
	}
	if err := d.Record(res.Start, hitLatency, penalty); err != nil {
		return fmt.Errorf("detector: simulator produced malformed timing: %w", err)
	}
	return nil
}

// Record registers one access: hit processing during
// [start, start+hitCycles) and, when missPenalty > 0, miss processing
// during the following missPenalty cycles. Malformed records (non-positive
// hit cycles or negative penalty) are rejected with an error and leave
// the detector's state untouched.
func (d *Detector) Record(start int64, hitCycles int, missPenalty int64) error {
	if hitCycles <= 0 || missPenalty < 0 {
		return fmt.Errorf("detector: malformed record start=%d hit=%d penalty=%d", start, hitCycles, missPenalty)
	}
	if !d.started {
		// Leave the full lateness window open behind the first record so
		// early out-of-order arrivals are not clamped.
		d.cursor = start - d.lateness
		d.started = true
		d.maxStart = start
	}
	if start > d.maxStart {
		d.maxStart = start
	}
	if start < d.cursor {
		// The record begins before the already-swept frontier; clamp it.
		d.lateRecords++
		missPenalty += start - d.cursor // keep the end cycle
		start = d.cursor
		if missPenalty < 0 {
			missPenalty = 0
		}
	}
	d.accesses++
	d.hitSum += int64(hitCycles)

	hitEnd := start + int64(hitCycles)
	d.push(event{cycle: start, op: opHitStart})
	d.push(event{cycle: hitEnd, op: opHitEnd})
	if missPenalty > 0 {
		d.misses++
		d.perMissCyc += missPenalty
		var w int32
		if n := len(d.free); n > 0 {
			w = d.free[n-1]
			d.free = d.free[:n-1]
		} else {
			w = int32(len(d.wins))
			d.wins = append(d.wins, 0)
		}
		d.push(event{cycle: hitEnd, win: w, op: opMissStart})
		d.push(event{cycle: hitEnd + missPenalty, win: w, op: opMissEnd})
	}
	// Sweep everything that can no longer be affected by future records:
	// cycles below maxStart − lateness.
	d.sweep(d.maxStart - d.lateness)
	return nil
}

// push adds e to the pending heap.
func (d *Detector) push(e event) {
	h := append(d.pending, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].cycle <= e.cycle {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	d.pending = h
}

// pop removes and returns the earliest pending event.
func (d *Detector) pop() event {
	h := d.pending
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].cycle < h[c].cycle {
			c++
		}
		if last.cycle <= h[c].cycle {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	d.pending = h
	return top
}

// sortPending orders the pending events by cycle: an LSD radix sort, 8
// bits a pass, on each event's offset from the heap's root. A sorted
// slice is still a heap.
func (d *Detector) sortPending() {
	h := d.pending
	if len(h) < 2 {
		return
	}
	lo := h[0].cycle
	var span uint64
	for _, e := range h {
		span = max(span, uint64(e.cycle-lo))
	}
	buf := make([]event, len(h))
	for shift := 0; shift < 64 && span>>shift > 0; shift += 8 {
		var at [257]int
		for _, e := range h {
			at[uint64(e.cycle-lo)>>shift&0xff+1]++
		}
		for k := 1; k < len(at); k++ {
			at[k] += at[k-1]
		}
		for _, e := range h {
			k := uint64(e.cycle-lo) >> shift & 0xff
			buf[at[k]] = e
			at[k]++
		}
		h, buf = buf, h
	}
	d.pending = h
}

// sweep consumes events with cycle < limit, accumulating interval
// statistics between consecutive event cycles.
func (d *Detector) sweep(limit int64) {
	for len(d.pending) > 0 && d.pending[0].cycle < limit {
		d.apply(d.pop())
	}
}

// apply accounts the interval [cursor, ev.cycle) under the current state,
// then applies ev.
func (d *Detector) apply(ev event) {
	d.accumulate(ev.cycle - d.cursor)
	d.cursor = ev.cycle
	switch ev.op {
	case opHitStart:
		d.hitCount++
	case opHitEnd:
		d.hitCount--
	case opMissStart:
		d.missCount++
		d.wins[ev.win] = d.pureCycles
	case opMissEnd:
		d.missCount--
		// Retire the window and finalize its pure-miss attribution.
		if pure := d.pureCycles - d.wins[ev.win]; pure > 0 {
			d.pureMisses++
			d.perPureCyc += pure
		}
		d.free = append(d.free, ev.win)
	}
}

// accumulate charges dur cycles of the current (hitCount, missCount)
// state.
func (d *Detector) accumulate(dur int64) {
	if dur <= 0 {
		return
	}
	hitActive := d.hitCount > 0
	missActive := d.missCount > 0
	if hitActive || missActive {
		d.activeCyc += dur
	}
	if hitActive {
		d.hitCycles += dur
	}
	if missActive {
		d.missCycles += dur
	}
	if missActive && !hitActive {
		d.pureCycles += dur
		d.pureAct += dur * int64(d.missCount)
	}
}

// Finalize flushes all pending events and returns the complete analysis.
// The detector may continue to receive records afterwards only if no new
// record starts before the flushed frontier.
func (d *Detector) Finalize() camat.Analysis {
	// Everything below the frontier retires now. At the default lateness
	// that is most of a run's events, and one radix sort orders them far
	// faster than popping the heap entry by entry; events of one cycle
	// commute, so their order among themselves does not matter.
	d.sortPending()
	n := 0
	for ; n < len(d.pending) && d.pending[n].cycle < 1<<62-1; n++ {
		d.apply(d.pending[n])
	}
	d.pending = append(d.pending[:0], d.pending[n:]...)
	an := camat.Analysis{
		Accesses:                d.accesses,
		Misses:                  d.misses,
		PureMisses:              d.pureMisses,
		HitActiveCycles:         d.hitCycles,
		MissActiveCycles:        d.missCycles,
		PureMissCycles:          d.pureCycles,
		ActiveCycles:            d.activeCyc,
		HitActivity:             d.hitSum,
		PureMissActivity:        d.pureAct,
		PerAccessMissCycles:     d.perMissCyc,
		PerAccessPureMissCycles: d.perPureCyc,
	}
	if d.accesses > 0 {
		an.HitTime = float64(d.hitSum) / float64(d.accesses)
	}
	return an
}

// Params is shorthand for Finalize().Params().
func (d *Detector) Params() camat.Params { return d.Finalize().Params() }
