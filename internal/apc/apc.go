// Package apc implements the APC (data Access Per memory-active Cycle)
// metric of Wang & Sun, used in §V / Fig. 13 of the C²-Bound paper to
// compare memory-hierarchy layers. APC counts accesses per cycle in which
// the layer is servicing at least one access, so APC = 1/C-AMAT at the
// layer where both are measured. The Tracker merges possibly-overlapping,
// slightly out-of-order busy intervals exactly.
package apc

import "sort"

type interval struct{ start, end int64 }

// Tracker accumulates a layer's busy intervals and access count.
// It is not safe for concurrent use. Add merges in place, so once the
// open set's slice has grown to the lateness window's size a tracker
// allocates nothing per access.
type Tracker struct {
	accesses uint64
	flushed  int64 // active cycles from intervals already retired
	open     []interval
	maxStart int64
	lateness int64
}

// NewTracker builds a tracker. lateness bounds how far behind the newest
// interval start a future interval may begin (same discipline as the
// C-AMAT detector); 0 selects a generous default.
func NewTracker(lateness int64) *Tracker {
	if lateness <= 0 {
		lateness = 1 << 22
	}
	return &Tracker{lateness: lateness}
}

// Add records one access busy during [start, end).
func (t *Tracker) Add(start, end int64) {
	if end <= start {
		return
	}
	t.accesses++
	if start > t.maxStart {
		t.maxStart = start
	}
	// Insert into the sorted disjoint set, merging overlaps.
	i := sort.Search(len(t.open), func(j int) bool { return t.open[j].end >= start })
	j := sort.Search(len(t.open), func(j int) bool { return t.open[j].start > end })
	// Intervals [i, j) overlap or touch [start, end).
	if i < j {
		if t.open[i].start < start {
			start = t.open[i].start
		}
		if t.open[j-1].end > end {
			end = t.open[j-1].end
		}
	}
	// Splice the merged interval over [i, j) in place.
	switch {
	case i == j:
		t.open = append(t.open, interval{})
		copy(t.open[i+1:], t.open[i:])
	case j > i+1:
		t.open = append(t.open[:i+1], t.open[j:]...)
	}
	t.open[i] = interval{start, end}

	// Retire intervals no future access can extend.
	if len(t.open) > 64 {
		limit := t.maxStart - t.lateness
		k := 0
		for ; k < len(t.open) && t.open[k].end < limit; k++ {
			t.flushed += t.open[k].end - t.open[k].start
		}
		if k > 0 {
			t.open = append(t.open[:0], t.open[k:]...)
		}
	}
}

// Accesses returns the number of recorded accesses.
func (t *Tracker) Accesses() uint64 { return t.accesses }

// ActiveCycles returns the total cycles during which the layer was busy.
func (t *Tracker) ActiveCycles() int64 {
	total := t.flushed
	for _, iv := range t.open {
		total += iv.end - iv.start
	}
	return total
}

// APC returns accesses per memory-active cycle.
func (t *Tracker) APC() float64 {
	c := t.ActiveCycles()
	if c == 0 {
		return 0
	}
	return float64(t.accesses) / float64(c)
}

// CAMAT returns the layer's concurrent average access time, the
// reciprocal of APC.
func (t *Tracker) CAMAT() float64 {
	if t.accesses == 0 {
		return 0
	}
	return float64(t.ActiveCycles()) / float64(t.accesses)
}
