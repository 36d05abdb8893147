package main

import (
	"sort"
	"time"

	"repro/internal/obs"
)

// selfTime is a span's duration minus the union of its children's
// intervals (clipped to the span). Subtracting each child's duration
// instead goes negative whenever children overlap, as the engine's
// parallel chunk evaluations under one dse.batch do.
func selfTime(s *obs.Span, children []*obs.Span) time.Duration {
	type interval struct{ lo, hi time.Duration }
	ivs := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if lo < hi {
			ivs = append(ivs, interval{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered time.Duration
	for i := 0; i < len(ivs); {
		lo, hi := ivs[i].lo, ivs[i].hi
		for i++; i < len(ivs) && ivs[i].lo <= hi; i++ {
			hi = max(hi, ivs[i].hi)
		}
		covered += hi - lo
	}
	return s.End - s.Start - covered
}

// spanTree indexes a trace snapshot by parent.
type spanTree struct {
	children map[uint64][]*obs.Span
}

func newSpanTree(spans []obs.Span) spanTree {
	t := spanTree{children: make(map[uint64][]*obs.Span)}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			t.children[p] = append(t.children[p], &spans[i])
		}
	}
	return t
}

// attribute adds each span's share of the wall time under s to out, by
// span name, scaled by weight. A span keeps its self time; the time its
// children cover is shared among them in proportion to their durations,
// so parallel children split the wall time they overlap and the shares
// of a whole tree sum to its root's duration exactly.
func (t spanTree) attribute(s *obs.Span, weight float64, out map[string]float64) {
	kids := t.children[s.ID]
	self := selfTime(s, kids)
	out[s.Name] += weight * float64(self)
	var sum float64
	for _, k := range kids {
		sum += float64(k.End - k.Start)
	}
	if sum == 0 {
		return
	}
	w := weight * float64(s.End-s.Start-self) / sum
	for _, k := range kids {
		t.attribute(k, w, out)
	}
}

// walk visits s and every descendant.
func (t spanTree) walk(s *obs.Span, visit func(*obs.Span)) {
	visit(s)
	for _, k := range t.children[s.ID] {
		t.walk(k, visit)
	}
}

// traceSummary is what the per-layer metrics read from a traced half.
type traceSummary struct {
	requests int
	// selfMS is the mean time per timed request attributed to each span
	// name, in milliseconds; the names sum to the mean request latency.
	selfMS      map[string]float64
	p50         float64   // median bench.request duration, ms
	serve       []float64 // bench.serve durations, ms
	remoteServe []float64 // peer-side server.peer_* durations, ms
	simInstr    float64   // instructions simulated under timed requests
	simSeconds  float64   // wall time of their sim.run spans
}

// summarize reads the timed request trees (rooted at bench.request) and
// the peer-side spans of a traced half.
func summarize(spans []obs.Span) traceSummary {
	t := newSpanTree(spans)
	sum := traceSummary{selfMS: make(map[string]float64)}
	var durs []float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Parent == 0 && s.Name == "bench.request":
			sum.requests++
			durs = append(durs, ms(s.End-s.Start))
			t.attribute(s, 1, sum.selfMS)
			t.walk(s, func(d *obs.Span) {
				switch d.Name {
				case "bench.serve":
					sum.serve = append(sum.serve, ms(d.End-d.Start))
				case "sim.run":
					sum.simSeconds += (d.End - d.Start).Seconds()
					for _, a := range d.Attrs {
						if n, ok := a.Value.(int64); ok && a.Key == "instructions" {
							sum.simInstr += float64(n)
						}
					}
				}
			})
		case s.Parent == 0 && (s.Name == "server.peer_sweep" || s.Name == "server.peer_eval"):
			sum.remoteServe = append(sum.remoteServe, ms(s.End-s.Start))
		}
	}
	for name, ns := range sum.selfMS {
		sum.selfMS[name] = ratio(ns/float64(time.Millisecond), float64(sum.requests))
	}
	sum.p50 = percentile(durs, 50)
	return sum
}
