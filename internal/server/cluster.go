package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
)

// This file is the server half of the cluster tier (DESIGN.md §15): the
// peer endpoints a remote coordinator calls, and the routing that turns
// a local request into ring-partitioned local + remote work. The
// invariant throughout is graceful-and-never-wrong: any peer failure —
// breaker open, connection refused, short response, mid-sweep death —
// falls back to computing the affected points on the local engine,
// which is bit-identical because every family kernel is deterministic.
// The cluster can lose cache locality, never correctness.

// peerWork wraps an internal peer endpoint: drain rejection, admission
// under the anonymous identity, the per-request deadline and the
// observed, panic-isolated handler call — but no tenant lookup, because
// intra-cluster traffic carries no API key (the peer endpoints are
// private-network internal, reachable only on the peer listen addresses;
// see DESIGN.md §15). Admission still takes a slot so forwarded work
// cannot oversubscribe a peer past its own gate.
func (s *Server) peerWork(span string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.rejectDraining(w) {
			return
		}
		t := s.tenants.anonymous()
		done, ok := s.admit(w, r, t, nil)
		if !ok {
			return
		}
		defer done()
		ctx, stop, ok := s.deadline(w, r)
		if !ok {
			return
		}
		defer stop()
		s.serveObserved(ctx, w, r, t, span, h)
	})
}

// --- request routing --------------------------------------------------

// pointGroup is one owner's slice of a request's points.
type pointGroup struct {
	owner string
	idx   []int
}

// partitionPoints splits n points by ring ownership under one ring
// generation: the local positions, plus one group per remote owner in
// first-appearance order (no map iteration, so the fan-out order is
// deterministic). point(k) returns the point at position k; only its
// key is kept, so point may build each one in the same buffer.
func (s *Server) partitionPoints(fp string, n int, point func(k int) []float64) (local []int, remote []*pointGroup) {
	// The first pass places each point and counts each owner's share, so
	// the second fills lists of their final size instead of growing them.
	slot := make([]int32, n) // 0: local; g+1: remote[g]
	sizes := []int{0}
	groups := make(map[string]int32)
	seed, ring := engine.KeySeed(fp), s.cluster.Ring()
	for k := range slot {
		owner, isLocal := ring.Owner(engine.KeyHash(seed, point(k)))
		if !isLocal {
			g, ok := groups[owner]
			if !ok {
				g = int32(len(sizes))
				groups[owner] = g
				remote = append(remote, &pointGroup{owner: owner})
				sizes = append(sizes, 0)
			}
			slot[k] = g
		}
		sizes[slot[k]]++
	}
	local = make([]int, 0, sizes[0])
	for g, grp := range remote {
		grp.idx = make([]int, 0, sizes[g+1])
	}
	for k, g := range slot {
		if g == 0 {
			local = append(local, k)
		} else {
			remote[g-1].idx = append(remote[g-1].idx, k)
		}
	}
	return local, remote
}

// subsetPoints gathers the points at idx.
func subsetPoints(points [][]float64, idx []int) [][]float64 {
	out := make([][]float64, len(idx))
	for k, i := range idx {
		out[k] = points[i]
	}
	return out
}

// streamRouted is EvaluateStream through the cluster tier: locally
// owned points run on the shared engine, remote-owned groups travel to
// their owner's peer-eval endpoint (so the owner's cache serves or
// learns them), and any peer failure recomputes that group locally.
// yield is serialized but may be called from several goroutines' turns;
// with no cluster (or an uncacheable evaluator, which has no ring key)
// the call degrades to plain EvaluateStream.
func (s *Server) streamRouted(ctx context.Context, ev dse.CtxEvaluator, ms ModelSpec, es EvaluatorSpec, points [][]float64, yield func(int, engine.Outcome)) error {
	fp := ""
	if f, ok := ev.(engine.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	if s.cluster == nil || fp == "" {
		return s.eng.EvaluateStream(ctx, ev, points, yield)
	}
	local, remote := s.partitionPoints(fp, len(points), func(k int) []float64 { return points[k] })
	s.cluster.CountLocal(len(local))
	s.cluster.CountRemote(len(points) - len(local))
	if len(remote) == 0 {
		return s.eng.EvaluateStream(ctx, ev, points, yield)
	}
	rawModel, err := json.Marshal(ms)
	if err != nil {
		return err
	}
	var rawEval json.RawMessage
	if es != (EvaluatorSpec{}) {
		if rawEval, err = json.Marshal(es); err != nil {
			return err
		}
	}

	var mu sync.Mutex
	emit := func(i int, o engine.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if yield != nil {
			yield(i, o)
		}
	}
	var wg sync.WaitGroup
	if len(local) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.eng.EvaluateStream(ctx, ev, subsetPoints(points, local), func(k int, o engine.Outcome) {
				emit(local[k], o)
			})
		}()
	}
	for _, g := range remote {
		wg.Add(1)
		go func(g *pointGroup) {
			defer wg.Done()
			pts := subsetPoints(points, g.idx)
			outs, err := s.cluster.EvalOnPeer(ctx, g.owner, cluster.PeerEvalRequest{
				Model:     rawModel,
				Evaluator: rawEval,
				Points:    pts,
			})
			if err == nil {
				for k, o := range outs {
					emit(g.idx[k], engine.Outcome{Value: o.Value, CacheHit: o.CacheHit, Err: o.Err})
				}
				return
			}
			if ctx.Err() != nil {
				return // cancelled: unstarted points produce no yield, like EvaluateStream
			}
			// Peer unavailable: graceful, never wrong — the same
			// deterministic kernel computes the group locally.
			s.cluster.CountFallback(len(g.idx))
			_ = s.eng.EvaluateStream(ctx, ev, pts, func(k int, o engine.Outcome) {
				emit(g.idx[k], o)
			})
		}(g)
	}
	wg.Wait()
	return ctx.Err()
}

// --- peer endpoints ---------------------------------------------------

// handlePeerEval evaluates a forwarded point batch on the local engine
// — always locally: a peer-eval request never re-routes, so transient
// ring disagreement between peers cannot ping-pong a batch. Results
// stream back as NDJSON in completion order, values as IEEE-754 bit
// patterns (the coordinator re-sequences by index).
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	var req cluster.PeerEvalRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, validationf("server: peer-eval carries no points"))
		return
	}
	if len(req.Points) > MaxBatchPoints {
		s.fail(w, validationf("server: peer-eval of %d points exceeds the %d-point bound", len(req.Points), MaxBatchPoints))
		return
	}
	var ms ModelSpec
	if err := json.Unmarshal(req.Model, &ms); err != nil {
		s.fail(w, validationf("server: peer-eval model spec: %v", err))
		return
	}
	var es EvaluatorSpec
	if len(req.Evaluator) > 0 {
		if err := json.Unmarshal(req.Evaluator, &es); err != nil {
			s.fail(w, validationf("server: peer-eval evaluator spec: %v", err))
			return
		}
	}
	fm, ev, err := s.resolveWork(ms, es)
	if err != nil {
		s.fail(w, err)
		return
	}
	for i, p := range req.Points {
		if err := checkPointDims(fm, p); err != nil {
			s.fail(w, validationf("server: peer-eval point %d: %v", i, err))
			return
		}
	}
	out := newNDJSONWriter(w)
	failures := 0
	_ = s.eng.EvaluateStream(r.Context(), ev, req.Points, func(i int, o engine.Outcome) {
		line := cluster.PeerEvalResult{Index: i, CacheHit: o.CacheHit || o.Shared}
		if o.Err != nil {
			failures++
			line.Error = o.Err.Error()
		} else {
			line.Bits = cluster.FormatBits(o.Value)
		}
		out.Emit(line)
	})
	out.Emit(cluster.PeerEvalSummary{Done: true, Points: len(req.Points), Errors: failures})
}

// handlePeerSweep runs a forwarded sub-sweep without re-partitioning
// (the coordinator already split the request by ring ownership; a
// second split here could ping-pong under ring disagreement). The wire
// shape is /v1/sweep's, except that the result frame carries the
// forwarded indices' values as Bits, in request order.
func (s *Server) handlePeerSweep(w http.ResponseWriter, r *http.Request) {
	s.serveSweep(w, r, false)
}

// --- partitioned sweep ------------------------------------------------

// remoteProgress aggregates the latest progress frame from every
// running sub-sweep, so the coordinator's heartbeat reports cluster-wide
// evaluation counts.
type remoteProgress struct {
	mu    sync.Mutex
	byGrp map[int]int64
}

func newRemoteProgress() *remoteProgress {
	return &remoteProgress{byGrp: make(map[int]int64)}
}

func (p *remoteProgress) set(group int, evaluated int64) {
	p.mu.Lock()
	p.byGrp[group] = evaluated
	p.mu.Unlock()
}

func (p *remoteProgress) total() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum int64
	for _, n := range p.byGrp {
		sum += n
	}
	return sum
}

// subSweepOutcome is one partition's contribution to the merge: dense
// values by flat index (the local partition, or a group that fell back
// to local compute), or a peer's Bits aligned with the group it was
// sent.
type subSweepOutcome struct {
	values []float64
	bits   []byte
	group  []int
	report dse.SweepReport
	err    error
}

// clusterSweep is the cluster-partitioned sweep: the points are split
// by ring ownership (partitionPoints, as for batches, each point built
// in one reused buffer), the local share runs through dse.SweepCtx
// (with the request's checkpoint machinery), each remote share fans out
// as a peer sub-sweep whose progress frames merge into rp, and the
// partial values, reports and checkpoints merge back into one result.
// A peer that dies mid-sub-sweep gets its share recomputed locally, so
// the merged result is bit-identical to a single-node run.
func (s *Server) clusterSweep(ctx context.Context, req SweepRequest, space dse.Space, ev dse.CtxEvaluator, opts dse.SweepOptions, rp *remoteProgress) ([]float64, dse.SweepReport, error) {
	fp := ""
	if f, ok := ev.(engine.Fingerprinter); ok {
		fp = f.Fingerprint()
	}
	if fp == "" {
		return dse.SweepCtx(ctx, ev, space, req.Indices, opts)
	}
	indices := []int(req.Indices)
	if indices == nil {
		indices = make([]int, space.Size())
		for i := range indices {
			indices[i] = i
		}
	}

	// Partition the points by ownership of each one's memo key, then map
	// the groups from positions in indices back to flat indices. One ring
	// generation places every occurrence of a repeated index with the
	// same owner, so the partitions are disjoint sets of flat indices.
	buf := make([]float64, 0, space.Dims())
	local, remote := s.partitionPoints(fp, len(indices), func(k int) []float64 {
		buf = space.AppendPoint(buf[:0], indices[k])
		return buf
	})
	s.cluster.CountLocal(len(local))
	s.cluster.CountRemote(len(indices) - len(local))
	if len(remote) == 0 {
		return dse.SweepCtx(ctx, ev, space, indices, opts)
	}
	// Never nil: nil means "the whole space" to SweepCtx, and an empty
	// local partition must sweep nothing.
	localIdx := make([]int, len(local))
	for k, pos := range local {
		localIdx[k] = indices[pos]
	}
	for _, g := range remote {
		for k, pos := range g.idx {
			g.idx[k] = indices[pos]
		}
	}

	results := make([]subSweepOutcome, 1+len(remote))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		values, report, err := dse.SweepCtx(ctx, ev, space, localIdx, opts)
		results[0] = subSweepOutcome{values: values, report: report, err: err}
	}()
	for gi, g := range remote {
		wg.Add(1)
		go func(slot int, g *pointGroup) {
			defer wg.Done()
			results[slot] = s.subSweep(ctx, req, space, ev, g, slot, rp)
		}(1+gi, g)
	}
	wg.Wait()

	merged, rep, firstErr := mergePartitions(results, indices, space.Size())
	rep.Canceled = ctx.Err() != nil

	// One merged checkpoint supersedes the local partition's partial
	// writes, so a resume after the merge restores the whole cluster's
	// completed set, not just this peer's share.
	if opts.CheckpointPath != "" && firstErr == nil {
		if err := dse.SaveCheckpoint(opts.CheckpointPath, space, merged, rep.Completed); err != nil {
			return merged, rep, err
		}
	}
	if firstErr != nil {
		return merged, rep, firstErr
	}
	return merged, rep, ctx.Err()
}

// mergePartitions merges the outcomes of a request for indices over a
// space of size points, whose partitions hold disjoint sets of flat
// indices. Each partition fills the values of its own completed indices
// (a peer's Bits are read at no other position, so a frame cannot
// place a value where it claims none), and its completed list arrives
// sorted, so the lists merge rather than re-sort. Failures are unioned,
// the indices no partition settled are pending, and the first error
// that is not a cancellation is returned.
func mergePartitions(results []subSweepOutcome, indices []int, size int) ([]float64, dse.SweepReport, error) {
	merged := make([]float64, size)
	for i := range merged {
		merged[i] = math.NaN()
	}
	// settled holds completed indices while the values merge, then
	// failed ones too.
	settled := make([]bool, size)
	runs := make([][]int, len(results))
	rep := dse.SweepReport{Total: len(indices)}
	var firstErr error
	for i, sub := range results {
		for _, idx := range sub.report.Completed {
			settled[idx] = true
		}
		switch {
		case sub.bits != nil:
			for k, idx := range sub.group {
				if settled[idx] {
					merged[idx] = bitsAt(sub.bits, k)
				}
			}
		case sub.values != nil:
			for _, idx := range sub.report.Completed {
				merged[idx] = sub.values[idx]
			}
		}
		runs[i] = sub.report.Completed
		rep.Failed = append(rep.Failed, sub.report.Failed...)
		rep.Retries += sub.report.Retries
		rep.Resumed += sub.report.Resumed
		rep.CacheHits += sub.report.CacheHits
		if sub.err != nil && !isContextErr(sub.err) && firstErr == nil {
			firstErr = sub.err
		}
	}
	rep.Completed = mergeSorted(runs)
	sort.Slice(rep.Failed, func(i, j int) bool { return rep.Failed[i].Index < rep.Failed[j].Index })
	for _, f := range rep.Failed {
		settled[f.Index] = true
	}
	for _, idx := range indices {
		if !settled[idx] {
			rep.Pending = append(rep.Pending, idx)
		}
	}
	return merged, rep, firstErr
}

// mergeSorted merges ascending runs into one ascending list, one run at
// a time, keeping duplicates: a repeated index completes once per
// occurrence. Runs with no entries merge to nil, as an empty append
// would leave it.
func mergeSorted(runs [][]int) []int {
	var out []int
	for _, r := range runs {
		if len(out) == 0 {
			out = r
			continue
		}
		if len(r) == 0 {
			continue
		}
		merged := make([]int, len(out)+len(r))
		i, j := 0, 0
		for k := range merged {
			if j == len(r) || i < len(out) && out[i] <= r[j] {
				merged[k] = out[i]
				i++
			} else {
				merged[k] = r[j]
				j++
			}
		}
		out = merged
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// groupBits packs values[at[k]] at position k as little-endian
// IEEE-754 bit patterns, 8 bytes each: a peer-sweep frame's Bits.
func groupBits(values []float64, at []int) []byte {
	b := make([]byte, 0, 8*len(at))
	for _, idx := range at {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(values[idx]))
	}
	return b
}

// bitsAt reads the value at position k of a peer-sweep frame's Bits.
func bitsAt(bits []byte, k int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(bits[8*k:]))
}

// subSweepFrame is one NDJSON frame of a peer-sweep response, decoded
// once: the frame's type is read in the same pass as its payload.
type subSweepFrame struct {
	SweepResult
	Evaluated int64 `json:"evaluated"` // SweepProgress's count
}

// subSweep runs one remote partition: a peer-sweep exchange streaming
// progress into rp, falling back to a local sweep of the same indices
// when the peer fails mid-flight.
func (s *Server) subSweep(ctx context.Context, req SweepRequest, space dse.Space, ev dse.CtxEvaluator, g *pointGroup, slot int, rp *remoteProgress) subSweepOutcome {
	sub := SweepRequest{
		Model:         req.Model,
		Evaluator:     req.Evaluator,
		Space:         req.Space,
		Indices:       g.idx,
		IncludeValues: true,
		ProgressMS:    200,
	}
	body, err := json.Marshal(sub)
	if err != nil {
		return subSweepOutcome{err: err}
	}
	var result *SweepResult
	err = s.cluster.StreamFromPeer(ctx, g.owner, "/internal/v1/peer-sweep", body, func(line []byte) error {
		if line == nil {
			// Attempt boundary: the whole exchange restarts, so drop any
			// partial progress from the previous try.
			rp.set(slot, 0)
			result = nil
			return nil
		}
		var frame subSweepFrame
		if err := json.Unmarshal(line, &frame); err != nil {
			return err
		}
		switch frame.Type {
		case "progress":
			rp.set(slot, frame.Evaluated)
			return nil
		case "result":
			if err := checkSubSweep(&frame.SweepResult, space.Size(), g.idx); err != nil {
				return err
			}
			result = &frame.SweepResult
			return nil
		default:
			return validationf("server: unknown sub-sweep frame type %q", frame.Type)
		}
	})
	switch {
	case err == nil && result != nil && result.Error == nil:
		return subSweepOutcome{bits: result.Bits, group: g.idx, report: result.Report}
	case ctx.Err() != nil:
		// Cancelled: leave the partition pending, exactly like an
		// interrupted local sweep.
		return subSweepOutcome{err: ctx.Err()}
	}
	// The peer died or answered garbage: recompute this share locally,
	// without the checkpoint path (the coordinator writes the merged
	// checkpoint once at the end).
	s.cluster.CountFallback(len(g.idx))
	fallbackOpts := dse.SweepOptions{Engine: s.eng}
	values, report, err := dse.SweepCtx(ctx, ev, space, g.idx, fallbackOpts)
	return subSweepOutcome{values: values, report: report, err: err}
}

// checkSubSweep holds a peer-sweep result frame to the rule peer-eval
// responses meet: an 8-byte bit pattern for each forwarded index, a
// completed list sorted ascending, and completed and failed indices
// inside the space of size points and in the forwarded group, each
// claimed at most as often as the group holds it (a repeated index
// completes once per occurrence). Anything else, a frame with decimal
// values and no bits included, fails the exchange, so the group falls
// back to local compute instead of merging a bad frame as data.
func checkSubSweep(res *SweepResult, size int, group []int) error {
	if len(res.Bits) != 8*len(group) {
		return fmt.Errorf("server: peer-sweep result carries %d value bytes for a group of %d, want 8 a value", len(res.Bits), len(group))
	}
	completed := res.Report.Completed
	for k := 1; k < len(completed); k++ {
		if completed[k] < completed[k-1] {
			return fmt.Errorf("server: peer-sweep completed list is not sorted at position %d", k)
		}
	}
	open := make([]int32, size) // claims left, by flat index
	for _, idx := range group {
		if idx >= 0 && idx < size {
			open[idx]++
		}
	}
	claim := func(idx int) error {
		if idx < 0 || idx >= size || open[idx] == 0 {
			return fmt.Errorf("server: peer-sweep reports index %d outside the forwarded group or more often than forwarded", idx)
		}
		open[idx]--
		return nil
	}
	for _, idx := range completed {
		if err := claim(idx); err != nil {
			return err
		}
	}
	for _, f := range res.Report.Failed {
		if err := claim(f.Index); err != nil {
			return err
		}
	}
	return nil
}

// isContextErr mirrors handleSweep's classification for the merge: a
// cancelled partition leaves pending work, it is not a request failure.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
