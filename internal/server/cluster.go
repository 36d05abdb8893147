package server

import (
	"context"
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

// partitionPoints splits points by ring ownership: the local indices,
// plus one group per remote owner in first-appearance order (no map
// iteration, so the fan-out order is deterministic).
func (s *Server) partitionPoints(fp string, points [][]float64) (local []int, remote []*pointGroup) {
	groups := make(map[string]*pointGroup)
	seed := engine.KeySeed(fp)
	for i, p := range points {
		owner, isLocal := s.cluster.Owner(engine.KeyHash(seed, p))
		if isLocal {
			local = append(local, i)
			continue
		}
		g := groups[owner]
		if g == nil {
			g = &pointGroup{owner: owner}
			groups[owner] = g
			remote = append(remote, g)
		}
		g.idx = append(g.idx, i)
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
	local, remote := s.partitionPoints(fp, points)
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
// (the coordinator already split the slab by ring ownership; a second
// split here could ping-pong under ring disagreement). The wire shape
// is /v1/sweep's, except that the result frame's values are the
// forwarded indices' values, in request order.
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

// subSweepOutcome is one remote partition's merged contribution.
type subSweepOutcome struct {
	values []float64
	report dse.SweepReport
	err    error
}

// clusterSweep is the cluster-partitioned sweep: the points are split
// by ring ownership (partitionPoints, as for batches), the local share
// runs through dse.SweepCtx (with the request's checkpoint machinery),
// each remote share fans out as a peer sub-sweep whose progress frames
// merge into rp, and the partial values, reports and checkpoints merge
// back into one result.
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
	indices := req.Indices
	if indices == nil {
		indices = make([]int, space.Size())
		for i := range indices {
			indices[i] = i
		}
	}

	// Partition the points by ownership of each one's memo key, then map
	// the groups from positions in indices back to flat indices.
	dims := space.Dims()
	slab := make([]float64, len(indices)*dims)
	points := make([][]float64, len(indices))
	for k, idx := range indices {
		points[k] = space.AppendPoint(slab[k*dims:k*dims], idx)
	}
	local, remote := s.partitionPoints(fp, points)
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

	// Merge values and reports. The local partition's values win first
	// (they may include resumed entries); remote partitions fill their
	// own completed indices.
	merged := make([]float64, space.Size())
	for i := range merged {
		merged[i] = math.NaN()
	}
	var rep dse.SweepReport
	rep.Total = len(indices)
	var firstErr error
	for _, sub := range results {
		if sub.values != nil {
			for _, idx := range sub.report.Completed {
				merged[idx] = sub.values[idx]
			}
		}
		rep.Completed = append(rep.Completed, sub.report.Completed...)
		rep.Failed = append(rep.Failed, sub.report.Failed...)
		rep.Retries += sub.report.Retries
		rep.Resumed += sub.report.Resumed
		rep.CacheHits += sub.report.CacheHits
		if sub.err != nil && !isContextErr(sub.err) && firstErr == nil {
			firstErr = sub.err
		}
	}
	sort.Ints(rep.Completed)
	sort.Slice(rep.Failed, func(i, j int) bool { return rep.Failed[i].Index < rep.Failed[j].Index })
	seen := make([]bool, space.Size())
	for _, idx := range rep.Completed {
		seen[idx] = true
	}
	for _, f := range rep.Failed {
		seen[f.Index] = true
	}
	for _, idx := range indices {
		if !seen[idx] {
			rep.Pending = append(rep.Pending, idx)
		}
	}
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
		// One decode per frame: a result frame is ~20 bytes a point, so
		// the frame's type is read in the same pass as its payload.
		var frame struct {
			SweepResult
			Evaluated int64 `json:"evaluated"` // SweepProgress's count
		}
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
		// Scatter the group's values to their flat indices; the merge
		// reads only the indices the report completed.
		values := make([]float64, space.Size())
		for k, idx := range g.idx {
			values[idx] = float64(result.Values[k])
		}
		return subSweepOutcome{values: values, report: result.Report}
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
// responses meet: one value for each forwarded index, and completed and
// failed indices that are a duplicate-free subset of the forwarded group
// within the space of size points. Anything else fails the exchange, so
// the group falls back to local compute instead of merging a bad frame
// as data.
func checkSubSweep(res *SweepResult, size int, group []int) error {
	if len(res.Values) != len(group) {
		return fmt.Errorf("server: peer-sweep result carries %d values for a group of %d", len(res.Values), len(group))
	}
	open := make([]bool, size)
	for _, idx := range group {
		if idx >= 0 && idx < size {
			open[idx] = true
		}
	}
	claim := func(idx int) error {
		if idx < 0 || idx >= size || !open[idx] {
			return fmt.Errorf("server: peer-sweep reports index %d outside the forwarded group or twice", idx)
		}
		open[idx] = false
		return nil
	}
	for _, idx := range res.Report.Completed {
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
