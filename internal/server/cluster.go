package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
)

// This file is the server half of the cluster tier (DESIGN.md §15): the
// peer endpoint a remote coordinator calls, and the routing that turns
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

// partitionPoints splits points by ring ownership under one ring
// generation: the local positions, plus one group per remote owner in
// first-appearance order (no map iteration, so the fan-out order is
// deterministic).
func (s *Server) partitionPoints(fp string, points [][]float64) (local []int, remote []*pointGroup) {
	// The first pass places each point and counts each owner's share, so
	// the second fills lists of their final size instead of growing them.
	slot := make([]int32, len(points)) // 0: local; g+1: remote[g]
	sizes := []int{0}
	groups := make(map[string]int32)
	seed, ring := engine.KeySeed(fp), s.cluster.Ring()
	for k, p := range points {
		owner, isLocal := ring.Owner(engine.KeyHash(seed, p))
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

// routedStream is streamRouted as a dse.Streamer, so a clustered
// /v1/sweep is dse.SweepCtx over the ring router: its report,
// checkpoints, resume and progress are the single node's by
// construction. remoteEvals receives the owners' evaluator invocations,
// one exchange at a time, for the sweep's progress count.
type routedStream struct {
	s           *Server
	ms          ModelSpec
	es          EvaluatorSpec
	remoteEvals *atomic.Int64
}

// EvaluateStream implements dse.Streamer.
func (rs routedStream) EvaluateStream(ctx context.Context, ev dse.CtxEvaluator, points [][]float64, yield func(int, engine.Outcome)) error {
	return rs.s.streamRouted(ctx, ev, rs.ms, rs.es, points, rs.remoteEvals, yield)
}

// streamRouted is EvaluateStream through the cluster tier: locally
// owned points run on the shared engine, remote-owned groups travel to
// their owner's peer-eval endpoint (so the owner's cache serves or
// learns them), and any peer failure recomputes that group locally.
// yield is serialized but may be called from several goroutines' turns;
// with no cluster (or an uncacheable evaluator, which has no ring key)
// the call degrades to plain EvaluateStream. A remote group's owner
// evaluator invocations are added to remoteEvals (when non-nil) as its
// exchange returns.
func (s *Server) streamRouted(ctx context.Context, ev dse.CtxEvaluator, ms ModelSpec, es EvaluatorSpec, points [][]float64, remoteEvals *atomic.Int64, yield func(int, engine.Outcome)) error {
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
			//lint:allow detguard the breaker's wall clock picks where a point runs (owner or local fallback), never its value
			outs, err := s.cluster.EvalOnPeer(ctx, g.owner, cluster.PeerEvalRequest{
				Model:     rawModel,
				Evaluator: rawEval,
				Points:    pts,
			})
			if err == nil {
				evals := 0
				for k, o := range outs {
					evals += o.Attempts
					emit(g.idx[k], engine.Outcome{Value: o.Value, Attempts: o.Attempts, CacheHit: o.CacheHit, Err: o.Err})
				}
				if remoteEvals != nil {
					remoteEvals.Add(int64(evals))
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
// ring disagreement between peers cannot ping-pong a batch. Both bodies
// are the cluster's binary peer wire (cluster.ReadPeerEvalRequest,
// cluster.PeerEvalResponse). The response goes out once every
// point has an outcome; a cut-short batch (the deadline, or the
// coordinator gone) answers with an error instead, so its coordinator
// recomputes the batch rather than reading part of it.
func (s *Server) handlePeerEval(w http.ResponseWriter, r *http.Request) {
	req, err := cluster.ReadPeerEvalRequest(r.Body)
	if err != nil {
		s.fail(w, validationf("server: %v", err))
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
	// The wire gives every point the same dimensionality.
	if err := checkPointDims(fm, req.Points[0]); err != nil {
		s.fail(w, err)
		return
	}
	resp := cluster.NewPeerEvalResponse(len(req.Points))
	err = s.eng.EvaluateStream(r.Context(), ev, req.Points, func(i int, o engine.Outcome) {
		resp.Set(i, cluster.PeerOutcome{Value: o.Value, Attempts: o.Attempts, CacheHit: o.CacheHit || o.Shared, Err: o.Err})
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = resp.WriteTo(w)
}
