package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/aps"
	"repro/internal/cluster"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// maxRequestBody bounds every request body read; the largest legitimate
// payload (a full batch of MaxBatchPoints six-float points) stays
// well inside it.
const maxRequestBody = 64 << 20

// decodeJSON reads one JSON document from the request into v, rejecting
// trailing garbage and unknown fields so client typos fail loudly.
func decodeJSON(r *http.Request, v interface{}) error {
	if err := decodeStrict(io.LimitReader(r.Body, maxRequestBody), v); err != nil {
		return validationf("server: decoding request: %v", err)
	}
	return nil
}

// decodeStrict decodes exactly one JSON document from rd into v: an
// unknown field, or anything but whitespace after the document, is an
// error.
func decodeStrict(rd io.Reader, v interface{}) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// writeJSON renders v as the 200 response. An encode failure here means
// the client hung up mid-write; the headers are gone, nothing to repair.
func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// --- status plane ---------------------------------------------------

// handleHealthz is pure liveness: the process answers.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
}

// readyzResponse is the /readyz payload: readiness plus the engine and
// server statistics (stable JSON field names, covered by tests).
type readyzResponse struct {
	Ready  bool            `json:"ready"`
	Server Stats           `json:"server"`
	Engine engine.Snapshot `json:"engine"`
	Models []string        `json:"models"`
	// Tenants lists the configured tenant names (the anonymous identity
	// in open single-tenant mode).
	Tenants []string `json:"tenants,omitempty"`
	// Jobs counts known jobs when /v1/jobs is enabled.
	Jobs int `json:"jobs,omitempty"`
	// Cluster summarizes the peer ring when the server is clustered:
	// membership size, alive/ejected counts and open breakers.
	Cluster *cluster.Summary `json:"cluster,omitempty"`
}

// handleReadyz reports readiness: 200 while serving, 503 once draining,
// both with the full statistics payload so operators see the state that
// produced the answer.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := readyzResponse{
		Ready:   s.Ready(),
		Server:  s.Stats(),
		Engine:  s.eng.Snapshot(),
		Models:  s.catalog.Names(),
		Tenants: s.tenants.namesSnapshot(),
	}
	if s.jobs != nil {
		s.jobs.mu.Lock()
		resp.Jobs = len(s.jobs.entries)
		s.jobs.mu.Unlock()
	}
	if s.cluster != nil {
		sum := s.cluster.Summary()
		resp.Cluster = &sum
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// handleMetrics serves the obs registry's Prometheus-style exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.WriteText(w)
}

// --- single evaluation ----------------------------------------------

// EvaluateRequest asks for one design point's objective value.
type EvaluateRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	// Point is the six-dimensional design point (A0, A1, A2, N, issue,
	// ROB) in paper order.
	Point []float64 `json:"point"`
}

// EvaluateResponse is one scored point. Value is +Inf for infeasible
// configurations (feasible=false), encoded as the string "+Inf".
type EvaluateResponse struct {
	Value    jsonFloat `json:"value"`
	Feasible bool      `json:"feasible"`
	CacheHit bool      `json:"cache_hit"`
	Shared   bool      `json:"shared"`
	Attempts int       `json:"attempts"`
}

// testWrapEvaluator, when non-nil, wraps every evaluator the server
// resolves — singles, batches, sweeps, APS, and job attempts. Tests
// point it at a fault-injection harness to prove the error envelope
// stays stable when the engine misbehaves; production code never sets
// it.
var testWrapEvaluator func(dse.CtxEvaluator) dse.CtxEvaluator

// wrapEvaluator applies the test fault hook when one is installed.
func wrapEvaluator(ev dse.CtxEvaluator) dse.CtxEvaluator {
	if testWrapEvaluator != nil {
		return testWrapEvaluator(ev)
	}
	return ev
}

// resolveWork builds the (model, evaluator) pair shared by the point
// and batch endpoints, returning the resolved model too so callers can
// validate point dimensionality against its declared space. Every
// family, c2bound included, goes through the registry and is keyed by
// its family-qualified fingerprint, so catalog/1 and catalog/2 clients
// share memo entries.
func (s *Server) resolveWork(m ModelSpec, e EvaluatorSpec) (model.Model, dse.CtxEvaluator, error) {
	fm, err := s.catalog.ResolveModel(m)
	if err != nil {
		return nil, nil, err
	}
	ev, err := s.catalog.EvaluatorFamily(fm, e)
	if err != nil {
		return nil, nil, err
	}
	return fm, wrapEvaluator(ev), nil
}

// checkPointDims validates a point's dimensionality against the
// resolved family's declared space, naming the expected dimensions in
// the error.
func checkPointDims(fm model.Model, p []float64) error {
	params := fm.Space().Params
	if len(p) == len(params) {
		return nil
	}
	names := make([]string, len(params))
	for i, pr := range params {
		names[i] = pr.Name
	}
	return validationf("server: point has %d dims, want %d (%s)", len(p), len(params), strings.Join(names, ", "))
}

// handleEvaluate scores one point through the shared engine.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	var req EvaluateRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		s.fail(w, err)
		return
	}
	if err := checkPointDims(fm, req.Point); err != nil {
		s.fail(w, err)
		return
	}
	// One-point stream rather than Do: the stream path takes a slot of
	// the engine's fair-share gate, so a single-point flood from
	// one tenant cannot crowd the pool any more than a batch can. In a
	// cluster the point may resolve on its ring owner's cache instead.
	var out engine.Outcome
	streamErr := s.streamRouted(r.Context(), ev, req.Model, req.Evaluator, [][]float64{req.Point}, nil, func(_ int, o engine.Outcome) {
		out = o
	})
	if streamErr != nil {
		s.fail(w, streamErr)
		return
	}
	if out.Err != nil {
		s.fail(w, out.Err)
		return
	}
	writeJSON(w, EvaluateResponse{
		Value:    jsonFloat(out.Value),
		Feasible: !math.IsInf(out.Value, 1) && !math.IsNaN(out.Value),
		CacheHit: out.CacheHit,
		Shared:   out.Shared,
		Attempts: out.Attempts,
	})
}

// fail counts and renders an error envelope.
func (s *Server) fail(w http.ResponseWriter, err error) {
	s.errors.Add(1)
	writeError(w, err)
}

// --- batch evaluation ------------------------------------------------

// BatchRequest asks for many points; results stream back as NDJSON in
// submission order.
type BatchRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Points    [][]float64   `json:"points"`
}

// BatchResult is one NDJSON line of a batch response.
type BatchResult struct {
	Index    int        `json:"index"`
	Value    *jsonFloat `json:"value,omitempty"`
	CacheHit bool       `json:"cache_hit,omitempty"`
	Shared   bool       `json:"shared,omitempty"`
	Attempts int        `json:"attempts,omitempty"`
	Error    *ErrorBody `json:"error,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch response.
type BatchSummary struct {
	Done      bool         `json:"done"`
	Points    int          `json:"points"`
	CacheHits int          `json:"cache_hits"`
	Errors    int          `json:"errors"`
	Canceled  bool         `json:"canceled,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	Engine    engine.Stats `json:"engine"`
}

// handleBatch fans the points out through engine.EvaluateStream and
// streams each outcome as one NDJSON line, re-sequenced into submission
// order. Per-point failures are lines with an error field, not request
// failures; the stream always ends with a summary line.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	if len(req.Points) == 0 {
		s.fail(w, validationf("server: batch carries no points"))
		return
	}
	if len(req.Points) > MaxBatchPoints {
		s.fail(w, validationf("server: batch of %d points exceeds the %d-point bound", len(req.Points), MaxBatchPoints))
		return
	}
	fm, ev, err := s.resolveWork(req.Model, req.Evaluator)
	if err != nil {
		s.fail(w, err)
		return
	}
	for i, p := range req.Points {
		if err := checkPointDims(fm, p); err != nil {
			s.fail(w, validationf("server: point %d: %s", i, strings.TrimPrefix(err.Error(), "server: ")))
			return
		}
	}

	start := time.Now()
	stats0 := s.eng.Stats()
	out := newNDJSONWriter(w)
	ordered := newOrderedEmitter(out)
	hits, failures := 0, 0
	streamErr := s.streamRouted(r.Context(), ev, req.Model, req.Evaluator, req.Points, nil, func(i int, o engine.Outcome) {
		line := BatchResult{Index: i, CacheHit: o.CacheHit, Shared: o.Shared, Attempts: o.Attempts}
		if o.Err != nil {
			failures++
			_, body := classify(o.Err)
			line.Error = &body
		} else {
			v := jsonFloat(o.Value)
			line.Value = &v
		}
		if o.CacheHit || o.Shared {
			hits++
		}
		ordered.Add(i, line)
	})
	out.Emit(BatchSummary{
		Done:      true,
		Points:    len(req.Points),
		CacheHits: hits,
		Errors:    failures,
		Canceled:  streamErr != nil,
		ElapsedMS: time.Since(start).Milliseconds(),
		Engine:    s.eng.Stats().Delta(stats0),
	})
}

// --- streaming sweep -------------------------------------------------

// SweepRequest runs a server-side resilient sweep over a space.
type SweepRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Space     SpaceSpec     `json:"space"`
	// Indices restricts the sweep to these flat indices (nil: the whole
	// space).
	Indices []int `json:"indices,omitempty"`
	// Checkpoint names a checkpoint file inside the server's checkpoint
	// directory; Resume restores it before sweeping.
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume,omitempty"`
	// CheckpointEvery is the completed-evaluation cadence between
	// periodic checkpoint writes (0: the sweep default).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// IncludeValues asks for the dense values in the result frame.
	IncludeValues bool `json:"include_values,omitempty"`
	// ProgressMS is the progress-frame cadence in milliseconds (0: 500).
	ProgressMS int `json:"progress_ms,omitempty"`
}

// SweepProgress is a periodic NDJSON heartbeat of a running sweep.
type SweepProgress struct {
	Type string `json:"type"` // "progress"
	// Evaluated counts raw evaluator invocations so far (cache hits do
	// not appear here; they cost no evaluation).
	Evaluated int64 `json:"evaluated"`
	Total     int   `json:"total"`
	ElapsedMS int64 `json:"elapsed_ms"`
}

// SweepResult is the final NDJSON frame of a sweep response. The best
// design and dense values are a sweep job's payload, embedded so the
// frame's field order is unchanged.
type SweepResult struct {
	Type   string          `json:"type"` // "result"
	Report dse.SweepReport `json:"report"`
	SweepJobResult
	Error  *ErrorBody   `json:"error,omitempty"`
	Engine engine.Stats `json:"engine"`
}

// countingEvaluator wraps an evaluator with a raw-invocation counter for
// per-request progress frames; the fingerprint forwards so memoization
// still applies.
type countingEvaluator struct {
	inner robust.Evaluator
	n     *atomic.Int64
}

func (c countingEvaluator) EvaluateCtx(ctx context.Context, point []float64) (float64, error) {
	c.n.Add(1)
	return c.inner.EvaluateCtx(ctx, point)
}

// Fingerprint implements engine.Fingerprinter by forwarding the wrapped
// evaluator's identity (counting is transparent to memoization).
func (c countingEvaluator) Fingerprint() string {
	if f, ok := c.inner.(engine.Fingerprinter); ok {
		return f.Fingerprint()
	}
	return ""
}

// countingBatchEvaluator additionally forwards the batched path, so
// counting a batch-capable evaluator (the catalog models) does not
// silently demote sweeps to per-point dispatch.
type countingBatchEvaluator struct {
	countingEvaluator
	batch engine.BatchEvaluator
}

func (c countingBatchEvaluator) EvaluateBatch(ctx context.Context, points [][]float64, out []float64) error {
	c.n.Add(int64(len(points)))
	return c.batch.EvaluateBatch(ctx, points, out)
}

// withCount wraps ev with the counter, preserving cacheability — an
// evaluator without a fingerprint stays anonymous (the engine must not
// cache under an empty shared key) — and batch capability.
func withCount(ev dse.CtxEvaluator, n *atomic.Int64) dse.CtxEvaluator {
	if f, ok := ev.(engine.Fingerprinter); ok && f.Fingerprint() != "" {
		if be, ok := ev.(engine.BatchEvaluator); ok {
			return countingBatchEvaluator{
				countingEvaluator: countingEvaluator{inner: ev, n: n},
				batch:             be,
			}
		}
		return countingEvaluator{inner: ev, n: n}
	}
	return robust.EvaluatorFunc(func(ctx context.Context, point []float64) (float64, error) {
		n.Add(1)
		return ev.EvaluateCtx(ctx, point)
	})
}

// handleSweep runs dse.SweepCtx on the shared engine and streams NDJSON:
// progress heartbeats while the sweep runs, then one result frame with
// the structured report (and optionally the dense values). It adds the
// progress frames to the sweep runner that sweep jobs share. In a
// cluster the sweep's engine is the ring router (routedStream), chosen
// here rather than in the runner: detguard checks the runner as part
// of the job path, and sweep jobs run locally.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	sr, err := s.sweepInputs(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	ckPath, err := s.checkpointPath(r.Context(), req.Checkpoint)
	if err != nil {
		s.fail(w, err)
		return
	}
	if req.Resume && ckPath == "" {
		s.fail(w, validationf("server: resume requires a checkpoint name"))
		return
	}
	var evaluated atomic.Int64
	unlock, err := s.openSweep(sr, ckPath, req.Resume, &evaluated)
	if err != nil {
		s.fail(w, err)
		return
	}
	defer unlock()
	if s.cluster != nil {
		sr.opts.Engine = routedStream{s: s, ms: req.Model, es: req.Evaluator, remoteEvals: &evaluated}
	}

	cadence := time.Duration(req.ProgressMS) * time.Millisecond
	if cadence <= 0 {
		cadence = 500 * time.Millisecond
	}
	start := time.Now()
	stats0 := s.eng.Stats()
	out := newNDJSONWriter(w)

	var frame SweepResult
	var sweepErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		frame, sweepErr = sr.run(r.Context())
	}()
	ticker := time.NewTicker(cadence)
	defer ticker.Stop()
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-ticker.C:
			out.Emit(SweepProgress{
				Type:      "progress",
				Evaluated: evaluated.Load(),
				Total:     sr.total(),
				ElapsedMS: time.Since(start).Milliseconds(),
			})
		}
	}
	frame.Engine = s.eng.Stats().Delta(stats0)
	if sweepErr != nil && !errors.Is(sweepErr, context.Canceled) {
		_, body := classify(sweepErr)
		frame.Error = &body
	}
	out.Emit(frame)
}

// sweepRun is one resolved sweep request. handleSweep and sweep jobs
// resolve it with sweepInputs, claim its checkpoint with openSweep and
// run it with run.
type sweepRun struct {
	req   *SweepRequest
	space dse.Space
	ev    dse.CtxEvaluator
	opts  dse.SweepOptions
}

// sweepInputs resolves a sweep request's model (any family), space and
// evaluator and checks its indices against the space; /v1/sweep, job
// submission and job runs share it.
func (s *Server) sweepInputs(req *SweepRequest) (*sweepRun, error) {
	fm, err := s.catalog.ResolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	space, err := s.catalog.SpaceFamily(fm, req.Space)
	if err != nil {
		return nil, err
	}
	ev, err := s.catalog.EvaluatorFamily(fm, req.Evaluator)
	if err != nil {
		return nil, err
	}
	for _, idx := range req.Indices {
		if idx < 0 || idx >= space.Size() {
			return nil, validationf("server: index %d outside space of %d points", idx, space.Size())
		}
	}
	return &sweepRun{
		req:   req,
		space: space,
		ev:    wrapEvaluator(ev),
		opts:  dse.SweepOptions{Engine: s.eng, CheckpointEvery: req.CheckpointEvery},
	}, nil
}

// total is the number of points the sweep covers.
func (sr *sweepRun) total() int {
	if len(sr.req.Indices) > 0 {
		return len(sr.req.Indices)
	}
	return sr.space.Size()
}

// openSweep claims the checkpoint at path for sr (empty: none; resume
// restores it first) and counts sr's raw evaluator invocations into n.
// Claiming is separate from run so /v1/sweep answers a conflict with 409
// before it starts streaming; the caller runs sr, then calls unlock.
func (s *Server) openSweep(sr *sweepRun, path string, resume bool, n *atomic.Int64) (unlock func(), err error) {
	unlock, err = s.lockCheckpoint(path)
	if err != nil {
		return nil, err
	}
	sr.ev = withCount(sr.ev, n)
	sr.opts.CheckpointPath, sr.opts.Resume = path, resume
	return unlock, nil
}

// run sweeps sr and renders its result frame: the report, the best
// design, and the values when the request asks for them. The best
// design and values derive from the values alone, so a resumed run
// reproduces them bit for bit.
func (sr *sweepRun) run(ctx context.Context) (SweepResult, error) {
	values, report, err := dse.SweepCtx(ctx, sr.ev, sr.space, sr.req.Indices, sr.opts)
	idx, val := dse.Best(values)
	res := SweepResult{Type: "result", Report: report}
	res.BestIndex, res.BestValue = idx, bestValue(idx, val)
	if idx >= 0 {
		res.BestPoint = sr.space.Point(idx)
	}
	if sr.req.IncludeValues {
		res.Values = valuesOf(values)
	}
	return res, err
}

// --- APS -------------------------------------------------------------

// APSRequest runs the full Analysis-Plus-Simulation flow server-side.
type APSRequest struct {
	Model     ModelSpec     `json:"model"`
	Evaluator EvaluatorSpec `json:"evaluator,omitzero"`
	Space     SpaceSpec     `json:"space"`
	// Radius widens the simulated neighborhood around the analytic
	// optimum (0: the paper's issue×ROB-only slice).
	Radius int `json:"radius,omitempty"`
	// Metric selects the objective: "time" (default) or "time_per_work".
	Metric     string `json:"metric,omitempty"`
	Checkpoint string `json:"checkpoint,omitempty"`
	Resume     bool   `json:"resume,omitempty"`
}

// APSDesign is the analytic solution in response form.
type APSDesign struct {
	N        int       `json:"n"`
	CoreArea jsonFloat `json:"a0"`
	L1Area   jsonFloat `json:"a1"`
	L2Area   jsonFloat `json:"a2"`
	Time     jsonFloat `json:"time"`
	Method   string    `json:"method"`
	Regime   int       `json:"regime"`
}

// APSResponse is the JSON result of an APS run.
type APSResponse struct {
	Analytic       APSDesign       `json:"analytic"`
	Snapped        []int           `json:"snapped"`
	BestIndex      int             `json:"best_index"`
	BestPoint      []float64       `json:"best_point,omitempty"`
	BestValue      *jsonFloat      `json:"best_value,omitempty"`
	Simulations    int             `json:"simulations"`
	AnalyticPoints int             `json:"analytic_points"`
	SpaceSize      int             `json:"space_size"`
	Report         dse.SweepReport `json:"report"`
	Engine         engine.Stats    `json:"engine"`
}

// handleAPS runs an APS request through the runner APS jobs share.
func (s *Server) handleAPS(w http.ResponseWriter, r *http.Request) {
	var req APSRequest
	if err := decodeJSON(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	ar, err := s.apsInputs(&req)
	if err != nil {
		s.fail(w, err)
		return
	}
	ckPath, err := s.checkpointPath(r.Context(), req.Checkpoint)
	if err != nil {
		s.fail(w, err)
		return
	}
	var evaluated atomic.Int64
	resp, err := s.runAPSRequest(r.Context(), ar, ckPath, req.Resume, &evaluated)
	if err != nil {
		s.fail(w, fmt.Errorf("aps: %w", err))
		return
	}
	writeJSON(w, resp)
}

// apsRun is one validated APS request. The C²-Bound family carries the
// space, evaluator and metric of the full flow (aps.RunCtx); every other
// family has no analytic optimizer phase, so its run is the exhaustive
// grid scan of its declared space (aps.RunModelCtx), which builds its own
// evaluator.
type apsRun struct {
	req    *APSRequest
	fm     model.Model
	cb     *model.C2Bound // nil: a grid-scan family
	space  dse.Space
	ev     dse.CtxEvaluator
	metric aps.Metric
}

// apsInputs validates an APS request for any family and resolves what
// its run needs; /v1/aps, job submission and job runs share it.
func (s *Server) apsInputs(req *APSRequest) (*apsRun, error) {
	fm, err := s.catalog.ResolveModel(req.Model)
	if err != nil {
		return nil, err
	}
	ar := &apsRun{req: req, fm: fm}
	cb, isC2 := fm.(*model.C2Bound)
	if !isC2 {
		switch {
		case len(req.Space.Params) > 0:
			err = validationf("server: family APS sweeps the family's declared space; use per, not an explicit grid")
		case req.Space.Per < 0:
			err = validationf("server: space per=%d is negative", req.Space.Per)
		case req.Radius != 0:
			err = validationf("server: family APS scans the whole grid and has no neighborhood; radius must be 0, got %d", req.Radius)
		case req.Metric != "" && req.Metric != "time":
			err = validationf("server: family APS supports only the time metric, got %q", req.Metric)
		case req.Evaluator.Kind != "" && req.Evaluator.Kind != "model":
			err = validationf("server: family APS needs the model evaluator, got %q", req.Evaluator.Kind)
		}
		if err != nil {
			return nil, err
		}
		return ar, nil
	}
	if req.Radius < 0 {
		return nil, validationf("server: radius=%d is negative", req.Radius)
	}
	ar.cb = cb
	if ar.space, err = s.catalog.SpaceFamily(fm, req.Space); err != nil {
		return nil, err
	}
	ev, err := s.catalog.EvaluatorFamily(fm, req.Evaluator)
	if err != nil {
		return nil, err
	}
	ar.ev = wrapEvaluator(ev)
	switch req.Metric {
	case "", "time":
		ar.metric = aps.MetricTime
	case "time_per_work":
		ar.metric = aps.MetricTimePerWork
	default:
		return nil, validationf("server: unknown metric %q (want time or time_per_work)", req.Metric)
	}
	return ar, nil
}

// runAPSRequest runs a validated APS request on the shared engine under
// the checkpoint at path (resume: restore it first) and renders the
// /v1/aps response, whose deterministic part is an APS job's payload.
// n counts the simulated slice's raw evaluator invocations; a grid-scan
// family's run counts none. On error the response is partial.
func (s *Server) runAPSRequest(ctx context.Context, ar *apsRun, path string, resume bool, n *atomic.Int64) (APSResponse, error) {
	unlock, err := s.lockCheckpoint(path)
	if err != nil {
		return APSResponse{}, err
	}
	defer unlock()
	sweep := dse.SweepOptions{CheckpointPath: path, Resume: resume}
	if ar.cb == nil {
		res, err := aps.RunModelCtx(ctx, ar.fm, aps.ModelOptions{Engine: s.eng, Per: ar.req.Space.Per, Sweep: sweep})
		return APSResponse{
			Analytic:       APSDesign{Method: "grid"},
			Snapped:        []int{},
			BestIndex:      res.BestIdx,
			BestPoint:      res.BestPoint,
			BestValue:      bestValue(res.BestIdx, res.BestValue),
			AnalyticPoints: res.SpaceSize,
			SpaceSize:      res.SpaceSize,
			Report:         res.Report,
			Engine:         res.Engine,
		}, err
	}
	res, err := aps.RunCtx(ctx, ar.cb.CoreModel(), ar.space, withCount(ar.ev, n), aps.Options{
		Engine: s.eng,
		Radius: ar.req.Radius,
		Metric: ar.metric,
		Sweep:  sweep,
	})
	d := res.Analytic.Design
	return APSResponse{
		Analytic: APSDesign{
			N:        d.N,
			CoreArea: jsonFloat(d.CoreArea),
			L1Area:   jsonFloat(d.L1Area),
			L2Area:   jsonFloat(d.L2Area),
			Time:     jsonFloat(res.Analytic.Eval.Time),
			Method:   res.Analytic.Method,
			Regime:   int(res.Analytic.Regime),
		},
		Snapped:        res.Snapped,
		BestIndex:      res.BestIdx,
		BestPoint:      res.BestPoint,
		BestValue:      bestValue(res.BestIdx, res.BestValue),
		Simulations:    res.Simulations,
		AnalyticPoints: res.AnalyticPoints,
		SpaceSize:      res.SpaceSize,
		Report:         res.Report,
		Engine:         res.Engine,
	}, err
}

// bestValue renders an optimum's value for the wire: nil when no point
// was feasible (idx < 0). Sweep frames, sweep jobs and APS responses
// all fill their best value through it.
func bestValue(idx int, v float64) *jsonFloat {
	if idx < 0 {
		return nil
	}
	jv := jsonFloat(v)
	return &jv
}

// jobResult is the deterministic part of an APS response: an APS job's
// payload (simulation and cache counters live in the job's report).
func (r APSResponse) jobResult() APSJobResult {
	return APSJobResult{
		Analytic:       r.Analytic,
		Snapped:        r.Snapped,
		BestIndex:      r.BestIndex,
		BestPoint:      r.BestPoint,
		BestValue:      r.BestValue,
		AnalyticPoints: r.AnalyticPoints,
		SpaceSize:      r.SpaceSize,
	}
}

// --- catalog ---------------------------------------------------------

// CatalogParam documents one family parameter on the wire.
type CatalogParam struct {
	Name    string    `json:"name"`
	Lo      jsonFloat `json:"lo"`
	Hi      jsonFloat `json:"hi"`
	Default jsonFloat `json:"default"`
	Doc     string    `json:"doc,omitempty"`
}

// CatalogFamily documents one registered model family on the wire.
type CatalogFamily struct {
	Name   string         `json:"name"`
	Doc    string         `json:"doc,omitempty"`
	Params []CatalogParam `json:"params,omitempty"`
}

// CatalogResponse is the GET /v1/catalog payload: the wire schema, the
// named applications, and every registered model family with its
// documented parameter domains.
type CatalogResponse struct {
	Schema   string          `json:"schema"`
	Apps     []string        `json:"apps"`
	Families []CatalogFamily `json:"families"`
}

// handleCatalog lists the applications and model families a client can
// name in a ModelSpec, with the parameter domains the server validates
// overrides against.
func (s *Server) handleCatalog(w http.ResponseWriter, _ *http.Request) {
	resp := CatalogResponse{
		Schema: CatalogSchema,
		Apps:   s.catalog.Names(),
	}
	for _, name := range s.catalog.Families() {
		f, ok := model.Lookup(name)
		if !ok {
			continue
		}
		cf := CatalogFamily{Name: f.Name, Doc: f.Doc}
		for _, p := range f.Params {
			cf.Params = append(cf.Params, CatalogParam{
				Name:    p.Name,
				Lo:      jsonFloat(p.Lo),
				Hi:      jsonFloat(p.Hi),
				Default: jsonFloat(p.Default),
				Doc:     p.Doc,
			})
		}
		resp.Families = append(resp.Families, cf)
	}
	writeJSON(w, resp)
}
