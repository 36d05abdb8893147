package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/dse"
	"repro/internal/engine"
)

// newTestServer builds a Server with test-friendly knobs.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		// Drain before the TempDir cleanups run: async job runners may
		// still be writing records into a test-owned JobDir.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// postJSON marshals body and POSTs it with the given client.
func postJSON(t *testing.T, client *http.Client, url string, body interface{}) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

// decodeBody decodes a JSON response body into v and closes it.
func decodeBody(t *testing.T, resp *http.Response, v interface{}) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
}

// testPoints returns k distinct valid points of the reduced paper space.
func testPoints(t *testing.T, k int) [][]float64 {
	t.Helper()
	space, err := dse.ReducedSpace(chip.DefaultConfig(), 3)
	if err != nil {
		t.Fatalf("space: %v", err)
	}
	if k > space.Size() {
		t.Fatalf("want %d points, space has %d", k, space.Size())
	}
	pts := make([][]float64, k)
	for i := range pts {
		pts[i] = space.Point(i)
	}
	return pts
}

func TestEvaluateEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	pt := testPoints(t, 1)[0]

	resp := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: pt,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out EvaluateResponse
	decodeBody(t, resp, &out)
	if !out.Feasible || float64(out.Value) <= 0 {
		t.Fatalf("got value=%v feasible=%v, want a positive finite score", out.Value, out.Feasible)
	}
	if out.CacheHit {
		t.Fatalf("first evaluation reported a cache hit")
	}

	// The same point again is a cache hit, even from a different client.
	resp = postJSON(t, &http.Client{}, ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: pt,
	})
	var again EvaluateResponse
	decodeBody(t, resp, &again)
	if !again.CacheHit {
		t.Fatalf("repeat evaluation missed the cache")
	}
	if float64(again.Value) != float64(out.Value) {
		t.Fatalf("cached value %v != computed value %v", again.Value, out.Value)
	}
}

func TestEvaluateOverridesChangeTheResult(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	pt := testPoints(t, 1)[0]

	var base, heavier EvaluateResponse
	decodeBody(t, postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: pt,
	}), &base)
	decodeBody(t, postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm", Overrides: map[string]float64{"fseq": 0.9}},
		Point: pt,
	}), &heavier)
	if heavier.CacheHit {
		t.Fatalf("override produced the base model's cache key")
	}
	if float64(heavier.Value) == float64(base.Value) {
		t.Fatalf("fseq override did not change the score (%v)", base.Value)
	}
}

// TestBatchCacheSharedAcrossClients is the tentpole acceptance check: two
// distinct HTTP clients batching the same points meet in the shared
// engine cache, so the second batch is served without re-evaluation.
func TestBatchCacheSharedAcrossClients(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	points := testPoints(t, 12)
	req := BatchRequest{Model: ModelSpec{App: "fluidanimate"}, Points: points}

	runBatch := func(client *http.Client) ([]BatchResult, BatchSummary) {
		resp := postJSON(t, client, ts.URL+"/v1/evaluate:batch", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d, want 200", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
		}
		var results []BatchResult
		var summary BatchSummary
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.Contains(line, []byte(`"done"`)) {
				if err := json.Unmarshal(line, &summary); err != nil {
					t.Fatalf("summary line: %v", err)
				}
				continue
			}
			var r BatchResult
			if err := json.Unmarshal(line, &r); err != nil {
				t.Fatalf("result line: %v", err)
			}
			results = append(results, r)
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("reading stream: %v", err)
		}
		return results, summary
	}

	// Client A: cold batch.
	coldResults, coldSummary := runBatch(ts.Client())
	if len(coldResults) != len(points) {
		t.Fatalf("cold batch returned %d results, want %d", len(coldResults), len(points))
	}
	for i, r := range coldResults {
		if r.Index != i {
			t.Fatalf("results out of submission order: line %d has index %d", i, r.Index)
		}
		if r.Error != nil {
			t.Fatalf("point %d failed: %+v", i, r.Error)
		}
	}
	if coldSummary.Engine.Evaluations == 0 {
		t.Fatalf("cold batch reported zero engine evaluations")
	}

	// Client B: a separate http.Client (fresh connections), same points.
	warmResults, warmSummary := runBatch(&http.Client{})
	if len(warmResults) != len(points) {
		t.Fatalf("warm batch returned %d results, want %d", len(warmResults), len(points))
	}
	for i, r := range warmResults {
		if !r.CacheHit {
			t.Fatalf("warm point %d was not a cache hit", i)
		}
		if float64(*r.Value) != float64(*coldResults[i].Value) {
			t.Fatalf("warm value %v != cold value %v at %d", *r.Value, *coldResults[i].Value, i)
		}
	}
	if warmSummary.CacheHits != len(points) {
		t.Fatalf("warm summary counts %d cache hits, want %d", warmSummary.CacheHits, len(points))
	}
	if warmSummary.Engine.Evaluations != 0 {
		t.Fatalf("warm batch re-evaluated %d points", warmSummary.Engine.Evaluations)
	}
	if got := s.Engine().Stats().CacheHits; got < uint64(len(points)) {
		t.Fatalf("engine recorded %d cache hits, want ≥ %d", got, len(points))
	}
}

func TestErrorEnvelopes(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	pt := testPoints(t, 1)[0]

	cases := []struct {
		name   string
		url    string
		body   interface{}
		status int
		code   string
	}{
		{"unknown app", "/v1/evaluate", EvaluateRequest{Model: ModelSpec{App: "nope"}, Point: pt},
			http.StatusNotFound, CodeNotFound},
		{"override out of domain", "/v1/evaluate",
			EvaluateRequest{Model: ModelSpec{App: "tmm", Overrides: map[string]float64{"fseq": 1.5}}, Point: pt},
			http.StatusBadRequest, CodeValidation},
		{"unknown override", "/v1/evaluate",
			EvaluateRequest{Model: ModelSpec{App: "tmm", Overrides: map[string]float64{"bogus": 1}}, Point: pt},
			http.StatusBadRequest, CodeValidation},
		{"wrong point dims", "/v1/evaluate",
			EvaluateRequest{Model: ModelSpec{App: "tmm"}, Point: []float64{1, 2}},
			http.StatusBadRequest, CodeValidation},
		{"empty batch", "/v1/evaluate:batch",
			BatchRequest{Model: ModelSpec{App: "tmm"}},
			http.StatusBadRequest, CodeValidation},
		{"space needs per or params", "/v1/sweep",
			SweepRequest{Model: ModelSpec{App: "tmm"}},
			http.StatusBadRequest, CodeValidation},
		{"unknown metric", "/v1/aps",
			APSRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, Metric: "speed"},
			http.StatusBadRequest, CodeValidation},
		{"checkpoint without dir", "/v1/sweep",
			SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 1}, Checkpoint: "ck.json"},
			http.StatusBadRequest, CodeValidation},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.Client(), ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var env struct {
				Error ErrorBody `json:"error"`
			}
			decodeBody(t, resp, &env)
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Fatalf("error envelope carries no message")
			}
		})
	}

	t.Run("malformed JSON", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var env struct {
			Error ErrorBody `json:"error"`
		}
		decodeBody(t, resp, &env)
		if env.Error.Code != CodeValidation {
			t.Fatalf("code = %q, want %q", env.Error.Code, CodeValidation)
		}
	})

	t.Run("bad timeout_ms", func(t *testing.T) {
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate?timeout_ms=potato",
			EvaluateRequest{Model: ModelSpec{App: "tmm"}, Point: pt})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		var env struct {
			Error ErrorBody `json:"error"`
		}
		decodeBody(t, resp, &env)
		if env.Error.Code != CodeBadRequest {
			t.Fatalf("code = %q, want %q", env.Error.Code, CodeBadRequest)
		}
	})
}

// slowSweepRequest returns a sweep request big enough to stay in flight
// until the test cancels it (a simulated sweep over 729 points).
func slowSweepRequest(checkpoint string) SweepRequest {
	return SweepRequest{
		Model:           ModelSpec{App: "fluidanimate"},
		Evaluator:       EvaluatorSpec{Kind: "sim", TotalRefs: 50000},
		Space:           SpaceSpec{Per: 3},
		Checkpoint:      checkpoint,
		CheckpointEvery: 1,
		ProgressMS:      50,
	}
}

// startSweep POSTs a sweep on a cancellable context and returns a channel
// carrying the raw NDJSON body once the response ends.
func startSweep(t *testing.T, ctx context.Context, url string, req SweepRequest) <-chan []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/sweep", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	out := make(chan []byte, 1)
	go func() {
		defer close(out)
		resp, err := http.DefaultClient.Do(httpReq)
		if err != nil {
			out <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		out <- body
	}()
	return out
}

// waitFor polls cond for up to 5 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDecodeRejectsTrailingData posts a valid evaluate body followed by
// trailing bytes: a stray closing bracket or a second document is a 400,
// trailing whitespace is not.
func TestDecodeRejectsTrailingData(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	body, err := json.Marshal(EvaluateRequest{Model: ModelSpec{App: "tmm"}, Point: testPoints(t, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trailer string
		status  int
	}{
		{"}", http.StatusBadRequest},
		{"]", http.StatusBadRequest},
		{"{}", http.StatusBadRequest},
		{"1", http.StatusBadRequest},
		{" \n\t", http.StatusOK},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(string(body)+tc.trailer))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		if resp.StatusCode != tc.status {
			resp.Body.Close()
			t.Fatalf("body + %q: status = %d, want %d", tc.trailer, resp.StatusCode, tc.status)
		}
		if tc.status != http.StatusOK {
			var env struct {
				Error ErrorBody `json:"error"`
			}
			decodeBody(t, resp, &env)
			if env.Error.Code != CodeValidation {
				t.Fatalf("body + %q: code = %q, want %q", tc.trailer, env.Error.Code, CodeValidation)
			}
			continue
		}
		resp.Body.Close()
	}
}

// TestAdmissionShedsWith429 saturates a MaxConcurrent=1, MaxQueue=1
// server and checks the third request is shed with 429 + Retry-After.
func TestAdmissionShedsWith429(t *testing.T) {
	s, ts := newTestServer(t, Options{
		MaxConcurrent: 1,
		MaxQueue:      1,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Request 1 occupies the only slot; request 2 occupies the queue.
	body1 := startSweep(t, ctx, ts.URL, slowSweepRequest(""))
	waitFor(t, "slot occupied", func() bool { return s.Stats().InFlight == 1 })
	body2 := startSweep(t, ctx, ts.URL, slowSweepRequest(""))
	waitFor(t, "queue occupied", func() bool { return s.Stats().Queued == 1 })

	// Request 3 must be shed immediately.
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: testPoints(t, 1)[0],
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want %q", ra, "1")
	}
	var env struct {
		Error ErrorBody `json:"error"`
	}
	decodeBody(t, resp, &env)
	if env.Error.Code != CodeOverloaded {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeOverloaded)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("stats count %d shed requests, want 1", st.Shed)
	}

	cancel()
	<-body1
	<-body2
}

// TestSweepStreamAndResume drives a checkpointed sweep to completion and
// verifies the resumed rerun restores every value without re-evaluating.
func TestSweepStreamAndResume(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{CheckpointDir: dir})

	req := SweepRequest{
		Model:         ModelSpec{App: "stencil"},
		Space:         SpaceSpec{Per: 2},
		Checkpoint:    "sweep.ck",
		IncludeValues: true,
		ProgressMS:    10,
	}
	run := func(resume bool) SweepResult {
		req.Resume = resume
		resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", req)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("status = %d, body %s", resp.StatusCode, body)
		}
		var result SweepResult
		sc := bufio.NewScanner(resp.Body)
		seen := false
		for sc.Scan() {
			var probe struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("frame: %v", err)
			}
			if probe.Type == "result" {
				if err := json.Unmarshal(sc.Bytes(), &result); err != nil {
					t.Fatalf("result frame: %v", err)
				}
				seen = true
			}
		}
		if !seen {
			t.Fatalf("stream ended without a result frame")
		}
		return result
	}

	first := run(false)
	if first.Error != nil {
		t.Fatalf("sweep failed: %+v", first.Error)
	}
	if got := len(first.Report.Completed); got != 64 {
		t.Fatalf("completed %d points, want 64", got)
	}
	if first.BestIndex < 0 || first.BestValue == nil || math.IsInf(float64(*first.BestValue), 1) {
		t.Fatalf("no finite best: index %d", first.BestIndex)
	}
	if len(first.Values) != 64 {
		t.Fatalf("values slice has %d entries, want 64", len(first.Values))
	}
	if _, err := os.Stat(filepath.Join(dir, "sweep.ck")); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	second := run(true)
	if second.Report.Resumed != 64 {
		t.Fatalf("resumed %d points, want 64", second.Report.Resumed)
	}
	if second.Engine.Evaluations != 0 {
		t.Fatalf("resumed sweep re-evaluated %d points", second.Engine.Evaluations)
	}
	if float64(*second.BestValue) != float64(*first.BestValue) {
		t.Fatalf("resumed best %v != original best %v", *second.BestValue, *first.BestValue)
	}
}

func TestAPSEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/aps", APSRequest{
		Model: ModelSpec{App: "fft"},
		Space: SpaceSpec{Per: 2},
	})
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out APSResponse
	decodeBody(t, resp, &out)
	if out.Analytic.N < 1 {
		t.Fatalf("analytic N = %d, want ≥ 1", out.Analytic.N)
	}
	if out.BestIndex < 0 || out.BestValue == nil {
		t.Fatalf("APS found no best point")
	}
	if out.SpaceSize != 64 {
		t.Fatalf("space size %d, want 64", out.SpaceSize)
	}
	if out.Simulations <= 0 || out.Simulations >= out.SpaceSize {
		t.Fatalf("APS ran %d simulations over a %d-point space; the slice must be a strict subset",
			out.Simulations, out.SpaceSize)
	}
}

// TestGracefulShutdown is the drain contract: with a slow sweep in
// flight, Shutdown flips /readyz to 503 while the listener still answers,
// rejects new work, cancels the sweep at the drain deadline so it flushes
// its checkpoint, and only then returns.
func TestGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{CheckpointDir: dir})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body := startSweep(t, ctx, ts.URL, slowSweepRequest("drain.ck"))
	waitFor(t, "sweep in flight", func() bool { return s.Stats().InFlight == 1 })
	// Wait until at least one completed point hit the on-disk checkpoint
	// (cadence 1), so the final flush is guaranteed non-empty.
	ckFile := filepath.Join(dir, "drain.ck")
	waitFor(t, "first checkpoint write", func() bool {
		ck, err := dse.LoadCheckpoint(ckFile)
		return err == nil && len(ck.Indices) > 0
	})

	shutdownErr := make(chan error, 1)
	go func() {
		drainCtx, drainCancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer drainCancel()
		shutdownErr <- s.Shutdown(drainCtx)
	}()

	// The listener is still open: /readyz must answer 503 during the
	// drain, and new work must be rejected as unavailable.
	waitFor(t, "draining state", func() bool { return s.Stats().Draining })
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz during drain: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", resp.StatusCode)
	}
	var ready readyzResponse
	decodeBody(t, resp, &ready)
	if ready.Ready {
		t.Fatalf("/readyz reports ready while draining")
	}

	work := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: testPoints(t, 1)[0],
	})
	if work.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("work during drain = %d, want 503", work.StatusCode)
	}
	var env struct {
		Error ErrorBody `json:"error"`
	}
	decodeBody(t, work, &env)
	if env.Error.Code != CodeUnavailable {
		t.Fatalf("code = %q, want %q", env.Error.Code, CodeUnavailable)
	}

	// The 729-point simulated sweep cannot finish in 300ms, so the drain
	// deadline forces cancellation and Shutdown reports it.
	if err := <-shutdownErr; err == nil {
		t.Fatalf("Shutdown returned nil; want the forced-drain deadline error")
	}
	raw := <-body
	if raw == nil {
		t.Fatalf("sweep response was lost")
	}
	var result SweepResult
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var probe struct {
			Type string `json:"type"`
		}
		if json.Unmarshal(line, &probe) == nil && probe.Type == "result" {
			if err := json.Unmarshal(line, &result); err != nil {
				t.Fatalf("result frame: %v", err)
			}
		}
	}
	if !result.Report.Canceled {
		t.Fatalf("drained sweep did not report cancellation: %+v", result.Report)
	}
	// The cancelled sweep flushed its progress.
	ck, err := dse.LoadCheckpoint(filepath.Join(dir, "drain.ck"))
	if err != nil {
		t.Fatalf("loading flushed checkpoint: %v", err)
	}
	if len(ck.Indices) == 0 {
		t.Fatalf("flushed checkpoint is empty")
	}
	if s.Stats().InFlight != 0 {
		t.Fatalf("requests still in flight after Shutdown")
	}
}

func TestStatusEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var ready readyzResponse
	decodeBody(t, resp, &ready)
	if !ready.Ready {
		t.Fatalf("fresh server not ready")
	}
	if ready.Engine.Workers < 1 || ready.Engine.CacheCapacity < 1 {
		t.Fatalf("engine snapshot incomplete: %+v", ready.Engine)
	}
	if want := []string{"fft", "fluidanimate", "stencil", "tmm"}; fmt.Sprint(ready.Models) != fmt.Sprint(want) {
		t.Fatalf("models = %v, want %v", ready.Models, want)
	}

	// A request, then /metrics must expose the server_* instruments.
	postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", EvaluateRequest{
		Model: ModelSpec{App: "tmm"},
		Point: testPoints(t, 1)[0],
	}).Body.Close()
	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"server_requests_total", "server_admitted_total", "server_request_seconds", "engine_cache_hits_total"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Fatalf("/metrics misses %s:\n%s", want, text)
		}
	}
	if s.Stats().Admitted != 1 {
		t.Fatalf("admitted = %d, want 1", s.Stats().Admitted)
	}
}

// TestStatsJSONFieldNames pins the wire names of the /readyz payload:
// server Stats and the engine Snapshot it embeds are a tool contract.
func TestStatsJSONFieldNames(t *testing.T) {
	data, err := json.Marshal(Stats{})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var fields map[string]interface{}
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	want := []string{"requests", "admitted", "shed", "errors", "panics", "in_flight", "queued", "draining"}
	if len(fields) != len(want) {
		t.Fatalf("Stats has %d JSON fields, want %d: %s", len(fields), len(want), data)
	}
	for _, name := range want {
		if _, ok := fields[name]; !ok {
			t.Fatalf("Stats JSON misses %q: %s", name, data)
		}
	}

	data, err = json.Marshal(engine.Snapshot{})
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	for _, name := range []string{`"workers"`, `"cache_capacity"`, `"stats"`} {
		if !bytes.Contains(data, []byte(name)) {
			t.Fatalf("engine.Snapshot JSON misses %s: %s", name, data)
		}
	}
}

func TestCheckpointNameValidation(t *testing.T) {
	s := New(Options{CheckpointDir: t.TempDir()})
	ctx := context.Background()
	for _, bad := range []string{"../escape", "a/b", ".hidden", "", "-dash"} {
		if p, err := s.checkpointPath(ctx, bad); bad != "" && err == nil {
			t.Fatalf("checkpointPath(%q) accepted as %q", bad, p)
		}
	}
	p, err := s.checkpointPath(ctx, "run-1.ck")
	if err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}
	if filepath.Dir(p) != s.opts.CheckpointDir {
		t.Fatalf("checkpoint %q escaped the configured directory", p)
	}
}
