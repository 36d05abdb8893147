package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
)

// call is one benchmark request: a pre-encoded POST body and, once sent,
// what came back and when.
type call struct {
	path string
	body []byte

	sent   time.Time
	done   time.Time
	status int
	resp   []byte
	err    error
}

// do sends c to the stack's coordinator and reads the whole response.
// When the stack is traced and spanned is set, the request runs under a
// bench.request root span that the server-side wrapper parents to.
func (st *stack) do(ctx context.Context, client *http.Client, c *call, spanned bool) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.base()+c.path, bytes.NewReader(c.body))
	if err != nil {
		c.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if st.tracer != nil && spanned {
		sctx, sp := st.tracer.Start(context.Background(), "bench.request")
		id := strconv.FormatUint(sp.ID, 10)
		st.inflight.Store(id, sctx)
		req.Header.Set(reqHeader, id)
		defer func() {
			sp.Finish()
			st.inflight.Delete(id)
		}()
	}
	c.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		c.err = err
		c.done = time.Now()
		return
	}
	c.resp, c.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	c.done = time.Now()
	c.status = resp.StatusCode
}

// ok reports whether the call completed with a 200.
func (c *call) ok() bool { return c.err == nil && c.status == http.StatusOK }

// failure describes a failed call for the error report.
func (c *call) failure() error {
	if c.err != nil {
		return fmt.Errorf("%s: %w", c.path, c.err)
	}
	return fmt.Errorf("%s: status %d: %.200s", c.path, c.status, c.resp)
}

// mustJSON encodes a request body; every body is built from plain
// structs and maps, so encoding cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// evaluateValue decodes a /v1/evaluate response's value.
func evaluateValue(body []byte) (float64, error) {
	var r server.EvaluateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return math.NaN(), fmt.Errorf("evaluate response: %w", err)
	}
	return float64(r.Value), nil
}

// batchValues decodes an /v1/evaluate:batch NDJSON response into
// per-point values, requiring every index once and the summary line.
func batchValues(body []byte, n int) ([]float64, error) {
	vals := make([]float64, n)
	seen := make([]bool, n)
	done := false
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			done = true
			continue
		}
		var r server.BatchResult
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("batch line: %w", err)
		}
		if r.Index < 0 || r.Index >= n || seen[r.Index] {
			return nil, fmt.Errorf("batch line: bad or repeated index %d", r.Index)
		}
		if r.Error != nil || r.Value == nil {
			return nil, fmt.Errorf("batch point %d failed: %+v", r.Index, r.Error)
		}
		seen[r.Index] = true
		vals[r.Index] = float64(*r.Value)
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("batch response misses point %d", i)
		}
	}
	if !done {
		return nil, fmt.Errorf("batch response has no summary line")
	}
	return vals, nil
}

// sweepResult decodes the final frame of a /v1/sweep NDJSON response.
func sweepResult(body []byte) (server.SweepResult, error) {
	var res server.SweepResult
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	last := lines[len(lines)-1]
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("sweep result frame: %w", err)
	}
	if res.Type != "result" {
		return res, fmt.Errorf("sweep response ends with a %q frame", res.Type)
	}
	if res.Error != nil {
		return res, fmt.Errorf("sweep failed: %s", res.Error.Message)
	}
	return res, nil
}

// sameBits reports bit-identity of two float64 values.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
