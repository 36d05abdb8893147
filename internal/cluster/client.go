package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// The peer wire protocol. Values cross the wire as 16-hex-digit
// IEEE-754 bit patterns, not decimal floats: the cluster's correctness
// contract is bit-identity with a single-node run, and raw bits make
// that exact by construction (NaN payloads, −0 and ±Inf included)
// without the quoted-string special cases JSON floats need.

// PeerEvalRequest is the POST /internal/v1/peer-eval body. Model and
// Evaluator are the coordinator's wire specs verbatim — opaque bytes to
// this package, re-resolved by the owner's catalog so both sides build
// the identical evaluator (and the identical fingerprint, which is what
// makes the owner's cache authoritative for these points).
type PeerEvalRequest struct {
	Model     json.RawMessage `json:"model"`
	Evaluator json.RawMessage `json:"evaluator,omitempty"`
	Points    [][]float64     `json:"points"`
}

// PeerEvalResult is one NDJSON line of a peer-eval response.
type PeerEvalResult struct {
	Index int `json:"index"`
	// Bits is the value's IEEE-754 bit pattern as 16 hex digits.
	Bits     string `json:"bits,omitempty"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	Error    string `json:"error,omitempty"`
}

// PeerEvalSummary is the final NDJSON line of a peer-eval response.
type PeerEvalSummary struct {
	Done   bool `json:"done"`
	Points int  `json:"points"`
	Errors int  `json:"errors"`
}

// FormatBits renders a value for the peer wire.
func FormatBits(v float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(v))
}

// ParseBits decodes a peer wire value. It accepts only what FormatBits
// writes, 16 lowercase hex digits, so a truncated or padded value is an
// error rather than a different float.
func ParseBits(s string) (float64, error) {
	bits, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("cluster: value bits %q: %w", s, err)
	}
	if len(s) != 16 || strings.ToLower(s) != s {
		return 0, fmt.Errorf("cluster: value bits %q: want 16 lowercase hex digits", s)
	}
	return math.Float64frombits(bits), nil
}

// PeerOutcome is one remote evaluation result.
type PeerOutcome struct {
	Value    float64
	CacheHit bool
	// Err carries a per-point evaluation error reported by the owner
	// (the exchange itself succeeded).
	Err error
}

// errPeerOpen reports a request rejected by an open circuit breaker
// without touching the network.
var errPeerOpen = errors.New("cluster: peer circuit breaker is open")

// EvalOnPeer sends a point batch to its owner peer and returns the
// outcomes in point order. Any transport-level failure — breaker open,
// connection refused, bad status, short or malformed response — is
// returned whole so the caller can fall back to local compute; per-point
// evaluation errors come back inside the outcomes. The exchange is
// retried under the cluster's bounded retry policy and recorded against
// the peer's circuit breaker.
func (c *Cluster) EvalOnPeer(ctx context.Context, peerName string, req PeerEvalRequest) ([]PeerOutcome, error) {
	p := c.peer(peerName)
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", peerName)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: encoding peer-eval request: %w", err)
	}
	var outs []PeerOutcome
	err = c.exchange(ctx, p, "cluster.peer_eval", "/internal/v1/peer-eval", body, func(resp io.Reader) error {
		got, err := decodePeerEval(resp, len(req.Points))
		if err != nil {
			return err
		}
		outs = got
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, o := range outs {
		if o.CacheHit {
			c.remoteHit.Add(1)
		}
	}
	return outs, nil
}

// StreamFromPeer POSTs body to path on a peer and hands each NDJSON
// response line to onLine as it arrives (the cluster-partitioned sweep
// consumes sub-sweep progress frames this way). The protocol lives with
// the caller; this method owns transport, breaker, retry and metrics.
// Lines already consumed before a mid-stream failure are not replayed:
// the whole exchange is retried from the start, and onLine sees the
// attempt boundary as a call with nil line.
func (c *Cluster) StreamFromPeer(ctx context.Context, peerName, path string, body []byte, onLine func(line []byte) error) error {
	p := c.peer(peerName)
	if p == nil {
		return fmt.Errorf("cluster: unknown peer %q", peerName)
	}
	return c.exchange(ctx, p, "cluster.peer_sweep", path, body, func(resp io.Reader) error {
		if err := onLine(nil); err != nil {
			return err
		}
		sc := bufio.NewScanner(resp)
		sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
		for sc.Scan() {
			if err := onLine(sc.Bytes()); err != nil {
				return err
			}
		}
		return sc.Err()
	})
}

// exchange performs one breaker-guarded, retried POST to a peer and
// feeds the response body to consume. A consume error counts as an
// exchange failure (the response was unusable).
func (c *Cluster) exchange(ctx context.Context, p *peerState, span, path string, body []byte, consume func(io.Reader) error) error {
	ctx, sp := c.tracer.Start(ctx, span, obs.S("peer", p.name))
	start := time.Now()
	var rng *robust.RNG
	_, err := c.retry.Do(ctx, rng, func(ctx context.Context) error {
		return c.once(ctx, p, path, body, consume)
	})
	c.seconds.Observe(time.Since(start).Seconds())
	if sp != nil {
		if err != nil {
			sp.Annotate(obs.S("error", err.Error()))
		}
		sp.Finish()
	}
	return err
}

// once is a single breaker-accounted attempt.
func (c *Cluster) once(ctx context.Context, p *peerState, path string, body []byte, consume func(io.Reader) error) error {
	if !p.allow(time.Now()) {
		// Breaker rejections are not failures: they don't extend the
		// streak, and they short-circuit the retry loop's later attempts
		// cheaply (the cooldown won't elapse within one backoff).
		return errPeerOpen
	}
	c.reqs.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.baseURL()+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(req)
	if err != nil {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: status %d", p.name, resp.StatusCode)
	}
	if err := consume(resp.Body); err != nil {
		c.errs.Add(1)
		p.recordFailure(time.Now(), c.opts.FailThreshold, c.opts.Cooldown)
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	p.recordSuccess()
	return nil
}

// decodePeerEval parses a peer-eval NDJSON response into n outcomes,
// requiring every index exactly once plus the final summary line — a
// short response (peer died mid-stream) is an exchange failure, so the
// caller recomputes locally instead of treating absence as data.
func decodePeerEval(r io.Reader, n int) ([]PeerOutcome, error) {
	outs := make([]PeerOutcome, n)
	filled := make([]bool, n)
	got := 0
	sawSummary := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 64<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if sawSummary {
			return nil, fmt.Errorf("cluster: data after peer-eval summary line")
		}
		if bytes.Contains(line, []byte(`"done"`)) {
			var sum PeerEvalSummary
			if err := json.Unmarshal(line, &sum); err != nil {
				return nil, fmt.Errorf("cluster: peer-eval summary: %w", err)
			}
			sawSummary = sum.Done
			continue
		}
		var res PeerEvalResult
		if err := json.Unmarshal(line, &res); err != nil {
			return nil, fmt.Errorf("cluster: peer-eval line: %w", err)
		}
		if res.Index < 0 || res.Index >= n {
			return nil, fmt.Errorf("cluster: peer-eval index %d outside batch of %d", res.Index, n)
		}
		if filled[res.Index] {
			return nil, fmt.Errorf("cluster: duplicate peer-eval index %d", res.Index)
		}
		filled[res.Index] = true
		got++
		if res.Error != "" {
			outs[res.Index] = PeerOutcome{Value: math.NaN(), Err: fmt.Errorf("cluster: peer evaluation: %s", res.Error)}
			continue
		}
		v, err := ParseBits(res.Bits)
		if err != nil {
			return nil, err
		}
		outs[res.Index] = PeerOutcome{Value: v, CacheHit: res.CacheHit}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawSummary || got != n {
		return nil, fmt.Errorf("cluster: short peer-eval response (%d of %d points, summary=%v)", got, n, sawSummary)
	}
	return outs, nil
}

// CountLocal/CountRemote/CountFallback feed the remote-vs-local routing
// counters from the server's router, which owns the partition decision.
func (c *Cluster) CountLocal(n int)    { c.localPts.Add(uint64(n)) }
func (c *Cluster) CountRemote(n int)   { c.remotePts.Add(uint64(n)) }
func (c *Cluster) CountFallback(n int) { c.fallback.Add(uint64(n)) }
