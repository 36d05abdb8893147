package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// The peer wire protocol: one exchange, POST /internal/v1/peer-eval,
// carries a batch of points to their owner and the outcomes back. Each
// body is a JSON header line followed by raw little-endian IEEE-754 bit
// patterns. The cluster's correctness contract is bit-identity with a
// single-node run, and raw bits make that exact by construction (NaN
// payloads, −0 and ±Inf included) at 8 bytes a value, with no decimal
// encode or parse on either side.
//
//	request:  {"model":…,"evaluator":…,"points":n,"dims":d}\n
//	          then the n points' d coordinates each, point by point
//	response: {"points":n,"failed":[{"index":i,"error":"…"},…]}\n
//	          then the n values, then one attempts byte per point
//
// An attempts byte counts the owner's evaluator invocations for the
// point, saturating at 255; 0 means its cache (or a concurrent
// computation of the same key) served it. Failures are listed in
// ascending index order, with their error text.

// peerEvalPath is the one peer exchange's endpoint.
const peerEvalPath = "/internal/v1/peer-eval"

// MaxBatchPoints bounds the points of one exchange. EvalOnPeer sends a
// larger group in exchanges of at most this many points, one after
// another, and ReadPeerEvalRequest rejects a request for more.
const MaxBatchPoints = 1 << 17

const (
	// maxDims bounds the coordinates of a request's points.
	maxDims = 64
	// maxHeaderBytes bounds a header line.
	maxHeaderBytes = 64 << 20
	// blockPoints is how many points a request body encodes, and its
	// reader decodes into one slab, at a time.
	blockPoints = 1024
)

// PeerEvalRequest is one batch for its owner. Model and Evaluator are
// the coordinator's wire specs verbatim — opaque bytes to this package,
// re-resolved by the owner's catalog so both sides build the identical
// evaluator (and the identical fingerprint, which is what makes the
// owner's cache authoritative for these points). Every point has the
// same number of coordinates.
type PeerEvalRequest struct {
	Model     json.RawMessage
	Evaluator json.RawMessage
	Points    [][]float64
}

// PeerOutcome is one remote evaluation result.
type PeerOutcome struct {
	Value float64
	// Attempts is the owner's evaluator invocations for the point (0
	// when its cache or a shared in-flight computation served it).
	Attempts int
	CacheHit bool
	// Err carries a per-point evaluation error reported by the owner
	// (the exchange itself succeeded).
	Err error
}

// requestHeader is a request's header line.
type requestHeader struct {
	Model     json.RawMessage `json:"model"`
	Evaluator json.RawMessage `json:"evaluator,omitempty"`
	Points    int             `json:"points"`
	Dims      int             `json:"dims"`
}

// responseHeader is a response's header line.
type responseHeader struct {
	Points int           `json:"points"`
	Failed []peerFailure `json:"failed,omitempty"`
}

type peerFailure struct {
	Index int    `json:"index"`
	Error string `json:"error"`
}

// requestBody streams one exchange's request from its points: the
// header line, then blocks of coordinates encoded as the transport
// reads them, so the body is never held whole.
type requestBody struct {
	points [][]float64
	next   int    // the first point not yet encoded
	buf    []byte // encoded and not yet read
	block  []byte
}

func newRequestBody(head []byte, points [][]float64) *requestBody {
	return &requestBody{points: points, buf: head}
}

// Read implements io.Reader.
func (b *requestBody) Read(p []byte) (int, error) {
	if len(b.buf) == 0 {
		if b.next == len(b.points) {
			return 0, io.EOF
		}
		if b.block == nil {
			b.block = make([]byte, 0, 8*blockPoints*len(b.points[0]))
		}
		b.buf = b.block[:0]
		for end := min(b.next+blockPoints, len(b.points)); b.next < end; b.next++ {
			for _, v := range b.points[b.next] {
				b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(v))
			}
		}
	}
	n := copy(p, b.buf)
	b.buf = b.buf[n:]
	return n, nil
}

// ReadPeerEvalRequest decodes a peer-eval request body: a header line
// naming 1 to MaxBatchPoints points of 1 to 64 coordinates, then
// exactly their bits. The points are sliced from slabs of blockPoints
// points each, allocated as the bytes arrive, so beyond the point list
// (24 bytes a point) what a request costs follows what it sends rather
// than what its header claims.
func ReadPeerEvalRequest(r io.Reader) (PeerEvalRequest, error) {
	br := bufio.NewReaderSize(r, 32<<10)
	var h requestHeader
	if err := readHeader(br, &h); err != nil {
		return PeerEvalRequest{}, fmt.Errorf("cluster: peer-eval request header: %w", err)
	}
	if h.Points < 1 || h.Points > MaxBatchPoints {
		return PeerEvalRequest{}, fmt.Errorf("cluster: peer-eval request of %d points, want 1 to %d", h.Points, MaxBatchPoints)
	}
	if h.Dims < 1 || h.Dims > maxDims {
		return PeerEvalRequest{}, fmt.Errorf("cluster: peer-eval points of %d coordinates, want 1 to %d", h.Dims, maxDims)
	}
	d := h.Dims
	points := make([][]float64, 0, h.Points)
	for len(points) < h.Points {
		slab := make([]float64, d*min(h.Points-len(points), blockPoints))
		err := readRecords(br, len(slab), 8, func(k int, b []byte) {
			for j := range len(b) / 8 {
				slab[k+j] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))
			}
		})
		if err != nil {
			return PeerEvalRequest{}, shortBody("request", err)
		}
		for lo := 0; lo < len(slab); lo += d {
			points = append(points, slab[lo:lo+d:lo+d])
		}
	}
	if err := atEOF(br); err != nil {
		return PeerEvalRequest{}, fmt.Errorf("cluster: peer-eval request: %w", err)
	}
	return PeerEvalRequest{Model: h.Model, Evaluator: h.Evaluator, Points: points}, nil
}

// PeerEvalResponse is a peer-eval response body being filled in: the
// owner sets each point's outcome as it completes, in any order, then
// writes the body. It holds the payload as it goes on the wire, 9 bytes
// a point.
type PeerEvalResponse struct {
	payload []byte // the values, then the attempts bytes
	failed  []peerFailure
}

// NewPeerEvalResponse starts the response to a request for n points.
func NewPeerEvalResponse(n int) *PeerEvalResponse {
	return &PeerEvalResponse{payload: make([]byte, 9*n)}
}

// Set records the outcome of point i; each point is set once.
func (r *PeerEvalResponse) Set(i int, o PeerOutcome) {
	n := len(r.payload) / 9
	binary.LittleEndian.PutUint64(r.payload[8*i:], math.Float64bits(o.Value))
	a := min(max(o.Attempts, 0), math.MaxUint8)
	if o.CacheHit && o.Err == nil {
		a = 0
	}
	r.payload[8*n+i] = byte(a)
	if o.Err != nil {
		r.failed = append(r.failed, peerFailure{Index: i, Error: o.Err.Error()})
	}
}

// WriteTo writes the body: the header line, with the failures in index
// order, then the payload.
func (r *PeerEvalResponse) WriteTo(w io.Writer) (int64, error) {
	sort.Slice(r.failed, func(a, b int) bool { return r.failed[a].Index < r.failed[b].Index })
	head, err := json.Marshal(responseHeader{Points: len(r.payload) / 9, Failed: r.failed})
	if err != nil {
		return 0, fmt.Errorf("cluster: encoding peer-eval response: %w", err)
	}
	n, err := w.Write(append(head, '\n'))
	if err != nil {
		return int64(n), err
	}
	m, err := w.Write(r.payload)
	return int64(n + m), err
}

// decodePeerEval reads a peer-eval response into outs, one outcome per
// point sent. Anything but a complete response for exactly len(outs)
// points — a header naming another count or an unknown field, a failure
// index out of range or out of ascending order, a payload cut short or
// followed by more bytes — is an error: the exchange failed, and the
// caller computes the points locally instead of treating absence as
// data.
func decodePeerEval(r io.Reader, outs []PeerOutcome) error {
	br := bufio.NewReaderSize(r, 32<<10)
	var h responseHeader
	if err := readHeader(br, &h); err != nil {
		return fmt.Errorf("cluster: peer-eval response header: %w", err)
	}
	n := len(outs)
	if h.Points != n {
		return fmt.Errorf("cluster: peer-eval response for %d points, want %d", h.Points, n)
	}
	err := readRecords(br, n, 8, func(k int, b []byte) {
		for j := range len(b) / 8 {
			outs[k+j] = PeerOutcome{Value: math.Float64frombits(binary.LittleEndian.Uint64(b[8*j:]))}
		}
	})
	if err == nil {
		err = readRecords(br, n, 1, func(k int, b []byte) {
			for j, a := range b {
				outs[k+j].Attempts, outs[k+j].CacheHit = int(a), a == 0
			}
		})
	}
	if err != nil {
		return shortBody("response", err)
	}
	if err := atEOF(br); err != nil {
		return fmt.Errorf("cluster: peer-eval response: %w", err)
	}
	prev := -1
	for _, f := range h.Failed {
		if f.Index <= prev || f.Index >= n {
			return fmt.Errorf("cluster: peer-eval failure index %d out of range or order (after %d, of %d points)", f.Index, prev, n)
		}
		prev = f.Index
		outs[f.Index].CacheHit = false
		outs[f.Index].Err = errors.New(f.Error)
	}
	return nil
}

// readRecords reads n records of size bytes each, handing them to put
// a buffer at a time: put(k, b) gets records k, k+1, … packed in b.
func readRecords(br *bufio.Reader, n, size int, put func(k int, b []byte)) error {
	for k := 0; k < n; {
		m := min(n-k, br.Size()/size)
		b, err := br.Peek(size * m)
		if err != nil {
			return err
		}
		put(k, b)
		_, _ = br.Discard(size * m)
		k += m
	}
	return nil
}

// readHeader decodes a body's header line into v strictly: one JSON
// object with no unknown field, at most maxHeaderBytes long.
func readHeader(br *bufio.Reader, v any) error {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		line = append(line, frag...)
		if len(line) > maxHeaderBytes {
			return fmt.Errorf("header longer than %d bytes", maxHeaderBytes)
		}
		if err == nil {
			break
		}
		if err != bufio.ErrBufferFull {
			return shortBody("header", err)
		}
	}
	return decodeStrict(line, v)
}

// shortBody names a body that ended before its payload did.
func shortBody(what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("short peer-eval %s: %w", what, err)
}

// atEOF requires the body to end here.
func atEOF(br *bufio.Reader) error {
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return err
		}
		return errors.New("data after the payload")
	}
	return nil
}

// errPeerOpen reports a request rejected by an open circuit breaker
// without touching the network.
var errPeerOpen = errors.New("cluster: peer circuit breaker is open")

// EvalOnPeer sends a point batch to its owner peer and returns the
// outcomes in point order. A batch above MaxBatchPoints travels in
// exchanges of at most that many points, one after another. Any
// transport-level failure of any of them — breaker open, connection
// refused, bad status, short or malformed response — is returned whole
// so the caller can fall back to local compute; per-point evaluation
// errors come back inside the outcomes. Each exchange is retried under
// the cluster's bounded retry policy, its body rebuilt from the points
// on every attempt, and recorded against the peer's circuit breaker.
func (c *Cluster) EvalOnPeer(ctx context.Context, peerName string, req PeerEvalRequest) ([]PeerOutcome, error) {
	p := c.peer(peerName)
	if p == nil {
		return nil, fmt.Errorf("cluster: unknown peer %q", peerName)
	}
	dims := 0
	if len(req.Points) > 0 {
		dims = len(req.Points[0])
	}
	for _, pt := range req.Points {
		if len(pt) != dims {
			return nil, fmt.Errorf("cluster: peer-eval points of %d and %d coordinates", dims, len(pt))
		}
	}
	var outs []PeerOutcome
	for lo := 0; lo < len(req.Points); lo += MaxBatchPoints {
		hi := min(lo+MaxBatchPoints, len(req.Points))
		head, err := json.Marshal(requestHeader{Model: req.Model, Evaluator: req.Evaluator, Points: hi - lo, Dims: dims})
		if err != nil {
			return nil, fmt.Errorf("cluster: encoding peer-eval request: %w", err)
		}
		err = c.exchange(ctx, p, append(head, '\n'), req.Points[lo:hi], func(resp io.Reader) error {
			// Allocated once a response arrives, not held while the
			// owner evaluates.
			if outs == nil {
				outs = make([]PeerOutcome, len(req.Points))
			}
			return decodePeerEval(resp, outs[lo:hi])
		})
		if err != nil {
			return nil, err
		}
	}
	for _, o := range outs {
		if o.CacheHit {
			c.remoteHit.Add(1)
		}
	}
	return outs, nil
}

// exchange performs one breaker-guarded, retried peer-eval POST of
// points under head and feeds the response body to consume. A consume
// error counts as an exchange failure (the response was unusable).
func (c *Cluster) exchange(ctx context.Context, p *peerState, head []byte, points [][]float64, consume func(io.Reader) error) error {
	ctx, sp := c.tracer.Start(ctx, "cluster.peer_eval", obs.S("peer", p.name))
	start := time.Now()
	var rng *robust.RNG
	_, err := c.retry.Do(ctx, rng, func(ctx context.Context) error {
		return c.once(ctx, p, head, points, consume)
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
func (c *Cluster) once(ctx context.Context, p *peerState, head []byte, points [][]float64, consume func(io.Reader) error) error {
	if !p.allow(time.Now()) {
		// Breaker rejections are not failures: they don't extend the
		// streak, and they short-circuit the retry loop's later attempts
		// cheaply (the cooldown won't elapse within one backoff).
		return errPeerOpen
	}
	c.reqs.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, p.baseURL()+peerEvalPath, newRequestBody(head, points))
	if err != nil {
		return fmt.Errorf("cluster: peer %s: %w", p.name, err)
	}
	req.ContentLength = int64(len(head))
	if len(points) > 0 {
		req.ContentLength += int64(8 * len(points) * len(points[0]))
	}
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(newRequestBody(head, points)), nil }
	req.Header.Set("Content-Type", "application/octet-stream")
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

// CountLocal/CountRemote/CountFallback feed the remote-vs-local routing
// counters from the server's router, which owns the partition decision.
func (c *Cluster) CountLocal(n int)    { c.localPts.Add(uint64(n)) }
func (c *Cluster) CountRemote(n int)   { c.remotePts.Add(uint64(n)) }
func (c *Cluster) CountFallback(n int) { c.fallback.Add(uint64(n)) }
