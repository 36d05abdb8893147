package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// reqHeader links a benchmark request to its bench.request span across
// the loopback hop, so the server's spans nest under it in a traced run.
const reqHeader = "X-Bench-Req"

// peer is one in-process c2bound server on its own loopback listener,
// built with the defaults of cmd/c2bound-server: metrics registry on, the
// engine's default 2^18-entry cache, workers and admission bound at
// GOMAXPROCS.
type peer struct {
	name       string
	url        string
	srv        *server.Server
	reg        *obs.Registry
	cl         *cluster.Cluster
	hs         *http.Server
	served     chan struct{} // closed when hs.Serve has returned
	stopProber func()
}

// stack is the system under test: one server, or a loopback cluster
// whose coordinator is peers[0]. A traced stack shares one tracer
// between every server, engine and cluster and wraps each handler so
// the server's spans become children of the benchmark's request spans.
type stack struct {
	peers  []*peer
	tracer *obs.Tracer
	// wire counts the bytes the coordinator's cluster client moves
	// (traced stacks only).
	wire *countingTransport
	// inflight maps a request header value to the context carrying its
	// bench.request span.
	inflight sync.Map
}

// newStack builds n peers, starts serving, and returns once every peer
// answers /readyz with 200 (and, for a cluster, reports all n peers
// alive). tracer may be nil.
func newStack(ctx context.Context, n int, tracer *obs.Tracer) (*stack, error) {
	st := &stack{tracer: tracer}
	lns := make([]net.Listener, n)
	var cfg cluster.Config
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		cfg.Peers = append(cfg.Peers, cluster.PeerConfig{Name: fmt.Sprintf("p%d", i), URL: "http://" + ln.Addr().String()})
	}
	for i, ln := range lns {
		p := &peer{name: cfg.Peers[i].Name, url: cfg.Peers[i].URL, reg: obs.NewRegistry(), served: make(chan struct{})}
		if n > 1 {
			c := cfg
			c.Self = p.name
			opts := cluster.Options{Metrics: p.reg, Tracer: tracer}
			if tracer != nil && i == 0 {
				st.wire = &countingTransport{next: http.DefaultTransport}
				opts.Client = &http.Client{Transport: st.wire}
			}
			cl, err := cluster.New(c, opts)
			if err != nil {
				st.close()
				for _, l := range lns[i:] {
					l.Close()
				}
				return nil, fmt.Errorf("cluster: %w", err)
			}
			p.cl = cl
		}
		p.srv = server.New(server.Options{Cluster: p.cl, Tracer: tracer, Metrics: p.reg})
		var h http.Handler = p.srv
		if tracer != nil {
			h = &tracedHandler{next: p.srv, st: st}
		}
		p.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		if p.cl != nil {
			p.stopProber = p.cl.StartProber(context.Background())
		}
		go func(ln net.Listener) {
			defer close(p.served)
			_ = p.hs.Serve(ln)
		}(ln)
		st.peers = append(st.peers, p)
	}
	if err := st.waitReady(ctx); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// waitReady polls every peer's /readyz until it answers 200 with the
// whole cluster alive, for at most ten seconds.
func (st *stack) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for _, p := range st.peers {
		for {
			ok, err := readyOnce(ctx, client, p.url, len(st.peers))
			if ok {
				break
			}
			if ctx.Err() != nil {
				return fmt.Errorf("peer %s not ready: %v", p.name, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// readyOnce asks one peer's /readyz.
func readyOnce(ctx context.Context, client *http.Client, url string, peers int) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var body struct {
		Cluster *cluster.Summary `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("status %d", resp.StatusCode)
	}
	if peers > 1 && (body.Cluster == nil || body.Cluster.Alive != peers) {
		return false, errors.New("cluster not fully alive")
	}
	return true, nil
}

// close stops every peer: probers first, then listeners (waiting for
// in-flight handlers), then each server's work plane, and waits for
// every Serve goroutine to return.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, p := range st.peers {
		if p.stopProber != nil {
			p.stopProber()
		}
	}
	for _, p := range st.peers {
		_ = p.hs.Shutdown(ctx)
		_ = p.srv.Shutdown(ctx)
		<-p.served
	}
	// Peer exchanges ride the default transport; drop its connections to
	// the servers just closed.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// base is the coordinator's URL.
func (st *stack) base() string { return st.peers[0].url }

// timeSetup builds and tears down a stack k times and returns each
// build-to-ready duration. Each build starts from a collected heap, as a
// freshly started server does, so one build's garbage does not time the
// next.
func timeSetup(ctx context.Context, peers, k int) ([]float64, error) {
	out := make([]float64, 0, k)
	for i := 0; i < k; i++ {
		runtime.GC()
		start := time.Now()
		st, err := newStack(ctx, peers, nil)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
		st.close()
	}
	return out, nil
}

// tracedHandler wraps a server's ServeHTTP in a bench.serve span whose
// parent is the request's bench.request span, found through reqHeader.
// Requests without the header (peer traffic, warm-up) pass through.
type tracedHandler struct {
	next http.Handler
	st   *stack
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, ok := h.st.inflight.Load(r.Header.Get(reqHeader))
	if !ok {
		h.next.ServeHTTP(w, r)
		return
	}
	sctx, sp := h.st.tracer.Start(parent.(context.Context), "bench.serve")
	h.next.ServeHTTP(w, r.WithContext(spanContext{Context: r.Context(), spans: sctx}))
	sp.Finish()
}

// spanContext keeps the request context's cancellation and values but
// answers first from spans, a context holding nothing but the
// bench.serve span; that is how the span reaches the server's tracer
// without crossing the wire.
type spanContext struct {
	context.Context
	spans context.Context
}

func (c spanContext) Value(key any) any {
	if v := c.spans.Value(key); v != nil {
		return v
	}
	return c.Context.Value(key)
}

// countingTransport counts request and response body bytes.
type countingTransport struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		t.bytes.Add(r.ContentLength)
	}
	resp, err := t.next.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// newClient is the load generator's HTTP client: keep-alive connections,
// at most one per CPU, as a single load-generating process on this
// machine can drive.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		IdleConnTimeout:     time.Minute,
	}}
}
