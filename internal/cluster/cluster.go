package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/robust"
)

// PeerConfig is one membership-table row.
type PeerConfig struct {
	// Name is the peer's stable ring identity; vnode placement hashes
	// it, so renaming a peer moves its shard.
	Name string `json:"name"`
	// URL is the peer's base address, e.g. "http://10.0.0.2:8080".
	URL string `json:"url"`
}

// Config is the peers.json membership table.
type Config struct {
	// Self names this process's own row (overridable by the CLI's
	// -peer-self flag, so one shared file can serve every peer).
	Self string `json:"self,omitempty"`
	// VirtualNodes is the per-peer vnode count (0: DefaultVirtualNodes;
	// at most 4096).
	VirtualNodes int `json:"vnodes,omitempty"`
	// Peers is the full membership, this process included.
	Peers []PeerConfig `json:"peers"`
}

// LoadPeersFile reads a peers.json membership table, rejecting unknown
// keys (a misspelled "vnodes" must not silently reshape one peer's ring)
// and trailing data; New and SetPeers validate it.
func LoadPeersFile(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("cluster: %w", err)
	}
	var cfg Config
	if err := decodeStrict(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: peers file %q: %w", path, err)
	}
	return cfg, nil
}

// decodeStrict decodes data as one JSON document into v, rejecting
// unknown fields and trailing data.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// validate checks the membership table (self resolved already).
func (c Config) validate() error {
	if len(c.Peers) == 0 {
		return fmt.Errorf("cluster: membership table is empty")
	}
	if c.VirtualNodes < 0 || c.VirtualNodes > maxVirtualNodes {
		return fmt.Errorf("cluster: vnodes %d outside [0, %d]", c.VirtualNodes, maxVirtualNodes)
	}
	seen := make(map[string]bool, len(c.Peers))
	selfFound := false
	for _, p := range c.Peers {
		if p.Name == "" {
			return fmt.Errorf("cluster: peer with empty name")
		}
		if seen[p.Name] {
			return fmt.Errorf("cluster: duplicate peer name %q", p.Name)
		}
		seen[p.Name] = true
		u, err := url.Parse(p.URL)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: peer %q has invalid URL %q (want http[s]://host[:port])", p.Name, p.URL)
		}
		if p.Name == c.Self {
			selfFound = true
		}
	}
	if c.Self == "" {
		return fmt.Errorf("cluster: membership table names no self peer")
	}
	if !selfFound {
		return fmt.Errorf("cluster: self peer %q is not in the membership table", c.Self)
	}
	return nil
}

// Options tunes the cluster tier's resilience machinery.
type Options struct {
	// Metrics receives the cluster_* instruments (nil: metrics off).
	// Pass the same registry as the server so /metrics shows them.
	Metrics *obs.Registry
	// Tracer records cluster.peer_eval spans (nil: tracing off).
	Tracer *obs.Tracer
	// Client performs peer HTTP exchanges (nil: a default client; peer
	// deadlines always come from the request context).
	Client *http.Client
	// Retry bounds re-attempts of one peer exchange before the caller
	// falls back to local compute (zero: 2 attempts, 5ms base backoff).
	Retry robust.RetryPolicy
	// FailThreshold is the consecutive-failure count that opens a peer's
	// circuit breaker (0: 3).
	FailThreshold int
	// Cooldown is how long an open breaker rejects a peer before letting
	// one half-open probe request through (0: 5s).
	Cooldown time.Duration
}

// peerState is the live resilience state of one remote peer: the
// circuit breaker (request-driven) and the health view (probe-driven).
// SetPeers preserves it across membership reloads, matched by name.
type peerState struct {
	name string

	mu        sync.Mutex
	url       string
	fails     int       // consecutive request failures
	openUntil time.Time // breaker open until (zero: closed)
	halfOpen  bool      // one trial request admitted after cooldown

	probeFails int
	ejected    bool
}

// Cluster is the peer tier: membership, ring, breakers and the peer
// client. Safe for concurrent use; the ring is rebuilt under the mutex
// on membership or health changes and read under it once per request
// (Ring).
type Cluster struct {
	opts   Options
	client *http.Client
	retry  robust.RetryPolicy
	tracer *obs.Tracer

	reqs      *obs.Counter // cluster_peer_requests_total
	errs      *obs.Counter // cluster_peer_errors_total
	moves     *obs.Counter // cluster_ring_moves_total
	remoteHit *obs.Counter // cluster_remote_hits_total
	localPts  *obs.Counter // cluster_local_points_total
	remotePts *obs.Counter // cluster_remote_points_total
	fallback  *obs.Counter // cluster_fallback_points_total
	seconds   *obs.Histogram

	mu     sync.Mutex
	self   string
	vnodes int
	peers  map[string]*peerState // remote peers only
	ring   *ring                 // over self + non-ejected remotes

	proberStop chan struct{}
	proberDone chan struct{}
}

// New builds the peer tier from a membership table.
func New(cfg Config, opts Options) (*Cluster, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{}
	}
	retry := opts.Retry
	if retry.MaxAttempts == 0 {
		retry = robust.RetryPolicy{MaxAttempts: 2, BaseDelay: 5 * time.Millisecond}
	}
	if opts.FailThreshold <= 0 {
		opts.FailThreshold = 3
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = 5 * time.Second
	}
	r := opts.Metrics
	c := &Cluster{
		opts:   opts,
		client: client,
		retry:  retry,
		tracer: opts.Tracer,

		reqs:      r.Counter("cluster_peer_requests_total"),
		errs:      r.Counter("cluster_peer_errors_total"),
		moves:     r.Counter("cluster_ring_moves_total"),
		remoteHit: r.Counter("cluster_remote_hits_total"),
		localPts:  r.Counter("cluster_local_points_total"),
		remotePts: r.Counter("cluster_remote_points_total"),
		fallback:  r.Counter("cluster_fallback_points_total"),
		seconds:   r.Histogram("cluster_peer_seconds", obs.LatencyBuckets()),

		peers: make(map[string]*peerState),
	}
	if err := c.SetPeers(cfg); err != nil {
		return nil, err
	}
	return c, nil
}

// SetPeers atomically replaces the membership table (the CLI wires this
// to SIGHUP beside the tenant reload). Existing peers keep their live
// breaker and health state, matched by name; on error the current table
// is untouched. Ring ownership moved by the swap is counted into
// cluster_ring_moves_total.
func (c *Cluster) SetPeers(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.self != "" && cfg.Self != c.self {
		return fmt.Errorf("cluster: cannot change self from %q to %q at runtime", c.self, cfg.Self)
	}
	next := make(map[string]*peerState, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.Name == cfg.Self {
			continue
		}
		if old, ok := c.peers[p.Name]; ok {
			old.mu.Lock()
			old.url = strings.TrimSuffix(p.URL, "/")
			old.mu.Unlock()
			next[p.Name] = old
			continue
		}
		next[p.Name] = &peerState{name: p.Name, url: strings.TrimSuffix(p.URL, "/")}
	}
	c.self = cfg.Self
	if cfg.VirtualNodes > 0 {
		c.vnodes = cfg.VirtualNodes
	} else if c.vnodes == 0 {
		c.vnodes = DefaultVirtualNodes
	}
	c.peers = next
	c.rebuildRingLocked()
	return nil
}

// rebuildRingLocked rebuilds the ring over self plus every non-ejected
// remote peer, crediting moved ownership to cluster_ring_moves_total.
// Caller holds c.mu.
func (c *Cluster) rebuildRingLocked() {
	alive := []string{c.self}
	for name, p := range c.peers {
		p.mu.Lock()
		ejected := p.ejected
		p.mu.Unlock()
		if !ejected {
			alive = append(alive, name)
		}
	}
	next := buildRing(alive, c.vnodes)
	if c.ring != nil {
		c.moves.Add(uint64(movedKeys(c.ring, next)))
	}
	c.ring = next
}

// Self returns this process's peer name.
func (c *Cluster) Self() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.self
}

// RingView is one generation of the ring as this process sees it.
// Rings are immutable, so a view stays valid after a membership or
// health change swaps in the next generation: a caller that partitions
// a whole request under one view takes the cluster mutex once and
// places every key of the request by the same ring.
type RingView struct {
	r    *ring
	self string
}

// Ring returns the current ring generation.
func (c *Cluster) Ring() RingView {
	c.mu.Lock()
	defer c.mu.Unlock()
	return RingView{r: c.ring, self: c.self}
}

// Owner returns the peer owning a memo key (engine.KeyHash) and whether
// that owner is this process. Keys owned by ejected peers fall to the
// next alive peer clockwise, because the ring only ever contains alive
// members.
func (v RingView) Owner(key uint64) (name string, local bool) {
	name = v.r.owner(key)
	return name, name == v.self || name == ""
}

// peer returns the live state for a peer name (nil for self/unknown).
func (c *Cluster) peer(name string) *peerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[name]
}

// Summary is the peer-ring view /readyz reports. Field names are stable
// (covered by a test): operators and the bench harness parse them.
type Summary struct {
	Self    string `json:"self"`
	Peers   int    `json:"peers"`
	Alive   int    `json:"alive"`
	Ejected int    `json:"ejected"`
	// Open counts peers whose circuit breaker is currently open.
	Open int `json:"open,omitempty"`
}

// Summary snapshots the ring membership state.
func (c *Cluster) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Summary{Self: c.self, Peers: len(c.peers) + 1, Alive: 1}
	now := time.Now()
	for _, p := range c.peers {
		p.mu.Lock()
		if p.ejected {
			s.Ejected++
		} else {
			s.Alive++
		}
		if now.Before(p.openUntil) {
			s.Open++
		}
		p.mu.Unlock()
	}
	return s
}

// PeerNames lists the remote peer names, sorted.
func (c *Cluster) PeerNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.peers))
	for name := range c.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// --- circuit breaker --------------------------------------------------

// allow reports whether a request may be sent to the peer right now.
// Closed breakers always admit; an open breaker admits nothing until
// its cooldown elapses, then admits exactly one half-open trial whose
// outcome decides between closing and re-opening.
func (p *peerState) allow(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.openUntil.IsZero() || now.After(p.openUntil) {
		if !p.openUntil.IsZero() {
			if p.halfOpen {
				return false // a trial is already in flight
			}
			p.halfOpen = true
		}
		return true
	}
	return false
}

// recordSuccess closes the breaker and clears the failure streak.
func (p *peerState) recordSuccess() {
	p.mu.Lock()
	p.fails = 0
	p.openUntil = time.Time{}
	p.halfOpen = false
	p.mu.Unlock()
}

// recordFailure extends the failure streak, opening the breaker for
// cooldown once it reaches threshold (a failed half-open trial reopens
// immediately).
func (p *peerState) recordFailure(now time.Time, threshold int, cooldown time.Duration) {
	p.mu.Lock()
	p.fails++
	if p.fails >= threshold || p.halfOpen {
		p.openUntil = now.Add(cooldown)
	}
	p.halfOpen = false
	p.mu.Unlock()
}

// baseURL returns the peer's current base address.
func (p *peerState) baseURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.url
}
