package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Health probing is the slow membership loop beside the fast per-request
// circuit breakers: breakers decide whether to try a peer right now,
// probing decides whether the peer should own ring segments at all. An
// ejected peer's keys move to the next alive peer clockwise (counted in
// cluster_ring_moves_total) so steady-state traffic stops paying the
// breaker-probe tax for a peer that is down for minutes, and a single
// successful probe readmits it.

const (
	// probeInterval is the health-probe cadence.
	probeInterval = 2 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// ejectAfter is the consecutive failed probes before a peer is
	// ejected from the ring. A single successful probe readmits.
	ejectAfter = 2
)

// StartProber launches the background health loop under ctx (the
// process's run context; cancelling it ends the loop too) and returns a
// stop function that blocks until the loop has exited. Idempotent stop.
func (c *Cluster) StartProber(ctx context.Context) (stop func()) {
	c.mu.Lock()
	if c.proberStop != nil {
		stopCh, doneCh := c.proberStop, c.proberDone
		c.mu.Unlock()
		return stopFunc(stopCh, doneCh)
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	c.proberStop, c.proberDone = stopCh, doneCh
	c.mu.Unlock()

	go func() {
		defer close(doneCh)
		t := time.NewTicker(probeInterval)
		defer t.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				c.ProbeOnce(ctx)
			}
		}
	}()
	return stopFunc(stopCh, doneCh)
}

// stopFunc closes stopCh once and waits for the loop to drain.
func stopFunc(stopCh chan struct{}, doneCh chan struct{}) func() {
	return func() {
		select {
		case <-stopCh:
		default:
			close(stopCh)
		}
		<-doneCh
	}
}

// ProbeOnce health-checks every remote peer once, ejecting peers whose
// consecutive probe failures reach the threshold and readmitting
// recovered ones. It returns the number of membership changes applied.
// The prober calls it on a ticker; tests call it directly.
func (c *Cluster) ProbeOnce(ctx context.Context) int {
	c.mu.Lock()
	peers := make([]*peerState, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()

	changes := 0
	for _, p := range peers {
		healthy := c.probe(ctx, p)
		p.mu.Lock()
		if healthy {
			p.probeFails = 0
			if p.ejected {
				p.ejected = false
				changes++
			}
		} else {
			p.probeFails++
			if !p.ejected && p.probeFails >= ejectAfter {
				p.ejected = true
				changes++
			}
		}
		p.mu.Unlock()
	}
	if changes > 0 {
		c.mu.Lock()
		c.rebuildRingLocked()
		c.mu.Unlock()
	}
	return changes
}

// probe performs one GET /healthz against a peer under the probe
// timeout.
func (c *Cluster) probe(ctx context.Context, p *peerState) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.baseURL()+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
	}()
	return resp.StatusCode == http.StatusOK
}

// Ejected reports whether a peer is currently out of the ring (test and
// readyz hook).
func (c *Cluster) Ejected(name string) (bool, error) {
	p := c.peer(name)
	if p == nil {
		return false, fmt.Errorf("cluster: unknown peer %q", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.ejected, nil
}

// BreakerOpen reports whether a peer's circuit breaker currently
// rejects requests (test hook).
func (c *Cluster) BreakerOpen(name string) (bool, error) {
	p := c.peer(name)
	if p == nil {
		return false, fmt.Errorf("cluster: unknown peer %q", name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return time.Now().Before(p.openUntil), nil
}
