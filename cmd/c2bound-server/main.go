// Command c2bound-server serves the C²-Bound evaluation stack over HTTP:
// single-point evaluation, NDJSON batches, server-side streaming sweeps,
// the full APS flow, and the asynchronous /v1/jobs resource, all against
// one shared memoizing engine (see internal/server, DESIGN.md §10–11).
//
// Usage:
//
//	c2bound-server [-addr :8080] [-workers n] [-cache n]
//	               [-max-concurrent n] [-max-queue n]
//	               [-timeout 30s] [-max-timeout 5m]
//	               [-checkpoint-dir dir] [-trace out.json]
//	               [-tenants tenants.json] [-job-dir dir]
//	               [-peers peers.json] [-peer-self name]
//	               [-cache-snapshot cache.snap]
//	               [-drain-timeout 30s]
//
// -tenants names a JSON file ({"tenants":[{name, key, weight, ...}]})
// declaring per-tenant API keys, fair-share weights, quotas and rate
// limits; SIGHUP re-reads it and swaps the table without dropping live
// work. -job-dir enables /v1/jobs with durable records there; jobs found
// running after a crash are adopted and resumed from their checkpoints.
//
// -peers joins the process to a cluster (DESIGN.md §15): the JSON
// membership table ({"self":..., "peers":[{name, url}]}) builds a
// consistent-hash ring over the peers, and the remote-owned points of
// evaluates, batches and sweeps travel to their owner's cache.
// -peer-self overrides the file's "self" so every peer can share one
// table. SIGHUP re-reads the table too (membership changes move only the
// affected ring shard). -cache-snapshot persists the memo cache to disk
// on drain and restores it on startup, so a restarted peer comes back
// warm instead of re-earning its shard.
//
// On SIGINT/SIGTERM the server drains: /readyz flips to 503, in-flight
// requests finish (or are cancelled after -drain-timeout, which lets
// checkpointed sweeps and jobs flush their state), then the listener
// closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
)

// runConfig carries the parsed flag set into run.
type runConfig struct {
	addr          string
	workers       int
	cache         int
	maxConcurrent int
	maxQueue      int
	timeout       time.Duration
	maxTimeout    time.Duration
	checkpointDir string
	tenantsPath   string
	jobDir        string
	peersPath     string
	peerSelf      string
	snapshotPath  string
	tracePath     string
	drainTimeout  time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("c2bound-server: ")

	var cfg runConfig
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.workers, "workers", 0, "engine worker bound (0: GOMAXPROCS)")
	flag.IntVar(&cfg.cache, "cache", 0, "engine memo cache size (0: default, -1: off)")
	flag.IntVar(&cfg.maxConcurrent, "max-concurrent", 0, "admitted work requests at once (0: engine workers)")
	flag.IntVar(&cfg.maxQueue, "max-queue", 0, fmt.Sprintf("queued work requests before shedding (0: %d x max-concurrent)", server.DefaultMaxQueueFactor))
	flag.DurationVar(&cfg.timeout, "timeout", server.DefaultTimeout, "default per-request evaluation deadline")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "largest client-requested ?timeout_ms")
	flag.StringVar(&cfg.checkpointDir, "checkpoint-dir", "", "directory for sweep checkpoints (empty: checkpointing off)")
	flag.StringVar(&cfg.tenantsPath, "tenants", "", "tenant table JSON (empty: open single-tenant mode; SIGHUP reloads)")
	flag.StringVar(&cfg.jobDir, "job-dir", "", "directory for durable /v1/jobs records (empty: jobs off)")
	flag.StringVar(&cfg.peersPath, "peers", "", "cluster membership JSON (empty: standalone; SIGHUP reloads)")
	flag.StringVar(&cfg.peerSelf, "peer-self", "", "override the membership file's self name")
	flag.StringVar(&cfg.snapshotPath, "cache-snapshot", "", "memo-cache snapshot file: restored on startup, written on drain")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a Chrome trace_event JSON on exit")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "grace period for in-flight work on shutdown")
	flag.Parse()

	if err := run(cfg); err != nil {
		log.Fatal(err)
	}
}

func run(cfg runConfig) error {
	var tracer *obs.Tracer
	if cfg.tracePath != "" {
		tracer = obs.NewTracer(0)
	}
	if cfg.checkpointDir != "" {
		if err := os.MkdirAll(cfg.checkpointDir, 0o755); err != nil {
			return fmt.Errorf("checkpoint dir: %w", err)
		}
	}

	// One registry serves the server_*, engine_* and cluster_*
	// instruments, so /metrics shows the whole stack.
	metrics := obs.NewRegistry()
	var cl *cluster.Cluster
	if cfg.peersPath != "" {
		pcfg, err := loadPeers(cfg.peersPath, cfg.peerSelf)
		if err != nil {
			return err
		}
		cl, err = cluster.New(pcfg, cluster.Options{Metrics: metrics, Tracer: tracer})
		if err != nil {
			return fmt.Errorf("peers: %w", err)
		}
		log.Printf("cluster: self=%s, %d peers", cl.Self(), len(cl.PeerNames())+1)
	}

	srv := server.New(server.Options{
		Workers:       cfg.workers,
		CacheSize:     cfg.cache,
		MaxConcurrent: cfg.maxConcurrent,
		MaxQueue:      cfg.maxQueue,
		Timeout:       cfg.timeout,
		MaxTimeout:    cfg.maxTimeout,
		CheckpointDir: cfg.checkpointDir,
		JobDir:        cfg.jobDir,
		Cluster:       cl,
		Tracer:        tracer,
		Metrics:       metrics,
	})
	if cfg.tenantsPath != "" {
		if err := loadTenants(srv, cfg.tenantsPath); err != nil {
			return err
		}
		log.Printf("tenants: %s", strings.Join(srv.TenantNames(), ", "))
	}
	if cfg.snapshotPath != "" {
		n, err := srv.Engine().LoadSnapshot(cfg.snapshotPath)
		switch {
		case err == nil:
			log.Printf("cache snapshot: restored %d entries from %s", n, cfg.snapshotPath)
		case os.IsNotExist(err):
			log.Printf("cache snapshot: %s absent, starting cold", cfg.snapshotPath)
		default:
			// A corrupt snapshot must not take the service down: the load
			// is all-or-nothing, so the cache is simply cold.
			log.Printf("cache snapshot: %v (starting cold)", err)
		}
	}

	httpSrv := &http.Server{
		Addr:              cfg.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cl != nil {
		stopProber := cl.StartProber(ctx)
		defer stopProber()
	}

	// SIGHUP swaps the tenant table and the cluster membership in place;
	// a broken file logs and keeps the old table, so a bad edit cannot
	// take the service down.
	if cfg.tenantsPath != "" || cfg.peersPath != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				if cfg.tenantsPath != "" {
					if err := loadTenants(srv, cfg.tenantsPath); err != nil {
						log.Printf("tenants reload: %v (keeping previous table)", err)
					} else {
						log.Printf("tenants reloaded: %s", strings.Join(srv.TenantNames(), ", "))
					}
				}
				if cfg.peersPath != "" {
					pcfg, err := loadPeers(cfg.peersPath, cfg.peerSelf)
					if err == nil {
						err = cl.SetPeers(pcfg)
					}
					if err != nil {
						log.Printf("peers reload: %v (keeping previous membership)", err)
					} else {
						log.Printf("peers reloaded: %d peers", len(cl.PeerNames())+1)
					}
				}
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (workers=%d, endpoints: evaluate, batch, sweep, aps, jobs)", cfg.addr, srv.Engine().Workers())
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	log.Printf("draining (up to %v)...", cfg.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	// Flip /readyz and drain the work plane first so load balancers stop
	// routing before the listener disappears; forced cancellation lets
	// checkpointed sweeps flush state.
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("forced drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("listener close: %v", err)
	}
	if cfg.snapshotPath != "" {
		// After the drain, so the snapshot carries the final cache state.
		if n, err := srv.Engine().SaveSnapshot(cfg.snapshotPath); err != nil {
			log.Printf("cache snapshot: %v", err)
		} else {
			log.Printf("cache snapshot: wrote %d entries to %s", n, cfg.snapshotPath)
		}
	}
	if cfg.tracePath != "" {
		if err := tracer.WriteChromeTraceFile(cfg.tracePath); err != nil {
			log.Printf("trace: %v", err)
		}
	}
	log.Printf("%s", srv.Engine().Stats().String())
	return <-errCh
}

// loadPeers reads the membership table, applying the -peer-self override.
func loadPeers(path, self string) (cluster.Config, error) {
	cfg, err := cluster.LoadPeersFile(path)
	if err != nil {
		return cluster.Config{}, fmt.Errorf("peers: %w", err)
	}
	if self != "" {
		cfg.Self = self
	}
	return cfg, nil
}

// loadTenants reads the tenant file and swaps it into the server.
func loadTenants(srv *server.Server, path string) error {
	cfgs, err := server.LoadTenantsFile(path)
	if err != nil {
		return fmt.Errorf("tenants: %w", err)
	}
	if err := srv.SetTenants(cfgs); err != nil {
		return fmt.Errorf("tenants: %w", err)
	}
	return nil
}
