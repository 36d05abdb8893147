package server

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Tenancy defaults; exported so the CLI help and the docs quote one
// source of truth.
const (
	// DefaultTenantWeight is a tenant's fair-share weight when its config
	// names none.
	DefaultTenantWeight = 1
	// AnonymousTenant is the identity of every request when no tenant
	// table is configured (single-tenant mode), and of catalog-internal
	// work whose context carries no tenant.
	AnonymousTenant = "anonymous"
)

// TenantConfig declares one tenant of the service: its API key, its
// fair-share weight over the admission and engine worker pools, its
// concurrency quota, and its token-bucket rate limit. The zero limits
// mean "unbounded" — the global admission caps still apply.
type TenantConfig struct {
	// Name identifies the tenant in metrics, job records and checkpoint
	// namespaces. Required; word characters only.
	Name string `json:"name"`
	// Key is the API key presented as `Authorization: Bearer <key>` or
	// `X-API-Key`. Empty marks the catch-all entry that serves requests
	// carrying no (or an unknown-to-nobody) key — without one, keyless
	// requests are rejected with 401.
	Key string `json:"key"`
	// Weight is the tenant's share of the fair-share schedulers (≤0:
	// DefaultTenantWeight). A weight-4 tenant receives 4 slot grants per
	// round for every 1 a weight-1 tenant receives — when both have work
	// queued; an idle tenant's share is redistributed.
	Weight int `json:"weight,omitempty"`
	// MaxConcurrent bounds the tenant's concurrently admitted work
	// requests (0: no per-tenant bound).
	MaxConcurrent int `json:"max_concurrent,omitempty"`
	// MaxQueue bounds the tenant's requests waiting for admission; beyond
	// it the tenant — and only the tenant — is shed with 429 (0: the
	// server's MaxQueue default).
	MaxQueue int `json:"max_queue,omitempty"`
	// RatePerSec is the tenant's sustained request rate; requests beyond
	// the token bucket are shed with 429 + Retry-After before they queue
	// (0: unlimited).
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket's capacity (0: max(RatePerSec, 1)).
	Burst float64 `json:"burst,omitempty"`
}

// tenantNameRx validates tenant names: they become metric label values,
// checkpoint sub-directories and job-record fields, so only word
// characters are allowed and "jobs" is reserved for the job subsystem's
// checkpoint namespace.
var tenantNameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// normalize applies the documented defaults and validates the config.
func (c TenantConfig) normalize() (TenantConfig, error) {
	if !tenantNameRx.MatchString(c.Name) {
		return c, validationf("server: invalid tenant name %q", c.Name)
	}
	if c.Name == checkpointJobsNamespace {
		return c, validationf("server: tenant name %q is reserved for the job subsystem", c.Name)
	}
	if c.Weight <= 0 {
		c.Weight = DefaultTenantWeight
	}
	if c.MaxConcurrent < 0 || c.MaxQueue < 0 {
		return c, validationf("server: tenant %q has negative limits", c.Name)
	}
	if math.IsNaN(c.RatePerSec) || math.IsInf(c.RatePerSec, 0) || c.RatePerSec < 0 {
		return c, validationf("server: tenant %q rate_per_sec %v is not a non-negative finite number", c.Name, c.RatePerSec)
	}
	if math.IsNaN(c.Burst) || math.IsInf(c.Burst, 0) || c.Burst < 0 {
		return c, validationf("server: tenant %q burst %v is not a non-negative finite number", c.Name, c.Burst)
	}
	//lint:allow floatguard zero is the documented "defaulted" sentinel, not a computed value
	if c.Burst == 0 {
		c.Burst = math.Max(c.RatePerSec, 1)
	}
	return c, nil
}

// tenantsFile is the on-disk shape of the -tenants config.
type tenantsFile struct {
	Tenants []TenantConfig `json:"tenants"`
}

// LoadTenantsFile reads a tenant table from a JSON file of the form
// {"tenants":[{...}, ...]}. It validates syntax only; SetTenants applies
// the semantic checks (unique names and keys) atomically.
func LoadTenantsFile(path string) ([]TenantConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f tenantsFile
	if err := decodeStrict(bytes.NewReader(data), &f); err != nil {
		return nil, validationf("server: tenants file %s: %v", path, err)
	}
	return f.Tenants, nil
}

// tenantState is one tenant's live serving state: its current config
// (swapped atomically on reload), its token bucket, and its resolved
// per-tenant instruments. States are keyed by name and survive config
// reloads, so a SIGHUP neither refills a tenant's bucket nor resets its
// metrics.
type tenantState struct {
	name string
	cfg  atomic.Pointer[TenantConfig]

	// Token bucket (lazy refill under mu).
	mu         sync.Mutex
	tokens     float64
	lastRefill time.Time

	obsRequests *obs.Counter
	obsShed     *obs.Counter
	obsQueueSec *obs.Histogram
	// obsSlots counts the engine-pool WDRR slot grants: one per engine
	// chunk, which is up to 512 points for a batch evaluator.
	obsSlots *obs.Counter
}

// newTenantState builds the state for one named tenant, resolving its
// labeled instruments once.
func newTenantState(cfg TenantConfig, metrics *obs.Registry) *tenantState {
	t := &tenantState{
		name:        cfg.Name,
		obsRequests: metrics.Counter(obs.Labeled("tenant_requests_total", "tenant", cfg.Name)),
		obsShed:     metrics.Counter(obs.Labeled("tenant_shed_total", "tenant", cfg.Name)),
		obsQueueSec: metrics.Histogram(obs.Labeled("tenant_queue_seconds", "tenant", cfg.Name), obs.LatencyBuckets()),
		obsSlots:    metrics.Counter(obs.Labeled("tenant_engine_slots_total", "tenant", cfg.Name)),
	}
	t.cfg.Store(&cfg)
	t.tokens = cfg.Burst
	return t
}

// config returns the tenant's current configuration.
func (t *tenantState) config() TenantConfig { return *t.cfg.Load() }

// allow answers one token-bucket admission question at time now: whether
// the request may proceed, and — when it may not — how long until the
// bucket next holds a full token (the Retry-After hint).
func (t *tenantState) allow(now time.Time) (bool, time.Duration) {
	cfg := t.cfg.Load()
	if cfg.RatePerSec <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.lastRefill.IsZero() {
		if elapsed := now.Sub(t.lastRefill).Seconds(); elapsed > 0 {
			t.tokens = math.Min(cfg.Burst, t.tokens+elapsed*cfg.RatePerSec)
		}
	}
	t.lastRefill = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	wait := time.Duration((1 - t.tokens) / cfg.RatePerSec * float64(time.Second))
	return false, wait
}

// tenantTable is the immutable lookup structure the request path reads:
// swapped whole on reload, so lookups never take the reload lock.
type tenantTable struct {
	byKey    map[string]*tenantState
	catchAll *tenantState // entry with Key == "" (nil: keyless requests are rejected)
	open     bool         // true in single-tenant mode (no table configured)
	names    []string     // sorted tenant names, for /readyz
}

// tenants manages the tenant set: lock-free lookup through an atomic
// table pointer, and reload (SIGHUP) that preserves per-tenant state by
// name.
type tenants struct {
	metrics *obs.Registry

	mu     sync.Mutex // serializes reloads
	byName map[string]*tenantState
	anon   *tenantState // single-tenant-mode identity; always non-nil
	table  atomic.Pointer[tenantTable]
}

// newTenants builds the registry in single-tenant (open) mode.
func newTenants(metrics *obs.Registry) *tenants {
	anon := newTenantState(TenantConfig{Name: AnonymousTenant, Weight: DefaultTenantWeight}, metrics)
	ts := &tenants{
		metrics: metrics,
		byName:  map[string]*tenantState{AnonymousTenant: anon},
		anon:    anon,
	}
	ts.table.Store(&tenantTable{open: true, catchAll: anon, names: []string{AnonymousTenant}})
	return ts
}

// set atomically replaces the tenant table. Existing tenants (matched by
// name) keep their live state — bucket level, queue position, metrics —
// and only their configuration is swapped; new names get fresh state.
// An empty configs slice returns the registry to open single-tenant
// mode. Invalid configurations leave the current table untouched.
func (ts *tenants) set(configs []TenantConfig) error {
	normalized := make([]TenantConfig, len(configs))
	names := make(map[string]bool, len(configs))
	keys := make(map[string]bool, len(configs))
	for i, cfg := range configs {
		n, err := cfg.normalize()
		if err != nil {
			return err
		}
		if names[n.Name] {
			return validationf("server: duplicate tenant name %q", n.Name)
		}
		names[n.Name] = true
		if keys[n.Key] {
			return validationf("server: tenants share one key (second holder: %q)", n.Name)
		}
		keys[n.Key] = true
		normalized[i] = n
	}

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if len(normalized) == 0 {
		anonCfg := ts.anon.config()
		ts.table.Store(&tenantTable{open: true, catchAll: ts.anon, names: []string{anonCfg.Name}})
		return nil
	}
	t := &tenantTable{byKey: make(map[string]*tenantState, len(normalized))}
	for _, cfg := range normalized {
		st := ts.byName[cfg.Name]
		if st == nil {
			st = newTenantState(cfg, ts.metrics)
			ts.byName[cfg.Name] = st
		} else {
			c := cfg
			st.cfg.Store(&c)
		}
		if cfg.Key == "" {
			t.catchAll = st
		} else {
			t.byKey[cfg.Key] = st
		}
		t.names = append(t.names, cfg.Name)
	}
	sort.Strings(t.names)
	ts.table.Store(t)
	return nil
}

// lookup resolves the request's tenant from its API key, or reports the
// authorization failure the handler should render.
func (ts *tenants) lookup(r *http.Request) (*tenantState, error) {
	t := ts.table.Load()
	key := apiKey(r)
	if key == "" {
		if t.catchAll != nil {
			return t.catchAll, nil
		}
		return nil, unauthorizedf("server: request carries no API key (Authorization: Bearer or X-API-Key)")
	}
	if t.open {
		// Single-tenant mode ignores keys rather than guessing at them.
		return t.catchAll, nil
	}
	if st, ok := t.byKey[key]; ok {
		return st, nil
	}
	return nil, unauthorizedf("server: unknown API key")
}

// byNameOrAnon returns the named tenant's state, falling back to the
// anonymous identity for work whose tenant has been removed from the
// table (an adopted job after a reload, say) — the work still runs, just
// under the shared default share.
func (ts *tenants) byNameOrAnon(name string) *tenantState {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if st, ok := ts.byName[name]; ok {
		return st
	}
	return ts.anon
}

// anonymous returns the single-tenant-mode identity.
func (ts *tenants) anonymous() *tenantState { return ts.anon }

// namesSnapshot lists the configured tenant names, sorted.
func (ts *tenants) namesSnapshot() []string {
	return append([]string(nil), ts.table.Load().names...)
}

// apiKey extracts the request's API key from the Authorization Bearer
// scheme or the X-API-Key header.
func apiKey(r *http.Request) string {
	auth := r.Header.Get("Authorization")
	if len(auth) > 7 && strings.EqualFold(auth[:7], "Bearer ") {
		return strings.TrimSpace(auth[7:])
	}
	return strings.TrimSpace(r.Header.Get("X-API-Key"))
}

// tenantCtxKey carries the resolved tenant through the request context,
// down to the engine gate.
type tenantCtxKey struct{}

// contextWithTenant attaches t to ctx.
func contextWithTenant(ctx context.Context, t *tenantState) context.Context {
	return context.WithValue(ctx, tenantCtxKey{}, t)
}

// tenantFrom resolves the context's tenant, or nil when the context
// carries none (engine work submitted outside the serving path).
func tenantFrom(ctx context.Context) *tenantState {
	t, _ := ctx.Value(tenantCtxKey{}).(*tenantState)
	return t
}
