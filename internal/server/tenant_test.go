package server

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/obs"
)

func TestTenantConfigNormalize(t *testing.T) {
	bad := []TenantConfig{
		{},                  // empty name
		{Name: "../escape"}, // path characters
		{Name: "a b"},       // whitespace
		{Name: ".hidden"},   // leading dot
		{Name: "jobs"},      // reserved namespace
		{Name: "ok", MaxConcurrent: -1},
		{Name: "ok", MaxQueue: -2},
		{Name: "ok", RatePerSec: -1},
		{Name: "ok", RatePerSec: math.NaN()},
		{Name: "ok", RatePerSec: math.Inf(1)},
		{Name: "ok", Burst: math.NaN()},
	}
	for _, cfg := range bad {
		if _, err := cfg.normalize(); err == nil {
			t.Errorf("normalize(%+v) accepted an invalid config", cfg)
		}
	}

	n, err := TenantConfig{Name: "acme", RatePerSec: 5}.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if n.Weight != DefaultTenantWeight {
		t.Fatalf("weight defaulted to %d, want %d", n.Weight, DefaultTenantWeight)
	}
	if n.Burst != 5 {
		t.Fatalf("burst defaulted to %v, want the rate (5)", n.Burst)
	}
	n, err = TenantConfig{Name: "slow", RatePerSec: 0.25}.normalize()
	if err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if n.Burst != 1 {
		t.Fatalf("burst for sub-1 rate = %v, want the 1-token floor", n.Burst)
	}
}

func TestLoadTenantsFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	body := `{"tenants":[{"name":"acme","key":"k1","weight":3,"rate_per_sec":2.5},{"name":"guest","key":""}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	configs, err := LoadTenantsFile(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want := []TenantConfig{
		{Name: "acme", Key: "k1", Weight: 3, RatePerSec: 2.5},
		{Name: "guest"},
	}
	if !reflect.DeepEqual(configs, want) {
		t.Fatalf("loaded %+v, want %+v", configs, want)
	}

	// Unknown fields are config typos, not forward compatibility.
	if err := os.WriteFile(path, []byte(`{"tenants":[{"name":"a","key":"k","rate":5}]}`), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := LoadTenantsFile(path); err == nil {
		t.Fatalf("unknown field accepted")
	}
	if _, err := LoadTenantsFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

// TestLoadTenantsFileRejectsTrailingDocument loads a file holding two
// tables: the second must fail the load, not vanish.
func TestLoadTenantsFileRejectsTrailingDocument(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	for _, body := range []string{
		`{"tenants":[{"name":"a","key":"ka"}]}{"tenants":[{"name":"b","key":"kb"}]}`,
		`{"tenants":[{"name":"a","key":"ka"}]}]`,
		`{"tenants":[{"name":"a","key":"ka"}]}}`,
	} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		if configs, err := LoadTenantsFile(path); err == nil {
			t.Errorf("%s: loaded %+v with a nil error", body, configs)
		}
	}
}

func TestTenantTokenBucket(t *testing.T) {
	ten := testTenant(t, TenantConfig{Name: "acme", RatePerSec: 2, Burst: 2})
	now := time.Unix(1000, 0)

	// The bucket starts full: Burst requests pass, the next is shed with
	// a refill-sized hint.
	for i := 0; i < 2; i++ {
		if ok, _ := ten.allow(now); !ok {
			t.Fatalf("request %d denied with a full bucket", i)
		}
	}
	ok, wait := ten.allow(now)
	if ok {
		t.Fatalf("request beyond burst allowed")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want (0, 500ms] scale for rate 2", wait)
	}

	// Half a second refills one token at 2/s.
	if ok, _ := ten.allow(now.Add(500 * time.Millisecond)); !ok {
		t.Fatalf("request denied after refill")
	}
	// A long idle period caps at Burst, not unbounded credit.
	later := now.Add(time.Hour)
	allowed := 0
	for i := 0; i < 5; i++ {
		if ok, _ := ten.allow(later); ok {
			allowed++
		}
	}
	if allowed != 2 {
		t.Fatalf("after idle: %d allowed, want the burst cap 2", allowed)
	}

	// Zero rate means unlimited.
	open := testTenant(t, TenantConfig{Name: "open"})
	for i := 0; i < 100; i++ {
		if ok, _ := open.allow(now); !ok {
			t.Fatalf("unlimited tenant denied")
		}
	}
}

// requestWith builds a GET request carrying the given auth header.
func requestWith(t *testing.T, header, value string) *http.Request {
	t.Helper()
	r, err := http.NewRequest(http.MethodGet, "http://example/readyz", nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if header != "" {
		r.Header.Set(header, value)
	}
	return r
}

func TestTenantLookup(t *testing.T) {
	ts := newTenants(obs.NewRegistry())

	// Open mode: any key, or none, resolves to the anonymous identity.
	for _, r := range []*http.Request{
		requestWith(t, "", ""),
		requestWith(t, "X-API-Key", "whatever"),
		requestWith(t, "Authorization", "Bearer whatever"),
	} {
		st, err := ts.lookup(r)
		if err != nil || st.name != AnonymousTenant {
			t.Fatalf("open-mode lookup = (%v, %v), want anonymous", st, err)
		}
	}

	if err := ts.set([]TenantConfig{
		{Name: "acme", Key: "secret-a"},
		{Name: "bob", Key: "secret-b"},
	}); err != nil {
		t.Fatalf("set: %v", err)
	}

	st, err := ts.lookup(requestWith(t, "Authorization", "Bearer secret-a"))
	if err != nil || st.name != "acme" {
		t.Fatalf("bearer lookup = (%v, %v), want acme", st, err)
	}
	st, err = ts.lookup(requestWith(t, "X-API-Key", "secret-b"))
	if err != nil || st.name != "bob" {
		t.Fatalf("header lookup = (%v, %v), want bob", st, err)
	}
	// No catch-all: keyless and unknown-key requests are 401s.
	if _, err := ts.lookup(requestWith(t, "", "")); err == nil {
		t.Fatalf("keyless request accepted without a catch-all")
	}
	if _, err := ts.lookup(requestWith(t, "X-API-Key", "stolen")); err == nil {
		t.Fatalf("unknown key accepted")
	}

	// A catch-all entry serves keyless requests.
	if err := ts.set([]TenantConfig{
		{Name: "acme", Key: "secret-a"},
		{Name: "guest"},
	}); err != nil {
		t.Fatalf("set with catch-all: %v", err)
	}
	st, err = ts.lookup(requestWith(t, "", ""))
	if err != nil || st.name != "guest" {
		t.Fatalf("catch-all lookup = (%v, %v), want guest", st, err)
	}
}

func TestSetTenantsValidation(t *testing.T) {
	ts := newTenants(obs.NewRegistry())
	if err := ts.set([]TenantConfig{{Name: "a", Key: "k"}}); err != nil {
		t.Fatalf("set: %v", err)
	}
	cases := [][]TenantConfig{
		{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}}, // duplicate name
		{{Name: "a", Key: "k"}, {Name: "b", Key: "k"}},   // duplicate key
		{{Name: "jobs", Key: "k"}},                       // reserved name
		{{Name: "", Key: "k"}},                           // invalid name
	}
	for i, cfgs := range cases {
		if err := ts.set(cfgs); err == nil {
			t.Errorf("case %d: invalid table accepted", i)
		}
	}
	// Failed reloads leave the current table untouched.
	if got := ts.namesSnapshot(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("table after failed reloads = %v, want [a]", got)
	}
}

func TestSetTenantsPreservesLiveState(t *testing.T) {
	ts := newTenants(obs.NewRegistry())
	if err := ts.set([]TenantConfig{{Name: "acme", Key: "k", RatePerSec: 1, Burst: 2}}); err != nil {
		t.Fatalf("set: %v", err)
	}
	st, err := ts.lookup(requestWith(t, "X-API-Key", "k"))
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	// Drain the bucket, then reload with a new key and weight.
	now := time.Unix(2000, 0)
	st.allow(now)
	st.allow(now)
	if err := ts.set([]TenantConfig{{Name: "acme", Key: "k2", RatePerSec: 1, Burst: 2, Weight: 7}}); err != nil {
		t.Fatalf("reload: %v", err)
	}
	st2, err := ts.lookup(requestWith(t, "X-API-Key", "k2"))
	if err != nil {
		t.Fatalf("lookup after reload: %v", err)
	}
	if st2 != st {
		t.Fatalf("reload rebuilt the tenant state; bucket level and metrics were lost")
	}
	if st2.config().Weight != 7 {
		t.Fatalf("reload kept the old config (weight %d)", st2.config().Weight)
	}
	// The bucket was empty before the reload and must still be empty:
	// a SIGHUP is not a rate-limit reset.
	if ok, _ := st2.allow(now); ok {
		t.Fatalf("reload refilled the token bucket")
	}
}

func TestAPIKeyExtraction(t *testing.T) {
	cases := []struct {
		header, value, want string
	}{
		{"Authorization", "Bearer abc", "abc"},
		{"Authorization", "bearer abc", "abc"}, // scheme is case-insensitive
		{"Authorization", "Basic abc", ""},
		{"X-API-Key", " abc ", "abc"},
		{"", "", ""},
	}
	for _, tc := range cases {
		if got := apiKey(requestWith(t, tc.header, tc.value)); got != tc.want {
			t.Errorf("apiKey(%s: %q) = %q, want %q", tc.header, tc.value, got, tc.want)
		}
	}
}

// TestTenantEngineSlotsCountsGrants pins what tenant_engine_slots_total
// counts: WDRR slot grants on the engine pool, one per engine chunk,
// not one per evaluation. A per=4 tmm sweep is 4,096 points, which
// chunkSize cuts into eight 512-point chunks on two workers.
func TestTenantEngineSlotsCountsGrants(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Options{Workers: 2, Metrics: reg})
	res := sweepOver(t, ts.URL, SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 4}})
	if res.Error != nil {
		t.Fatalf("sweep failed: %+v", res.Error)
	}
	if res.Engine.Evaluations != 4096 {
		t.Fatalf("sweep spent %d evaluations, want 4096", res.Engine.Evaluations)
	}
	if got := reg.Counter(obs.Labeled("tenant_engine_slots_total", "tenant", AnonymousTenant)).Value(); got != 8 {
		t.Fatalf("tenant_engine_slots_total = %d, want 8 grants for 4096 points on 2 workers", got)
	}
}

// peakEvaluator is a plain (unbatched) evaluator that forwards its inner
// evaluator's fingerprint and records the peak number of its EvaluateCtx
// calls running at once.
type peakEvaluator struct {
	dse.CtxEvaluator
	running, peak *atomic.Int64
}

func (p peakEvaluator) EvaluateCtx(ctx context.Context, pt []float64) (float64, error) {
	n := p.running.Add(1)
	defer p.running.Add(-1)
	for old := p.peak.Load(); n > old && !p.peak.CompareAndSwap(old, n); old = p.peak.Load() {
	}
	time.Sleep(200 * time.Microsecond)
	return p.CtxEvaluator.EvaluateCtx(ctx, pt)
}

func (p peakEvaluator) Fingerprint() string {
	return p.CtxEvaluator.(engine.Fingerprinter).Fingerprint()
}

// TestEngineGateBoundsWorkers pins the engine pool's bound on a server:
// eight concurrent batches from two weighted tenants, all admitted at
// once, never run more evaluations at a time than the engine has
// workers, and do reach that many.
func TestEngineGateBoundsWorkers(t *testing.T) {
	var running, peak atomic.Int64
	prev := testWrapEvaluator
	testWrapEvaluator = func(ev dse.CtxEvaluator) dse.CtxEvaluator {
		return peakEvaluator{CtxEvaluator: ev, running: &running, peak: &peak}
	}
	t.Cleanup(func() { testWrapEvaluator = prev })
	_, ts := newTestServer(t, Options{
		Workers:       2,
		MaxConcurrent: 8,
		CacheSize:     -1,
		Tenants: []TenantConfig{
			{Name: "heavy", Key: "heavy-key", Weight: 3},
			{Name: "light", Key: "light-key", Weight: 1},
		},
	})
	req := BatchRequest{Model: ModelSpec{App: "tmm"}, Points: testPoints(t, 48)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		key := []string{"heavy-key", "light-key"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postJSONKeyed(t, &http.Client{}, ts.URL+"/v1/evaluate:batch", key, req)
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"done":true,"points":48,`)) ||
				!bytes.Contains(body, []byte(`"errors":0,`)) {
				t.Errorf("batch as %s: status %d, body ends %q", key, resp.StatusCode, body[max(0, len(body)-200):])
			}
		}()
	}
	wg.Wait()
	if got := peak.Load(); got != 2 {
		t.Fatalf("peak concurrent evaluations = %d, want the engine's 2 workers", got)
	}
}
