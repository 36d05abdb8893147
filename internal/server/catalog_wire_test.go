package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
)

// TestModelSpecWireCompatibility pins the catalog/1 ↔ catalog/2 wire
// contract: a spec without the new fields marshals byte-for-byte as the
// original catalog/1 JSON, a catalog/1 document and its explicit
// catalog/2 equivalent resolve to the same engine fingerprint, and
// unmarshal→marshal is a fixed point for both versions.
func TestModelSpecWireCompatibility(t *testing.T) {
	// 1. Marshaling: the new fields are omitempty, so a spec that does
	// not use them produces exactly the catalog/1 bytes.
	legacy := ModelSpec{App: "tmm", Overrides: map[string]float64{"fseq": 0.2}}
	got, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"app":"tmm","overrides":{"fseq":0.2}}`
	if string(got) != want {
		t.Fatalf("catalog/1 marshaling changed:\n got %s\nwant %s", got, want)
	}

	// 2. Resolution: catalog/1 (absent fields) and catalog/2 with the
	// family spelled out build the same model — same fingerprint, so the
	// two wire versions share engine cache entries.
	c := DefaultCatalog()
	var v1Spec ModelSpec
	if err := json.Unmarshal([]byte(want), &v1Spec); err != nil {
		t.Fatal(err)
	}
	v2Spec := v1Spec
	v2Spec.Schema = CatalogSchema
	v2Spec.Family = model.FamilyC2Bound
	m1, err := c.ResolveModel(v1Spec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.ResolveModel(v2Spec)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Fingerprint() != m2.Fingerprint() {
		t.Fatalf("catalog/1 fingerprint %q != catalog/2 fingerprint %q", m1.Fingerprint(), m2.Fingerprint())
	}

	// 3. One memo identity: both wire versions, the core.Model catalog
	// path and the in-process family evaluator the library and the
	// benchmark oracles use all key the c2bound objective by the same
	// family-qualified fingerprint, so every path shares cache entries.
	ev1, err := c.EvaluatorFamily(m1, EvaluatorSpec{})
	if err != nil {
		t.Fatal(err)
	}
	ev2, err := c.EvaluatorFamily(m2, EvaluatorSpec{})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := c.Resolve(v1Spec)
	if err != nil {
		t.Fatal(err)
	}
	coreEv, err := c.Evaluator(cm, EvaluatorSpec{})
	if err != nil {
		t.Fatal(err)
	}
	fps := map[string]string{
		"EvaluatorFamily(catalog/1)": ev1.(engine.Fingerprinter).Fingerprint(),
		"EvaluatorFamily(catalog/2)": ev2.(engine.Fingerprinter).Fingerprint(),
		"Evaluator(core.Model)":      coreEv.(engine.Fingerprinter).Fingerprint(),
		"dse.NewFamilyEvaluator":     dse.NewFamilyEvaluator(m1).Fingerprint(),
	}
	want1 := fps["dse.NewFamilyEvaluator"]
	if !strings.HasPrefix(want1, model.FingerprintPrefix(model.FamilyC2Bound)) {
		t.Fatalf("in-process fingerprint %q lacks the %q namespace", want1, model.FingerprintPrefix(model.FamilyC2Bound))
	}
	for path, fp := range fps {
		if fp != want1 {
			t.Fatalf("%s fingerprint %q != in-process family fingerprint %q", path, fp, want1)
		}
	}

	// 4. Round-trip stability: unmarshal→marshal is a fixed point for
	// both wire versions.
	for _, doc := range []string{
		want,
		`{"schema":"catalog/2","app":"fft","family":"gpu","params":{"m_fma":0.75}}`,
	} {
		var spec ModelSpec
		if err := json.Unmarshal([]byte(doc), &spec); err != nil {
			t.Fatalf("unmarshal %s: %v", doc, err)
		}
		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, []byte(doc)) {
			t.Fatalf("round trip not stable:\n in  %s\n out %s", doc, out)
		}
	}
}

// TestModelSpecSchemaValidation rejects unknown schemas and family
// fields on endpoints that need the analytic C²-Bound form.
func TestModelSpecSchemaValidation(t *testing.T) {
	c := DefaultCatalog()
	if _, err := c.ResolveModel(ModelSpec{Schema: "catalog/9", App: "tmm"}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := c.ResolveModel(ModelSpec{App: "tmm", Family: "no-such-family"}); err == nil {
		t.Fatal("unknown family accepted")
	}
	if _, err := c.ResolveModel(ModelSpec{App: "tmm", Family: "gpu", Params: map[string]float64{"m_fma": 1.5}}); err == nil {
		t.Fatal("out-of-domain family parameter accepted")
	}
	if _, err := c.Resolve(ModelSpec{App: "tmm", Family: "gpu"}); err == nil {
		t.Fatal("Resolve accepted a non-c2bound family")
	}
}

// TestCatalogEndpoint checks GET /v1/catalog: current schema, the
// application names, and every registered family with documented
// parameter domains.
func TestCatalogEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := ts.Client().Get(ts.URL + "/v1/catalog")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var out CatalogResponse
	decodeBody(t, resp, &out)
	if out.Schema != CatalogSchema {
		t.Fatalf("schema %q, want %q", out.Schema, CatalogSchema)
	}
	apps := map[string]bool{}
	for _, a := range out.Apps {
		apps[a] = true
	}
	if !apps["tmm"] || !apps["fft"] {
		t.Fatalf("apps %v missing catalog profiles", out.Apps)
	}
	fams := map[string]CatalogFamily{}
	for _, f := range out.Families {
		fams[f.Name] = f
	}
	for _, name := range []string{model.FamilyC2Bound, model.FamilyGPU, model.FamilyCommSync, model.FamilySqrtM} {
		if _, ok := fams[name]; !ok {
			t.Fatalf("families %v missing %q", out.Families, name)
		}
	}
	gpu := fams[model.FamilyGPU]
	params := map[string]CatalogParam{}
	for _, p := range gpu.Params {
		params[p.Name] = p
	}
	mfma, ok := params["m_fma"]
	if !ok {
		t.Fatalf("gpu family params %v missing m_fma", gpu.Params)
	}
	if float64(mfma.Lo) != 0 || float64(mfma.Hi) != 1 {
		t.Fatalf("m_fma domain [%v, %v], want [0, 1]", mfma.Lo, mfma.Hi)
	}
}

// TestEvaluateFamilyEndpoint scores single family points over HTTP:
// dimensionality is validated against the resolved family's space (not
// the c2bound 6-dim shape), and a repeat of the same request hits the
// shared cache.
func TestEvaluateFamilyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := EvaluateRequest{
		Model: ModelSpec{Schema: CatalogSchema, App: "fft", Family: model.FamilyGPU},
		Point: []float64{16, 128, 0.5}, // SM, lanes, occupancy
	}
	var first, second EvaluateResponse
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	decodeBody(t, resp, &first)
	if !first.Feasible || first.CacheHit {
		t.Fatalf("first evaluation: %+v, want feasible cold", first)
	}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", req)
	decodeBody(t, resp, &second)
	if !second.CacheHit {
		t.Fatalf("second evaluation: %+v, want cache hit", second)
	}
	if float64(first.Value) != float64(second.Value) {
		t.Fatalf("values diverge: %v vs %v", first.Value, second.Value)
	}

	// A c2bound-shaped point is the wrong dimensionality for gpu.
	req.Point = []float64{4.725, 2.025, 4.275, 3, 16, 256}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/evaluate", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("6-dim point for gpu: status = %d, want 400", resp.StatusCode)
	}
}

// TestSweepFamilyEndpoint sweeps a non-C²-Bound family end to end over
// HTTP: the gpu family's declared space, batched through the shared
// engine, must stream to a finite best design.
func TestSweepFamilyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SweepRequest{
		Model:         ModelSpec{Schema: CatalogSchema, App: "fft", Family: model.FamilyGPU},
		Space:         SpaceSpec{Per: 3},
		IncludeValues: true,
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/sweep", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var result SweepResult
	seen := false
	sc := bufio.NewScanner(resp.Body)
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
		t.Fatal("stream ended without a result frame")
	}
	if result.Error != nil {
		t.Fatalf("sweep failed: %+v", result.Error)
	}
	// gpu space is 3-dimensional; per=3 gives 27 designs.
	if got := len(result.Values); got != 27 {
		t.Fatalf("swept %d designs, want 27", got)
	}
	if result.BestValue == nil || math.IsInf(float64(*result.BestValue), 1) || float64(*result.BestValue) <= 0 {
		t.Fatalf("no finite positive best value: %v", result.BestValue)
	}
	if len(result.BestPoint) != 3 {
		t.Fatalf("best point %v, want 3 dims (sm, lanes, theta)", result.BestPoint)
	}
}

// TestAPSFamilyEndpoint runs /v1/aps for a family without an analytic
// closed form: the response degrades to a grid optimum and reports the
// swept size.
func TestAPSFamilyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := APSRequest{
		Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync},
		Space: SpaceSpec{Per: 4},
	}
	resp := postJSON(t, ts.Client(), ts.URL+"/v1/aps", req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out APSResponse
	decodeBody(t, resp, &out)
	if out.Analytic.Method != "grid" {
		t.Fatalf("method %q, want grid (no closed form for commsync)", out.Analytic.Method)
	}
	// commsync space is 2-dimensional; per=4 gives 16 designs.
	if out.SpaceSize != 16 {
		t.Fatalf("space size %d, want 16", out.SpaceSize)
	}
	if out.BestValue == nil || math.IsInf(float64(*out.BestValue), 1) {
		t.Fatalf("no finite best: %+v", out)
	}
	if len(out.BestPoint) != 2 {
		t.Fatalf("best point %v, want 2 dims (a0, n)", out.BestPoint)
	}

	// The simulator cannot score non-chip designs: evaluator kind "sim"
	// must be rejected, not silently mis-scored.
	req.Evaluator = EvaluatorSpec{Kind: "sim"}
	resp = postJSON(t, ts.Client(), ts.URL+"/v1/aps", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("sim evaluator for commsync: status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
}
