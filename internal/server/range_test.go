package server

import (
	"net/http"
	"testing"

	"repro/internal/model"
)

// TestOutOfRangePerAndRadius rejects space and neighborhood sizes the
// endpoints cannot honour: a negative per, and a negative radius or any
// radius on a family without an analytic neighborhood, are 400
// validation errors instead of silently sweeping a different space.
func TestOutOfRangePerAndRadius(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobDir: t.TempDir()})
	gpu := ModelSpec{Schema: CatalogSchema, App: "fft", Family: model.FamilyGPU}
	commsync := ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync}
	cases := []struct {
		name string
		url  string
		body interface{}
	}{
		{"sweep negative per, non-c2bound family", "/v1/sweep",
			SweepRequest{Model: gpu, Space: SpaceSpec{Per: -1}}},
		{"sweep negative per beside explicit params", "/v1/sweep",
			SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: -1, Params: []ParamSpec{{Name: "x", Values: []float64{1}}}}}},
		{"sweep c2bound per above 10", "/v1/sweep",
			SweepRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 11}}},
		{"family aps negative per", "/v1/aps",
			APSRequest{Model: commsync, Space: SpaceSpec{Per: -1}}},
		{"family aps radius", "/v1/aps",
			APSRequest{Model: commsync, Space: SpaceSpec{Per: 2}, Radius: 1}},
		{"aps negative radius", "/v1/aps",
			APSRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, Radius: -1}},
		{"job aps negative radius", "/v1/jobs",
			JobSubmitRequest{APS: &APSRequest{Model: ModelSpec{App: "tmm"}, Space: SpaceSpec{Per: 2}, Radius: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.Client(), ts.URL+tc.url, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				resp.Body.Close()
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			var env errorEnvelope
			decodeBody(t, resp, &env)
			if env.Error.Code != CodeValidation {
				t.Fatalf("code = %q, want %q (%s)", env.Error.Code, CodeValidation, env.Error.Message)
			}
		})
	}
}
