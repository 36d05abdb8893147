package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
)

// jobSweepRequest is the standard job body of these tests: a 64-point
// simulated sweep, slow enough to observe running and deterministic
// under the fixed default seed.
func jobSweepRequest() JobSubmitRequest {
	return JobSubmitRequest{Sweep: &SweepRequest{
		Model:           ModelSpec{App: "tmm"},
		Evaluator:       EvaluatorSpec{Kind: "sim", TotalRefs: 2000},
		Space:           SpaceSpec{Per: 2},
		CheckpointEvery: 4,
		IncludeValues:   true,
	}}
}

// getJSON GETs url (optionally keyed) and decodes the body into v,
// returning the status.
func getJSON(t *testing.T, base, path, key string, v interface{}) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding GET %s: %v", path, err)
		}
	}
	return resp.StatusCode
}

// submitJob POSTs sub and returns the accepted record.
func submitJob(t *testing.T, base string, sub JobSubmitRequest) Job {
	t.Helper()
	resp := postJSON(t, http.DefaultClient, base+"/v1/jobs", sub)
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("submit = %d, want 202\n%s", resp.StatusCode, body)
	}
	var j Job
	decodeBody(t, resp, &j)
	if !jobIDRx.MatchString(j.ID) {
		t.Fatalf("submit returned malformed job ID %q", j.ID)
	}
	return j
}

// waitJobState polls the job until its state is terminal, failing the
// test if that terminal state differs from want.
func waitJobState(t *testing.T, base, id, want string) Job {
	t.Helper()
	var j Job
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if status := getJSON(t, base, "/v1/jobs/"+id, "", &j); status != http.StatusOK {
			t.Fatalf("poll job %s = %d", id, status)
		}
		if terminalJobState(j.State) {
			if j.State != want {
				t.Fatalf("job %s finished %s (error: %+v), want %s", id, j.State, j.Error, want)
			}
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state (last: %s)", id, j.State)
	return j
}

// TestJobLifecycle drives one sweep job from submission to deletion:
// 202 with a pending record, poll to succeeded, fetch the result, then
// cancel (409: already terminal), delete (204) and observe the 404.
func TestJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobDir: t.TempDir()})

	j := submitJob(t, ts.URL, jobSweepRequest())
	if j.Kind != "sweep" || j.Tenant != AnonymousTenant || j.Attempts != 0 {
		t.Fatalf("accepted record %+v", j)
	}
	if j.State != JobPending {
		t.Fatalf("accepted record is %s, want %s", j.State, JobPending)
	}

	// Result before success is a 409 naming the live state.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/result")
	if err != nil {
		t.Fatalf("early result: %v", err)
	}
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result before success = %d, want 409", resp.StatusCode)
	}
	var env errorEnvelope
	decodeBody(t, resp, &env)
	if env.Error.Code != CodeConflict {
		t.Fatalf("early result code = %q, want %q", env.Error.Code, CodeConflict)
	}

	done := waitJobState(t, ts.URL, j.ID, JobSucceeded)
	if done.Attempts != 1 || done.Started == "" || done.Finished == "" {
		t.Fatalf("succeeded record %+v", done)
	}
	if done.Report == nil || len(done.Report.Completed) != 64 {
		t.Fatalf("succeeded job report %+v, want 64 completed", done.Report)
	}

	// The job appears in the list.
	var list JobList
	if status := getJSON(t, ts.URL, "/v1/jobs", "", &list); status != http.StatusOK {
		t.Fatalf("list = %d", status)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != j.ID {
		t.Fatalf("list = %+v, want exactly job %s", list.Jobs, j.ID)
	}

	// The result is the deterministic payload.
	var res SweepJobResult
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID+"/result", "", &res); status != http.StatusOK {
		t.Fatalf("result = %d", status)
	}
	if len(res.Values) != 64 || res.BestIndex < 0 || res.BestIndex >= 64 {
		t.Fatalf("result %+v, want 64 values and a best index", res)
	}

	// Cancel after success conflicts; delete retires the record.
	resp = postJSON(t, http.DefaultClient, ts.URL+"/v1/jobs/"+j.ID+"/cancel", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("cancel after success = %d, want 409", resp.StatusCode)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", resp.StatusCode)
	}
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID, "", nil); status != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", status)
	}
}

// TestJobCancel cancels a running job: the record goes canceled (and
// stays canceled on a second, idempotent cancel), delete then works.
func TestJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobDir: t.TempDir()})
	sub := jobSweepRequest()
	sub.Sweep.Evaluator.TotalRefs = 50000 // slow enough to catch mid-run
	j := submitJob(t, ts.URL, sub)

	cancel := func() Job {
		resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/jobs/"+j.ID+"/cancel", struct{}{})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel = %d, want 200", resp.StatusCode)
		}
		var out Job
		decodeBody(t, resp, &out)
		return out
	}
	cancel()
	done := waitJobState(t, ts.URL, j.ID, JobCanceled)
	if done.Result != nil {
		t.Fatalf("canceled job carries a result")
	}
	// Idempotent: cancelling again reports the same terminal record.
	if again := cancel(); again.State != JobCanceled {
		t.Fatalf("second cancel state = %s", again.State)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+j.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete canceled job = %d, want 204", resp.StatusCode)
	}
}

// TestJobSubmitValidation exercises the synchronous submit-time checks:
// every rejection is a 400 validation envelope, and nothing is persisted.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobDir: t.TempDir()})
	sweep := func(mut func(*SweepRequest)) JobSubmitRequest {
		sub := jobSweepRequest()
		mut(sub.Sweep)
		return sub
	}
	cases := []struct {
		name   string
		sub    JobSubmitRequest
		status int
		code   string
		want   string // substring of the message
	}{
		{"no work", JobSubmitRequest{},
			http.StatusBadRequest, CodeValidation, "no work"},
		{"both kinds", JobSubmitRequest{
			Sweep: jobSweepRequest().Sweep,
			APS:   &APSRequest{Model: ModelSpec{App: "tmm"}},
		}, http.StatusBadRequest, CodeValidation, "exactly one"},
		{"kind mismatch", JobSubmitRequest{Kind: "aps", Sweep: jobSweepRequest().Sweep},
			http.StatusBadRequest, CodeValidation, "does not match"},
		{"named checkpoint", sweep(func(r *SweepRequest) { r.Checkpoint = "ck" }),
			http.StatusBadRequest, CodeValidation, "own checkpoints"},
		{"resume flag", sweep(func(r *SweepRequest) { r.Resume = true }),
			http.StatusBadRequest, CodeValidation, "own checkpoints"},
		{"index out of range", sweep(func(r *SweepRequest) { r.Indices = []int{64} }),
			http.StatusBadRequest, CodeValidation, "outside space"},
		{"unknown app", sweep(func(r *SweepRequest) { r.Model.App = "no-such-app" }),
			http.StatusNotFound, CodeNotFound, "no-such-app"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/jobs", tc.sub)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			var env errorEnvelope
			decodeBody(t, resp, &env)
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
			if !strings.Contains(env.Error.Message, tc.want) {
				t.Fatalf("message %q misses %q", env.Error.Message, tc.want)
			}
		})
	}
	var list JobList
	if status := getJSON(t, ts.URL, "/v1/jobs", "", &list); status != http.StatusOK || len(list.Jobs) != 0 {
		t.Fatalf("rejected submissions persisted: %d, %+v", status, list.Jobs)
	}
}

// TestJobFamilySweepMatchesSweepEndpoint submits a gpu-family sweep as a
// job: /v1/jobs must accept every family /v1/sweep serves, and the job's
// best design must be the streaming sweep's, bit for bit.
func TestJobFamilySweepMatchesSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobDir: t.TempDir()})
	req := SweepRequest{
		Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyGPU},
		Space: SpaceSpec{Per: 2},
	}
	want := sweepOver(t, ts.URL, req)
	j := submitJob(t, ts.URL, JobSubmitRequest{Sweep: &req})
	waitJobState(t, ts.URL, j.ID, JobSucceeded)
	var got SweepJobResult
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID+"/result", "", &got); status != http.StatusOK {
		t.Fatalf("result = %d", status)
	}
	if want.BestValue == nil || got.BestValue == nil {
		t.Fatalf("best value missing: sweep %v, job %v", want.BestValue, got.BestValue)
	}
	if got.BestIndex != want.BestIndex ||
		math.Float64bits(float64(*got.BestValue)) != math.Float64bits(float64(*want.BestValue)) {
		t.Fatalf("job best %d = %v, sweep best %d = %v", got.BestIndex, *got.BestValue, want.BestIndex, *want.BestValue)
	}
}

// TestJobFamilyAPSMatchesAPSEndpoint submits a commsync APS run as a
// job: /v1/jobs must accept every family /v1/aps serves, and the job's
// best design must be the endpoint's, bit for bit.
func TestJobFamilyAPSMatchesAPSEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobDir: t.TempDir()})
	req := APSRequest{
		Model: ModelSpec{Schema: CatalogSchema, App: "tmm", Family: model.FamilyCommSync},
		Space: SpaceSpec{Per: 2},
	}
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/aps", req)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("/v1/aps = %d\n%s", resp.StatusCode, body)
	}
	var want APSResponse
	decodeBody(t, resp, &want)
	j := submitJob(t, ts.URL, JobSubmitRequest{APS: &req})
	done := waitJobState(t, ts.URL, j.ID, JobSucceeded)
	if done.Report == nil || len(done.Report.Completed) != want.SpaceSize {
		t.Fatalf("job report %+v, want %d completed", done.Report, want.SpaceSize)
	}
	var got APSJobResult
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID+"/result", "", &got); status != http.StatusOK {
		t.Fatalf("result = %d", status)
	}
	if want.BestValue == nil || got.BestValue == nil {
		t.Fatalf("best value missing: endpoint %v, job %v", want.BestValue, got.BestValue)
	}
	if got.BestIndex != want.BestIndex ||
		math.Float64bits(float64(*got.BestValue)) != math.Float64bits(float64(*want.BestValue)) {
		t.Fatalf("job best %d = %v, endpoint best %d = %v", got.BestIndex, *got.BestValue, want.BestIndex, *want.BestValue)
	}
	if got.Analytic.Method != "grid" || got.SpaceSize != want.SpaceSize {
		t.Fatalf("job result %+v, want the grid scan of %d points", got, want.SpaceSize)
	}
}

// TestJobsDisabledWithoutJobDir checks the endpoints 404 when no JobDir
// is configured.
func TestJobsDisabledWithoutJobDir(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp := postJSON(t, http.DefaultClient, ts.URL+"/v1/jobs", jobSweepRequest())
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("submit without JobDir = %d, want 404", resp.StatusCode)
	}
}

// TestJobTenantScoping checks jobs are invisible across tenants: a
// foreign job ID is an indistinguishable 404 on every verb, and lists
// are filtered.
func TestJobTenantScoping(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, JobDir: t.TempDir(), Tenants: []TenantConfig{
		{Name: "acme", Key: "ka"},
		{Name: "bob", Key: "kb"},
	}})

	// Submit as acme.
	data, _ := json.Marshal(jobSweepRequest())
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-API-Key", "ka")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var j Job
	decodeBody(t, resp, &j)
	if j.Tenant != "acme" {
		t.Fatalf("job tenant = %q", j.Tenant)
	}

	// Bob sees nothing: get, result, cancel, delete all 404.
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID, "kb", nil); status != http.StatusNotFound {
		t.Fatalf("foreign get = %d, want 404", status)
	}
	if status := getJSON(t, ts.URL, "/v1/jobs/"+j.ID+"/result", "kb", nil); status != http.StatusNotFound {
		t.Fatalf("foreign result = %d, want 404", status)
	}
	for _, probe := range []struct{ method, path string }{
		{http.MethodPost, "/v1/jobs/" + j.ID + "/cancel"},
		{http.MethodDelete, "/v1/jobs/" + j.ID},
	} {
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, nil)
		req.Header.Set("X-API-Key", "kb")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", probe.method, probe.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("foreign %s = %d, want 404", probe.path, resp.StatusCode)
		}
	}
	var bobList JobList
	if status := getJSON(t, ts.URL, "/v1/jobs", "kb", &bobList); status != http.StatusOK || len(bobList.Jobs) != 0 {
		t.Fatalf("bob's list: %d, %+v", status, bobList.Jobs)
	}
	var acmeList JobList
	if status := getJSON(t, ts.URL, "/v1/jobs", "ka", &acmeList); status != http.StatusOK || len(acmeList.Jobs) != 1 {
		t.Fatalf("acme's list: %d, %+v", status, acmeList.Jobs)
	}
}

// TestJobStoreRejectsForeignID keeps job records inside the job
// directory: a record whose own id is not its file name — here one that
// would lead the record and checkpoint writes one level up — is not
// loaded, so the server neither adopts nor rewrites it.
func TestJobStoreRejectsForeignID(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "jobs")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	const id = "j0123456789abcdef"
	rec := `{"id":"../escaped","kind":"sweep","state":"running","attempts":1,"request":{}}`
	if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	if j, err := (&jobStore{dir: dir}).load(id); err == nil {
		t.Fatalf("load accepted record %s with id %q", id, j.ID)
	}

	_, ts := newTestServer(t, Options{Workers: 1, JobDir: dir})
	var list JobList
	if code := getJSON(t, ts.URL, "/v1/jobs", "", &list); code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	if len(list.Jobs) != 0 {
		t.Fatalf("server adopted %d foreign records: %+v", len(list.Jobs), list.Jobs)
	}
	for _, name := range []string{"escaped.json", "escaped.ck"} {
		if _, err := os.Stat(filepath.Join(base, name)); !os.IsNotExist(err) {
			t.Errorf("%s written outside the job directory (stat: %v)", name, err)
		}
	}
}

// TestJobCrashAdoptionByteIdenticalResume is the PR's acceptance test: a
// sweep job killed mid-run by a forced drain (the crash stand-in — no
// terminal state reaches disk) is adopted by the next server over the
// same JobDir, resumes from its own checkpoint, and produces a result
// byte-identical to an uninterrupted run of the same submission.
func TestJobCrashAdoptionByteIdenticalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-lifecycle test")
	}
	dir := t.TempDir()
	opts := func(jobDir string) Options {
		return Options{Workers: 2, MaxConcurrent: 2, JobDir: jobDir}
	}

	// First life: submit, wait for measurable progress, then "crash".
	s1 := New(opts(dir))
	ts1 := httptest.NewServer(s1)
	t.Cleanup(ts1.Close)
	j := submitJob(t, ts1.URL, jobSweepRequest())
	waitFor(t, "job progress", func() bool {
		var cur Job
		if getJSON(t, ts1.URL, "/v1/jobs/"+j.ID, "", &cur) != http.StatusOK {
			return false
		}
		if terminalJobState(cur.State) {
			t.Fatalf("job finished (%s) before the crash; raise TotalRefs", cur.State)
		}
		return cur.Progress != nil && cur.Progress.Evaluated >= 8
	})
	// A forced drain: the expired context cancels every runner and waits
	// for handlers to unwind, persisting no terminal state — exactly the
	// disk picture a SIGKILL leaves behind.
	expired, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel()
	if err := s1.Shutdown(expired); err == nil {
		t.Fatalf("forced drain reported a clean shutdown")
	}
	ts1.Close()
	onDisk, err := (&jobStore{dir: dir}).load(j.ID)
	if err != nil {
		t.Fatalf("reading crashed record: %v", err)
	}
	if terminalJobState(onDisk.State) {
		t.Fatalf("crash persisted terminal state %s", onDisk.State)
	}

	// Second life over the same JobDir: the orphan is adopted and resumed.
	s2 := New(opts(dir))
	ts2 := httptest.NewServer(s2)
	t.Cleanup(ts2.Close)
	resumed := waitJobState(t, ts2.URL, j.ID, JobSucceeded)
	if resumed.Attempts != 2 {
		t.Fatalf("resumed job ran %d attempts, want 2", resumed.Attempts)
	}
	if resumed.Report == nil || resumed.Report.Resumed == 0 {
		t.Fatalf("adopted job restored nothing from its checkpoint: %+v", resumed.Report)
	}

	// Reference: the same submission straight through on a fresh JobDir.
	s3 := New(opts(t.TempDir()))
	ts3 := httptest.NewServer(s3)
	t.Cleanup(ts3.Close)
	ref := submitJob(t, ts3.URL, jobSweepRequest())
	straight := waitJobState(t, ts3.URL, ref.ID, JobSucceeded)
	if straight.Attempts != 1 {
		t.Fatalf("reference job ran %d attempts", straight.Attempts)
	}

	if !bytes.Equal(resumed.Result, straight.Result) {
		t.Fatalf("resumed result differs from the uninterrupted run:\nresumed:  %s\nstraight: %s",
			resumed.Result, straight.Result)
	}
}
