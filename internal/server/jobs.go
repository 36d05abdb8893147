package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
)

// JobSubmitRequest is the body of POST /v1/jobs: exactly one of Sweep or
// APS describes the work. Kind is optional and, when present, must match
// the populated field. Jobs own their checkpoints (one per job ID inside
// JobDir, always resumed), so the inner request must not name one.
type JobSubmitRequest struct {
	Kind  string        `json:"kind,omitempty"`
	Sweep *SweepRequest `json:"sweep,omitempty"`
	APS   *APSRequest   `json:"aps,omitempty"`
}

// JobList is the GET /v1/jobs payload.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// SweepJobResult is the deterministic final payload of a sweep job:
// identical inputs produce byte-identical bytes whether the job ran
// straight through or was killed and resumed, because every field
// derives from the evaluated values alone (RawValues in the checkpoint
// keep bit identity across restarts).
type SweepJobResult struct {
	BestIndex int        `json:"best_index"`
	BestPoint []float64  `json:"best_point,omitempty"`
	BestValue *jsonFloat `json:"best_value,omitempty"`
	Values    valueList  `json:"values,omitempty"`
}

// APSJobResult is the deterministic final payload of an APS job (the
// volatile simulation/cache counters live in the job's Report).
type APSJobResult struct {
	Analytic       APSDesign  `json:"analytic"`
	Snapped        []int      `json:"snapped"`
	BestIndex      int        `json:"best_index"`
	BestPoint      []float64  `json:"best_point,omitempty"`
	BestValue      *jsonFloat `json:"best_value,omitempty"`
	AnalyticPoints int        `json:"analytic_points"`
	SpaceSize      int        `json:"space_size"`
}

// jobEntry is one job's in-memory state beside its persisted record.
type jobEntry struct {
	mu         sync.Mutex
	job        Job
	cancel     context.CancelFunc // non-nil while the runner is live
	userCancel bool
	started    time.Time
	total      int
	evaluated  atomic.Int64
}

// snapshot copies the record, attaching live progress while running.
func (e *jobEntry) snapshot() Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	j := e.job
	if j.State == JobRunning {
		j.Progress = &JobProgress{
			Evaluated: e.evaluated.Load(),
			Total:     e.total,
			ElapsedMS: time.Since(e.started).Milliseconds(),
		}
	}
	return j
}

// jobManager owns the /v1/jobs subsystem: the disk store, the in-memory
// entries, and the runner goroutines. Runners take tenant-fair admission
// slots like interactive requests (waiting rather than shedding), so
// background jobs respect the same quotas and cannot starve the
// interactive plane beyond their tenant's share.
type jobManager struct {
	s       *Server
	store   *jobStore
	baseCtx context.Context

	mu      sync.Mutex
	entries map[string]*jobEntry
}

// newJobManager opens the store and loads every persisted record; New
// panics on a store error (construction-time misconfiguration). Call
// adoptOrphans afterwards to restart interrupted work.
func newJobManager(s *Server, dir string) *jobManager {
	store, err := newJobStore(dir)
	if err != nil {
		//lint:allow errwrap construction-time misconfiguration (unusable JobDir), mirrors Options.Tenants
		panic(err)
	}
	// The job plane outlives any request, so its context is the process
	// lifetime; forced drains cancel runners through the server's cancel
	// registry, exactly like streaming requests.
	baseCtx := context.Background() //lint:allow ctxflow the job plane is process-scoped, not request-scoped
	m := &jobManager{s: s, store: store, baseCtx: baseCtx, entries: make(map[string]*jobEntry)}
	jobs, err := store.list()
	if err != nil {
		//lint:allow errwrap construction-time misconfiguration (unreadable JobDir), mirrors Options.Tenants
		panic(err)
	}
	for _, j := range jobs {
		m.entries[j.ID] = &jobEntry{job: *j}
	}
	return m
}

// adoptOrphans restarts every job that was pending or running when the
// previous process died: each resumes from its checkpoint (a missing
// checkpoint file simply restarts the work from zero).
func (m *jobManager) adoptOrphans() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.entries {
		if !terminalJobState(e.job.State) {
			go m.run(e)
		}
	}
}

// get returns the entry for id (nil when unknown).
func (m *jobManager) get(id string) *jobEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[id]
}

// checkpointPath is the job's checkpoint file, beside its record.
func (m *jobManager) checkpointPath(id string) string {
	return filepath.Join(m.store.dir, id+".ck")
}

// nowStamp is the wall-clock stamp format of job records.
func nowStamp() string { return time.Now().UTC().Format(time.RFC3339Nano) }

// validateSubmit checks a submission with the validator its endpoint
// uses, so submit-time errors reach the client synchronously instead of
// surfacing as failed jobs.
func (s *Server) validateSubmit(sub *JobSubmitRequest) (string, error) {
	switch {
	case sub.Sweep != nil && sub.APS != nil:
		return "", validationf("server: job names both sweep and aps; want exactly one")
	case sub.Sweep == nil && sub.APS == nil:
		return "", validationf("server: job names no work; want sweep or aps")
	}
	kind, ck, resume := "sweep", "", false
	if sub.APS != nil {
		kind, ck, resume = "aps", sub.APS.Checkpoint, sub.APS.Resume
	} else {
		ck, resume = sub.Sweep.Checkpoint, sub.Sweep.Resume
	}
	if sub.Kind != "" && sub.Kind != kind {
		return "", validationf("server: job kind %q does not match the %s request", sub.Kind, kind)
	}
	if ck != "" || resume {
		return "", validationf("server: jobs manage their own checkpoints; drop checkpoint/resume")
	}
	var err error
	if kind == "aps" {
		_, err = s.apsInputs(sub.APS)
	} else {
		_, err = s.sweepInputs(sub.Sweep)
	}
	return kind, err
}

// handleJobSubmit accepts a job, persists it and starts its runner; the
// 202 response carries the pending record with its ID.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.rejectDraining(w) {
		return
	}
	t := tenantFrom(r.Context())
	if !s.allowRate(w, t) {
		return
	}
	var sub JobSubmitRequest
	if err := decodeJSON(r, &sub); err != nil {
		s.fail(w, err)
		return
	}
	kind, err := s.validateSubmit(&sub)
	if err != nil {
		s.fail(w, err)
		return
	}
	id, err := newJobID()
	if err != nil {
		s.fail(w, err)
		return
	}
	raw, err := json.Marshal(sub)
	if err != nil {
		s.fail(w, err)
		return
	}
	e := &jobEntry{job: Job{
		ID:      id,
		Tenant:  t.name,
		Kind:    kind,
		State:   JobPending,
		Created: nowStamp(),
		Request: raw,
	}}
	if err := s.jobs.store.save(&e.job); err != nil {
		s.fail(w, err)
		return
	}
	s.jobs.mu.Lock()
	s.jobs.entries[id] = e
	s.jobs.mu.Unlock()
	// Snapshot before the runner starts: once it runs, the record may
	// already be running.
	pending := e.snapshot()
	go s.jobs.run(e)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(pending)
}

// handleJobList lists the requesting tenant's jobs, oldest first.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	t := tenantFrom(r.Context())
	s.jobs.mu.Lock()
	entries := make([]*jobEntry, 0, len(s.jobs.entries))
	for _, e := range s.jobs.entries {
		entries = append(entries, e)
	}
	s.jobs.mu.Unlock()
	resp := JobList{Jobs: make([]Job, 0, len(entries))}
	for _, e := range entries {
		if j := e.snapshot(); j.Tenant == t.name {
			resp.Jobs = append(resp.Jobs, j)
		}
	}
	sort.Slice(resp.Jobs, func(i, k int) bool { return jobLess(&resp.Jobs[i], &resp.Jobs[k]) })
	writeJSON(w, resp)
}

// jobLess orders jobs by creation stamp, then ID.
func jobLess(a, b *Job) bool {
	if a.Created != b.Created {
		return a.Created < b.Created
	}
	return a.ID < b.ID
}

// jobForRequest resolves {id} to the requesting tenant's job; unknown
// IDs and other tenants' jobs are indistinguishable 404s.
func (s *Server) jobForRequest(r *http.Request) (*jobEntry, error) {
	id := r.PathValue("id")
	if !jobIDRx.MatchString(id) {
		return nil, notFoundf("server: unknown job %q", id)
	}
	e := s.jobs.get(id)
	if e == nil {
		return nil, notFoundf("server: unknown job %q", id)
	}
	if e.snapshot().Tenant != tenantFrom(r.Context()).name {
		return nil, notFoundf("server: unknown job %q", id)
	}
	return e, nil
}

// handleJobGet reports one job, with live progress while it runs.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	e, err := s.jobForRequest(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, e.snapshot())
}

// handleJobResult serves a succeeded job's deterministic result payload
// verbatim; anything not (yet) succeeded is a 409 naming the state.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	e, err := s.jobForRequest(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	j := e.snapshot()
	if j.State != JobSucceeded {
		s.fail(w, conflictf("server: job %s is %s, not succeeded", j.ID, j.State))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(j.Result)
}

// handleJobCancel requests cancellation: pending jobs die before
// admission, running jobs are cancelled (flushing their checkpoint on
// the way out). Cancelling a canceled job is idempotent; a succeeded or
// failed job answers 409.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	e, err := s.jobForRequest(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	e.mu.Lock()
	switch e.job.State {
	case JobSucceeded, JobFailed:
		state := e.job.State
		e.mu.Unlock()
		s.fail(w, conflictf("server: job is already %s", state))
		return
	case JobCanceled:
		e.mu.Unlock()
	default:
		e.userCancel = true
		if e.cancel != nil {
			e.cancel()
		}
		e.mu.Unlock()
	}
	writeJSON(w, e.snapshot())
}

// handleJobDelete removes a terminal job's record and checkpoint.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	e, err := s.jobForRequest(r)
	if err != nil {
		s.fail(w, err)
		return
	}
	j := e.snapshot()
	if !terminalJobState(j.State) {
		s.fail(w, conflictf("server: job %s is %s; cancel it before deleting", j.ID, j.State))
		return
	}
	if err := s.jobs.store.delete(j.ID, s.jobs.checkpointPath(j.ID)); err != nil {
		s.fail(w, err)
		return
	}
	s.jobs.mu.Lock()
	delete(s.jobs.entries, j.ID)
	s.jobs.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// run executes one job attempt end to end. Interruption semantics: a
// user cancel persists the canceled state; a drain or crash persists
// nothing, leaving the on-disk state running/pending so the next process
// adopts the job and resumes its checkpoint.
func (m *jobManager) run(e *jobEntry) {
	if m.s.draining.Load() {
		return
	}
	t := m.s.tenants.byNameOrAnon(e.job.Tenant)
	ctx := contextWithTenant(m.baseCtx, t)
	ctx = obs.ContextWithTracer(ctx, m.s.tracer)
	ctx = obs.ContextWithMetrics(ctx, m.s.metrics)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	e.mu.Lock()
	if e.userCancel {
		m.finishLocked(e, JobCanceled)
		e.mu.Unlock()
		return
	}
	e.cancel = cancel
	e.mu.Unlock()
	regID := m.s.registerCancel(cancel)
	defer m.s.unregisterCancel(regID)
	m.s.inflight.Add(1)
	defer m.s.inflight.Done()

	// Jobs wait for their tenant-fair admission slot instead of shedding:
	// the queue is disk-backed, so depth costs nothing but fairness still
	// applies through the same WDRR gate interactive requests use.
	release, err := m.s.adm.acquireWait(ctx, t)
	if err != nil {
		m.interrupt(e)
		return
	}
	defer release()

	e.mu.Lock()
	e.job.State = JobRunning
	e.job.Attempts++
	e.job.Started = nowStamp()
	e.started = time.Now()
	snap := e.job
	e.mu.Unlock()
	if err := m.store.save(&snap); err != nil {
		m.failJob(e, err)
		return
	}

	ctx, sp := m.s.tracer.Start(ctx, "server.job",
		obs.S("job", e.job.ID), obs.S("kind", e.job.Kind), obs.S("tenant", e.job.Tenant))
	var payload any
	var report *dse.SweepReport
	var sub JobSubmitRequest
	err = json.Unmarshal(e.job.Request, &sub)
	switch {
	case err == nil && e.job.Kind == "aps" && sub.APS != nil:
		payload, report, err = m.runAPS(ctx, e, sub.APS)
	case err == nil && e.job.Kind != "aps" && sub.Sweep != nil:
		payload, report, err = m.runSweep(ctx, e, sub.Sweep)
	default:
		err = validationf("server: job %s carries an unreadable request", e.job.ID)
	}
	var result json.RawMessage
	if err == nil {
		result, err = json.Marshal(payload)
	}
	sp.Finish()
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			m.interrupt(e)
			return
		}
		m.failJob(e, err)
		return
	}
	e.mu.Lock()
	e.job.Result = result
	e.job.Report = report
	m.finishLocked(e, JobSucceeded)
	snap = e.job
	e.mu.Unlock()
	_ = m.store.save(&snap)
}

// finishLocked stamps a terminal state (e.mu held; persistence is the
// caller's).
func (m *jobManager) finishLocked(e *jobEntry, state string) {
	e.job.State = state
	e.job.Finished = nowStamp()
	e.cancel = nil
}

// interrupt resolves a cancelled run: user cancels become terminal and
// persisted, drains leave the disk record untouched for adoption.
func (m *jobManager) interrupt(e *jobEntry) {
	e.mu.Lock()
	if !e.userCancel {
		e.cancel = nil
		e.mu.Unlock()
		return
	}
	m.finishLocked(e, JobCanceled)
	snap := e.job
	e.mu.Unlock()
	_ = m.store.save(&snap)
}

// failJob persists a failed terminal state with the classified envelope.
func (m *jobManager) failJob(e *jobEntry, err error) {
	_, body := classify(err)
	e.mu.Lock()
	e.job.Error = &body
	m.finishLocked(e, JobFailed)
	snap := e.job
	e.mu.Unlock()
	_ = m.store.save(&snap)
}

// runSweep executes a sweep job attempt through the /v1/sweep runner:
// local-only, always resuming the job's own checkpoint (absent on the
// first attempt: a fresh sweep).
func (m *jobManager) runSweep(ctx context.Context, e *jobEntry, req *SweepRequest) (any, *dse.SweepReport, error) {
	sr, err := m.s.sweepInputs(req)
	if err != nil {
		return nil, nil, err
	}
	e.mu.Lock()
	e.total = sr.total()
	e.mu.Unlock()
	unlock, err := m.s.openSweep(sr, m.checkpointPath(e.job.ID), true, &e.evaluated)
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	res, err := sr.run(ctx)
	return res.SweepJobResult, &res.Report, err
}

// runAPS executes an APS job attempt through the /v1/aps runner, for
// every family, keeping the deterministic part of its response.
func (m *jobManager) runAPS(ctx context.Context, e *jobEntry, req *APSRequest) (any, *dse.SweepReport, error) {
	ar, err := m.s.apsInputs(req)
	if err != nil {
		return nil, nil, err
	}
	resp, err := m.s.runAPSRequest(ctx, ar, m.checkpointPath(e.job.ID), true, &e.evaluated)
	return resp.jobResult(), &resp.Report, err
}
