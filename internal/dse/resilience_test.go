package dse

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/robust"
)

// uncached is the engine SweepCtx builds for a nil Engine, with the
// given worker bound and retry policy.
func uncached(workers int, retry robust.RetryPolicy) *engine.Engine {
	return engine.New(engine.Options{Workers: workers, CacheSize: -1, Retry: retry})
}

func modelEvalSpace(t *testing.T, per int) (*FamilyEvaluator, Space) {
	t.Helper()
	cfg := chip.DefaultConfig()
	s, err := ReducedSpace(cfg, per)
	if err != nil {
		t.Fatalf("ReducedSpace: %v", err)
	}
	return NewFamilyEvaluator(model.NewC2Bound(core.Model{Chip: cfg, App: core.FluidanimateApp()})), s
}

func TestSweepCtxMatchesPlainSweep(t *testing.T) {
	eval, s := modelEvalSpace(t, 2)
	vals, rep, err := SweepCtx(context.Background(), eval, s, nil, SweepOptions{Engine: uncached(4, robust.RetryPolicy{})})
	if err != nil {
		t.Fatalf("SweepCtx: %v", err)
	}
	if len(rep.Completed) != s.Size() || len(rep.Failed) != 0 || len(rep.Pending) != 0 || rep.Canceled {
		t.Fatalf("report = %+v", rep)
	}
	for i := range vals {
		if plain := eval.Evaluate(s.Point(i)); math.Float64bits(plain) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d differs: %v vs %v", i, plain, vals[i])
		}
	}
}

func TestSweepCtxCancelReturnsPromptlyWithPartialResults(t *testing.T) {
	s, err := NewSpace(Param{Name: "x", Values: make([]float64, 64)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Params[0].Values {
		s.Params[0].Values[i] = float64(i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	evaluated := make(chan int, 64)
	eval := robust.EvaluatorFunc(func(c context.Context, p []float64) (float64, error) {
		if p[0] >= 8 {
			// Block until cancelled: these indices must end up Pending.
			<-c.Done()
			return math.NaN(), c.Err()
		}
		evaluated <- int(p[0])
		return p[0] * 10, nil
	})
	go func() {
		// Cancel once a few fast points finished.
		for i := 0; i < 4; i++ {
			<-evaluated
		}
		cancel()
	}()
	start := time.Now()
	vals, rep, err := SweepCtx(ctx, eval, s, nil, SweepOptions{Engine: uncached(4, robust.RetryPolicy{})})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("sweep took %v after cancel", took)
	}
	if !rep.Canceled {
		t.Fatal("report does not mark cancellation")
	}
	if len(rep.Pending) == 0 {
		t.Fatal("no pending indices despite cancellation")
	}
	if len(rep.Completed) == 0 {
		t.Fatal("no partial results before cancellation")
	}
	if len(rep.Completed)+len(rep.Pending)+len(rep.Failed) != rep.Total {
		t.Fatalf("index partition broken: %d+%d+%d != %d",
			len(rep.Completed), len(rep.Pending), len(rep.Failed), rep.Total)
	}
	for _, i := range rep.Completed {
		if vals[i] != float64(i)*10 {
			t.Fatalf("completed index %d has value %v", i, vals[i])
		}
	}
	for _, i := range rep.Pending {
		if !math.IsNaN(vals[i]) {
			t.Fatalf("pending index %d has value %v, want NaN", i, vals[i])
		}
	}
}

func TestSweepCtxFaultInjectionMatchesFaultFreeExactly(t *testing.T) {
	eval, s := modelEvalSpace(t, 2)
	clean, _, err := SweepCtx(context.Background(), eval, s, nil, SweepOptions{Engine: uncached(4, robust.RetryPolicy{})})
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}

	faulty := robust.NewFaulty(eval, 0xfa117)
	faulty.PFail = 0.15
	faulty.PPanic = 0.05 // 20% transient faults total
	vals, rep, err := SweepCtx(context.Background(), faulty, s, nil, SweepOptions{
		Engine: uncached(4, robust.RetryPolicy{MaxAttempts: 12, BaseDelay: time.Microsecond, MaxDelay: 50 * time.Microsecond}),
	})
	if err != nil {
		t.Fatalf("faulty sweep: %v", err)
	}
	if len(rep.Failed) != 0 {
		t.Fatalf("faulty sweep left permanent failures: %+v", rep.Failed)
	}
	if rep.Retries == 0 {
		t.Fatal("20% fault injection produced zero retries")
	}
	calls, failures, panics, _ := faulty.Counts()
	if failures == 0 && panics == 0 {
		t.Fatalf("no faults injected over %d calls", calls)
	}
	for i := range clean {
		if math.Float64bits(clean[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("index %d: faulty %v != clean %v", i, vals[i], clean[i])
		}
	}
}

func TestSweepCtxCheckpointResumeByteIdentical(t *testing.T) {
	eval, s := modelEvalSpace(t, 2)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")

	// Reference: one uninterrupted sweep.
	want, _, err := SweepCtx(context.Background(), eval, s, nil, SweepOptions{Engine: uncached(2, robust.RetryPolicy{})})
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Pass 1: evaluate only half the indices, checkpointing every write,
	// then "kill" (here: simply stop after the partial index list).
	half := make([]int, 0, s.Size()/2)
	for i := 0; i < s.Size(); i += 2 {
		half = append(half, i)
	}
	_, rep1, err := SweepCtx(context.Background(), eval, s, half, SweepOptions{
		Engine: uncached(2, robust.RetryPolicy{}), CheckpointPath: path, CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatalf("partial sweep: %v", err)
	}
	if len(rep1.Completed) != len(half) {
		t.Fatalf("partial sweep completed %d of %d", len(rep1.Completed), len(half))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint not written: %v", err)
	}

	// Pass 2: resume over the full space; the checkpointed half must be
	// restored, the rest evaluated, and the result byte-identical.
	got, rep2, err := SweepCtx(context.Background(), eval, s, nil, SweepOptions{
		Engine: uncached(2, robust.RetryPolicy{}), CheckpointPath: path, Resume: true,
	})
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if rep2.Resumed != len(half) {
		t.Fatalf("resumed %d indices, want %d", rep2.Resumed, len(half))
	}
	if len(rep2.Completed) != s.Size() {
		t.Fatalf("resumed sweep completed %d of %d", len(rep2.Completed), s.Size())
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("index %d: resumed %v != reference %v (bits %x vs %x)",
				i, got[i], want[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestSweepCtxCancelThenResumeCompletes(t *testing.T) {
	// The checkpoint written on cancellation must let a resumed run finish
	// the job without re-evaluating the completed part.
	s, err := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	fired := make(chan struct{})
	eval := robust.EvaluatorFunc(func(c context.Context, p []float64) (float64, error) {
		if p[0] >= 4 {
			select {
			case fired <- struct{}{}:
			default:
			}
			<-c.Done()
			return math.NaN(), c.Err()
		}
		return p[0] + 100, nil
	})
	go func() {
		<-fired
		cancel()
	}()
	_, rep, err := SweepCtx(ctx, eval, s, nil, SweepOptions{
		Engine: uncached(1, robust.RetryPolicy{}), CheckpointPath: path, CheckpointEvery: 1,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if len(rep.Completed) == 0 || len(rep.Pending) == 0 {
		t.Fatalf("unexpected split: %+v", rep)
	}

	vals, rep2, err := SweepCtx(context.Background(), robust.EvaluatorFunc(
		func(_ context.Context, p []float64) (float64, error) { return p[0] + 100, nil },
	), s, nil, SweepOptions{Engine: uncached(1, robust.RetryPolicy{}), CheckpointPath: path, Resume: true})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rep2.Resumed != len(rep.Completed) {
		t.Fatalf("resumed %d, want %d", rep2.Resumed, len(rep.Completed))
	}
	for i := 0; i < s.Size(); i++ {
		if vals[i] != float64(i)+100 {
			t.Fatalf("index %d = %v after resume", i, vals[i])
		}
	}
}

func TestSweepCtxPermanentFailureReported(t *testing.T) {
	s, err := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	broken := errors.New("hardware on fire")
	eval := robust.EvaluatorFunc(func(_ context.Context, p []float64) (float64, error) {
		if p[0] == 2 {
			return math.NaN(), broken
		}
		return p[0], nil
	})
	vals, rep, err := SweepCtx(context.Background(), eval, s, nil, SweepOptions{
		Engine: uncached(2, robust.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}),
	})
	if err != nil {
		t.Fatalf("SweepCtx: %v", err)
	}
	if len(rep.Failed) != 1 || rep.Failed[0].Index != 2 {
		t.Fatalf("Failed = %+v, want index 2", rep.Failed)
	}
	if rep.Failed[0].Attempts != 2 {
		t.Fatalf("failure after %d attempts, want 2", rep.Failed[0].Attempts)
	}
	if !math.IsNaN(vals[2]) {
		t.Fatalf("failed index has value %v", vals[2])
	}
	if len(rep.Completed) != 3 {
		t.Fatalf("completed = %v", rep.Completed)
	}
}

func TestSweepCtxTimeoutOption(t *testing.T) {
	s, err := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	eval := robust.EvaluatorFunc(func(c context.Context, p []float64) (float64, error) {
		select {
		case <-c.Done():
			return math.NaN(), c.Err()
		case <-time.After(time.Hour):
			return p[0], nil
		}
	})
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, rep, err := SweepCtx(ctx, eval, s, nil, SweepOptions{Engine: uncached(2, robust.RetryPolicy{})})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout not honored promptly")
	}
	if !rep.Canceled || len(rep.Pending) != s.Size() {
		t.Fatalf("report = %+v", rep)
	}
}

func TestResumeRejectsForeignCheckpoint(t *testing.T) {
	evalA, sA := modelEvalSpace(t, 2)
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	if _, _, err := SweepCtx(context.Background(), evalA, sA, nil, SweepOptions{
		Engine: uncached(2, robust.RetryPolicy{}), CheckpointPath: path,
	}); err != nil {
		t.Fatalf("seed sweep: %v", err)
	}
	other, err := NewSpace(Param{Name: "x", Values: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = SweepCtx(context.Background(), WithContext(EvaluatorFunc(func(p []float64) float64 { return p[0] })),
		other, nil, SweepOptions{CheckpointPath: path, Resume: true})
	if err == nil {
		t.Fatal("checkpoint from a different space accepted")
	}
}

func TestCheckpointRoundTripsNonFiniteValues(t *testing.T) {
	s, err := NewSpace(Param{Name: "x", Values: []float64{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.json")
	vals := []float64{math.Inf(1), math.NaN(), 0.1 + 0.2}
	if err := SaveCheckpoint(path, s, vals, []int{0, 1, 2}); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	for i, want := range vals {
		if math.Float64bits(ck.Values[i]) != math.Float64bits(want) {
			t.Fatalf("value %d: %v != %v", i, ck.Values[i], want)
		}
	}
}

// slabRecorder is a Streamer that keeps the points a sweep hands it and
// completes every one.
type slabRecorder struct{ points [][]float64 }

func (r *slabRecorder) EvaluateStream(ctx context.Context, _ CtxEvaluator, points [][]float64, yield func(int, engine.Outcome)) error {
	r.points = points
	for i := range points {
		yield(i, engine.Outcome{Value: float64(i)})
	}
	return ctx.Err()
}

// TestSweepCtxSlabMatchesSpacePoint checks every point of the sweep's
// slab against Space.Point of its index, for index lists the odometer
// steps through (whole space, runs broken by gaps) and ones it decodes
// afresh (shuffled, repeated, descending), and the completed list of
// each: sorted, a repeated index as often as asked, resumed ones in.
func TestSweepCtxSlabMatchesSpacePoint(t *testing.T) {
	s, err := NewSpace(
		Param{Name: "a", Values: []float64{1, 2, 3}},
		Param{Name: "b", Values: []float64{-0.5}},
		Param{Name: "c", Values: []float64{10, 20, 30, 40}},
		Param{Name: "d", Values: []float64{7, 8}},
	)
	if err != nil {
		t.Fatal(err)
	}
	size := s.Size()
	all := make([]int, size)
	descending := make([]int, size)
	for i := range all {
		all[i], descending[i] = i, size-1-i
	}
	shuffled := rand.New(rand.NewPCG(7, 29)).Perm(size)
	repeated := []int{0, 1, 1, 2, 2, 2, 23, 22, 23, 5, 6, 5, 6, 0}
	ck := filepath.Join(t.TempDir(), "gaps.ck")
	var gaps []int // every third index, and the first run of four
	for i := 0; i < size; i++ {
		if i%3 == 0 || i < 4 {
			gaps = append(gaps, i)
		}
	}
	if err := SaveCheckpoint(ck, s, make([]float64, size), gaps); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		indices []int
		opts    SweepOptions
		resumed []int
	}{
		{name: "whole space", indices: nil},
		{name: "shuffled", indices: shuffled},
		{name: "repeated", indices: repeated},
		{name: "descending", indices: descending},
		{name: "resumed with gaps", indices: nil, opts: SweepOptions{CheckpointPath: ck, Resume: true}, resumed: gaps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			asked := tc.indices
			if asked == nil {
				asked = all
			}
			isResumed := make(map[int]bool)
			for _, idx := range tc.resumed {
				isResumed[idx] = true
			}
			var pending []int
			for _, idx := range asked {
				if !isResumed[idx] {
					pending = append(pending, idx)
				}
			}
			rec := &slabRecorder{}
			opts := tc.opts
			opts.Engine = rec
			_, rep, err := SweepCtx(context.Background(), nil, s, tc.indices, opts)
			if err != nil {
				t.Fatalf("SweepCtx: %v", err)
			}
			if len(rec.points) != len(pending) {
				t.Fatalf("slab holds %d points, want %d", len(rec.points), len(pending))
			}
			for i, idx := range pending {
				want := s.Point(idx)
				for d, v := range want {
					if math.Float64bits(rec.points[i][d]) != math.Float64bits(v) || len(rec.points[i]) != len(want) {
						t.Fatalf("point %d (index %d) = %v, want %v", i, idx, rec.points[i], want)
					}
				}
			}
			wantCompleted := append([]int(nil), asked...)
			slices.Sort(wantCompleted)
			if !slices.Equal(rep.Completed, wantCompleted) || rep.Resumed != len(asked)-len(pending) {
				t.Fatalf("completed %v (%d resumed), want %v (%d resumed)", rep.Completed, rep.Resumed, wantCompleted, len(asked)-len(pending))
			}
		})
	}
}
