package detector

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/camat"
	"repro/internal/sim/cache"
)

func feed(d *Detector, trace []camat.Access) {
	for _, a := range trace {
		d.Record(a.Start, a.HitCycles, int64(a.MissPenalty))
	}
}

func analysesEqual(a, b camat.Analysis) bool {
	return a.Accesses == b.Accesses &&
		a.Misses == b.Misses &&
		a.PureMisses == b.PureMisses &&
		a.HitActiveCycles == b.HitActiveCycles &&
		a.MissActiveCycles == b.MissActiveCycles &&
		a.PureMissCycles == b.PureMissCycles &&
		a.ActiveCycles == b.ActiveCycles &&
		a.HitActivity == b.HitActivity &&
		a.PureMissActivity == b.PureMissActivity &&
		a.PerAccessMissCycles == b.PerAccessMissCycles &&
		a.PerAccessPureMissCycles == b.PerAccessPureMissCycles &&
		math.Abs(a.HitTime-b.HitTime) < 1e-12
}

func TestFig1MatchesBatchAnalyzer(t *testing.T) {
	tr := camat.Fig1Trace()
	want, err := camat.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	d := New()
	feed(d, tr)
	got := d.Finalize()
	if !analysesEqual(got, want) {
		t.Fatalf("detector %+v\n!= batch %+v", got, want)
	}
	p := d.Params()
	if math.Abs(p.CAMAT()-1.6) > 1e-12 {
		t.Fatalf("detector C-AMAT = %v, want 1.6", p.CAMAT())
	}
	if d.LateRecords() != 0 {
		t.Fatalf("late records: %d", d.LateRecords())
	}
}

// randomTrace builds a well-formed trace with bounded out-of-order starts.
func randomTrace(seed []byte, jitter int64) []camat.Access {
	if len(seed) == 0 {
		return nil
	}
	var tr []camat.Access
	var clock int64
	for i := 0; i+2 < len(seed); i += 3 {
		clock += int64(seed[i] % 5)
		start := clock
		if jitter > 0 && i/3%3 == 1 {
			start -= int64(seed[i]%uint8(jitter)) % jitter // bounded backwards jitter
			if start < 0 {
				start = 0
			}
		}
		tr = append(tr, camat.Access{
			Start:       start,
			HitCycles:   1 + int(seed[i+1]%4),
			MissPenalty: int(seed[i+2] % 15),
		})
	}
	return tr
}

func TestMatchesBatchOnRandomOrderedTraces(t *testing.T) {
	f := func(seed []byte) bool {
		tr := randomTrace(seed, 0)
		if len(tr) == 0 {
			return true
		}
		want, err := camat.Analyze(tr)
		if err != nil {
			return false
		}
		d := New()
		feed(d, tr)
		got := d.Finalize()
		if !analysesEqual(got, want) {
			t.Logf("mismatch:\n got %+v\nwant %+v", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesBatchWithBoundedJitter(t *testing.T) {
	// Starts may regress a little (bank/port arbitration); the detector
	// must still agree with the batch analyzer when the jitter is within
	// the lateness bound.
	f := func(seed []byte) bool {
		tr := randomTrace(seed, 4)
		if len(tr) == 0 {
			return true
		}
		want, err := camat.Analyze(tr)
		if err != nil {
			return false
		}
		d := New(WithLateness(1024))
		feed(d, tr)
		got := d.Finalize()
		return analysesEqual(got, want) && d.LateRecords() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLateRecordClamped(t *testing.T) {
	d := New(WithLateness(2))
	d.Record(1000, 3, 0)
	d.Record(2000, 3, 0) // sweeps past 1000
	d.Record(10, 3, 5)   // far too late
	got := d.Finalize()
	if d.LateRecords() != 1 {
		t.Fatalf("late records = %d, want 1", d.LateRecords())
	}
	if got.Accesses != 3 {
		t.Fatalf("accesses = %d", got.Accesses)
	}
}

func TestMalformedRecordRejected(t *testing.T) {
	d := New()
	if err := d.Record(0, 0, 0); err == nil {
		t.Fatal("zero hit cycles accepted")
	}
	if err := d.Record(0, 3, -1); err == nil {
		t.Fatal("negative miss penalty accepted")
	}
	// Rejected records must leave the detector untouched.
	if an := d.Finalize(); an.Accesses != 0 {
		t.Fatalf("rejected records counted: %d accesses", an.Accesses)
	}
}

func TestObserveConvertsCacheResult(t *testing.T) {
	d := New()
	// A hit: start 10, done 13, hit latency 3 → no penalty.
	if err := d.Observe(cache.Result{Start: 10, Done: 13, Hit: true}, 3); err != nil {
		t.Fatalf("Observe hit: %v", err)
	}
	// A miss: start 20, done 120 → penalty 97.
	if err := d.Observe(cache.Result{Start: 20, Done: 120, Hit: false}, 3); err != nil {
		t.Fatalf("Observe miss: %v", err)
	}
	an := d.Finalize()
	if an.Accesses != 2 || an.Misses != 1 {
		t.Fatalf("analysis = %+v", an)
	}
	if an.PerAccessMissCycles != 97 {
		t.Fatalf("penalty = %d, want 97", an.PerAccessMissCycles)
	}
}

func TestObserveClampsNegativePenalty(t *testing.T) {
	d := New()
	// Done before start+hitLatency (merged miss returning early).
	if err := d.Observe(cache.Result{Start: 10, Done: 11}, 3); err != nil {
		t.Fatalf("Observe: %v", err)
	}
	an := d.Finalize()
	if an.Misses != 0 {
		t.Fatalf("negative penalty counted as miss: %+v", an)
	}
}

func TestObserveReturnsErrorNotPanic(t *testing.T) {
	// A zero hit latency makes the record malformed (hitCycles must be
	// positive); Observe must surface that as a returned, wrapped error —
	// never a panic — and leave the detector untouched.
	d := New()
	err := d.Observe(cache.Result{Start: 10, Done: 20}, 0)
	if err == nil {
		t.Fatal("malformed timing accepted")
	}
	if an := d.Finalize(); an.Accesses != 0 {
		t.Fatalf("rejected observation counted: %+v", an)
	}
}

func TestIncrementalSweepBoundsMemory(t *testing.T) {
	// Records arrive every 4 cycles, each spanning at most 3+6 cycles, so
	// a 100-cycle lateness window holds about 28 records: at most 4 events
	// and one miss window each.
	d := New(WithLateness(100))
	maxPending, maxWins := 0, 0
	for i := 0; i < 100000; i++ {
		d.Record(int64(i*4), 3, int64(i%7))
		maxPending = max(maxPending, len(d.pending))
		maxWins = max(maxWins, len(d.wins))
	}
	t.Logf("peak: %d pending events, %d miss-window slots", maxPending, maxWins)
	if maxPending > 4*30 {
		t.Fatalf("detector retained %d pending events; sweep not incremental", maxPending)
	}
	if maxWins > 30 {
		t.Fatalf("detector holds %d miss-window slots; retired windows not reused", maxWins)
	}
	an := d.Finalize()
	if an.Accesses != 100000 {
		t.Fatalf("accesses = %d", an.Accesses)
	}
	if len(d.pending) != 0 || len(d.free) != len(d.wins) {
		t.Fatalf("after Finalize: %d pending events, %d of %d miss windows free", len(d.pending), len(d.free), len(d.wins))
	}
}

func TestFinalizeSortsWideSpans(t *testing.T) {
	// Finalize radix-sorts what is pending, 8 bits a pass over each
	// event's offset from the earliest; starts here run from negative
	// cycles to beyond 2^40, with ties, so every pass count is exercised,
	// and gaps beyond the lateness window retire events before Finalize
	// too.
	var tr []camat.Access
	start := int64(-1 << 20)
	x := uint64(7)
	for i := 0; i < 3000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if i%5 != 0 { // every fifth access shares its predecessor's start
			start += int64(x % (1 << (x >> 58 % 42)))
		}
		tr = append(tr, camat.Access{Start: start, HitCycles: 1 + int(x%3), MissPenalty: int(x >> 8 % 300)})
	}
	want, err := camat.Analyze(tr)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	d := New()
	feed(d, tr)
	if got := d.Finalize(); !analysesEqual(got, want) {
		t.Fatalf("detector %+v\n!= batch %+v", got, want)
	}
	if d.LateRecords() != 0 {
		t.Fatalf("late records: %d", d.LateRecords())
	}
}

func TestDecompositionIdentityHolds(t *testing.T) {
	f := func(seed []byte) bool {
		tr := randomTrace(seed, 0)
		if len(tr) == 0 {
			return true
		}
		d := New()
		feed(d, tr)
		an := d.Finalize()
		p := an.Params()
		direct := an.CAMATDirect()
		return math.Abs(p.CAMAT()-direct) <= 1e-9*(1+direct)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
