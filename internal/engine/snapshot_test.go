package engine

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// snapEval is a deterministic fingerprinted evaluator for snapshot tests.
type snapEval struct{ fp string }

func (s snapEval) Fingerprint() string { return s.fp }

func (s snapEval) EvaluateCtx(_ context.Context, p []float64) (float64, error) {
	v := 1.0
	for _, x := range p {
		v = v*3.7 + x
	}
	return v, nil
}

// fillEngine evaluates n distinct points so the cache holds them.
func fillEngine(t testing.TB, e *Engine, ev snapEval, n int) [][]float64 {
	t.Helper()
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i), float64(i) * 0.5, 42}
	}
	err := e.EvaluateStream(context.Background(), ev, points, nil)
	if err != nil {
		t.Fatalf("EvaluateStream: %v", err)
	}
	return points
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 4, CacheSize: 1024})
	ev := snapEval{fp: "snap/a"}
	fillEngine(t, e, ev, 100)
	// A second fingerprint interleaved so the fp table has two entries.
	ev2 := snapEval{fp: "snap/b"}
	if _, err := e.Evaluate(context.Background(), ev2, []float64{math.Inf(1), math.Copysign(0, -1)}); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	p1 := filepath.Join(dir, "a.snap")
	n, err := e.SaveSnapshot(p1)
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if n != 101 {
		t.Fatalf("saved %d entries, want 101", n)
	}

	e2 := New(Options{Workers: 4, CacheSize: 1024})
	m, err := e2.LoadSnapshot(p1)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if m != n {
		t.Fatalf("restored %d entries, want %d", m, n)
	}
	p2 := filepath.Join(dir, "b.snap")
	if _, err := e2.SaveSnapshot(p2); err != nil {
		t.Fatalf("re-SaveSnapshot: %v", err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("save → load → save is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
}

// TestSnapshotLoadKeysEntriesUnderKeyHash loads a snapshot whose entries
// interleave three fingerprints and checks every restored entry: it sits
// in the table under KeyHash(KeySeed(fp), point) of its own fingerprint,
// the key every lookup computes.
func TestSnapshotLoadKeysEntriesUnderKeyHash(t *testing.T) {
	e := New(Options{Workers: 1, CacheSize: 1024})
	evs := []snapEval{{fp: "snap/x"}, {fp: "snap/y"}, {fp: "snap/z"}}
	const n = 60
	for i := 0; i < n; i++ {
		p := []float64{float64(i / 3), math.Copysign(0, -1), math.NaN()}
		if _, err := e.Evaluate(context.Background(), evs[i%3], p); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "keys.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	e2 := New(Options{Workers: 1, CacheSize: 1024})
	if m, err := e2.LoadSnapshot(path); err != nil || m != n {
		t.Fatalf("LoadSnapshot = %d, %v; want %d entries", m, err, n)
	}

	e2.mu.Lock()
	defer e2.mu.Unlock()
	fpByID := make(map[uint32]string, len(e2.fps))
	for fp, id := range e2.fps {
		fpByID[id] = fp
	}
	seen := 0
	e2.cache.walk(func(s int32, le *slot, point []float64) {
		fp, ok := fpByID[le.fpID]
		if !ok {
			t.Fatalf("entry %v carries fingerprint ID %d, which is not interned", point, le.fpID)
		}
		key := KeyHash(KeySeed(fp), point)
		if le.hash != key || e2.cache.index.get(key) != s {
			t.Fatalf("entry %v of %q sits under %016x, want KeyHash %016x", point, fp, le.hash, key)
		}
		seen++
	})
	if seen != n || len(fpByID) != len(evs) {
		t.Fatalf("walked %d entries under %d fingerprints, want %d under %d", seen, len(fpByID), n, len(evs))
	}
}

func TestSnapshotRestoreGives100PercentWarmHits(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 4, CacheSize: 1024})
	ev := snapEval{fp: "snap/warm"}
	points := fillEngine(t, e, ev, 64)
	path := filepath.Join(dir, "warm.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	e2 := New(Options{Workers: 4, CacheSize: 1024})
	if _, err := e2.LoadSnapshot(path); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	hits := 0
	err := e2.EvaluateStream(context.Background(), ev, points, func(_ int, o Outcome) {
		if o.CacheHit {
			hits++
		}
	})
	if err != nil {
		t.Fatalf("EvaluateStream: %v", err)
	}
	if hits != len(points) {
		t.Fatalf("warm hits = %d of %d, want all", hits, len(points))
	}
	if got := e2.Stats().Evaluations; got != 0 {
		t.Fatalf("restored engine performed %d raw evaluations, want 0", got)
	}
}

func TestSnapshotTruncatedAndCorruptAreCleanErrors(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 2, CacheSize: 256})
	fillEngine(t, e, snapEval{fp: "snap/tc"}, 32)
	path := filepath.Join(dir, "tc.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)/2],
		"one-short": blob[:len(blob)-1],
		"corrupt": func() []byte {
			b := append([]byte(nil), blob...)
			b[len(b)/2] ^= 0x40
			return b
		}(),
		"bad-magic": func() []byte {
			b := append([]byte(nil), blob...)
			b[0] = 'X'
			return b
		}(),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := New(Options{Workers: 2, CacheSize: 256})
		n, err := e2.LoadSnapshot(p)
		if err == nil {
			t.Errorf("%s: LoadSnapshot succeeded, want error", name)
		}
		if n != 0 || e2.CacheLen() != 0 {
			t.Errorf("%s: partial restore (n=%d, cache=%d), want none", name, n, e2.CacheLen())
		}
	}
}

// sealSnapshot appends the FNV-1a trailer to a snapshot payload, so a
// forged or mutated payload passes the checksum and reaches the parser.
func sealSnapshot(payload []byte) []byte {
	return binary.LittleEndian.AppendUint64(append([]byte(nil), payload...), fnvSum(payload))
}

// TestSnapshotForgedCountsAllocateNothing loads tiny files whose header
// counts claim 2^24 fingerprints or entries under a valid trailer: the
// load must fail before sizing anything by those counts.
func TestSnapshotForgedCountsAllocateNothing(t *testing.T) {
	header := func(counts ...uint32) []byte {
		b := append([]byte(nil), snapshotMagic[:]...)
		for _, c := range counts {
			b = binary.LittleEndian.AppendUint32(b, c)
		}
		return sealSnapshot(b)
	}
	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"fingerprints": header(1 << 24),
		"entries":      header(0, 1<<24),
	} {
		p := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 1, CacheSize: 16})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n, err := e.LoadSnapshot(p)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: LoadSnapshot of a %d-byte file claiming 2^24 %s succeeded, want error", name, len(data), name)
		}
		if n != 0 || e.CacheLen() != 0 {
			t.Errorf("%s: partial restore (n=%d, cache=%d), want none", name, n, e.CacheLen())
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: loading a %d-byte file allocated %d bytes, want under 1 MiB", name, len(data), d)
		}
	}
}

func TestSnapshotPreservesRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	// Capacity 4: after restoring 8 entries the 4 most recent survive.
	e := New(Options{Workers: 1, CacheSize: 8})
	ev := snapEval{fp: "snap/lru"}
	points := fillEngine(t, e, ev, 8)
	path := filepath.Join(dir, "lru.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Touch the first four points so they become the MRU half.
	for _, p := range points[:4] {
		if _, err := e.Evaluate(context.Background(), ev, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	small := New(Options{Workers: 1, CacheSize: 4})
	if _, err := small.LoadSnapshot(path); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if small.CacheLen() != 4 {
		t.Fatalf("cache holds %d entries, want 4", small.CacheLen())
	}
	hits := 0
	err := small.EvaluateStream(context.Background(), ev, points[:4], func(_ int, o Outcome) {
		if o.CacheHit {
			hits++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 4 {
		t.Fatalf("MRU half warm hits = %d, want 4 (recency order lost)", hits)
	}
}

func TestSnapshotDisabledCache(t *testing.T) {
	e := New(Options{CacheSize: -1})
	if _, err := e.SaveSnapshot(filepath.Join(t.TempDir(), "x.snap")); err == nil {
		t.Fatal("SaveSnapshot with caching disabled succeeded, want error")
	}
}
