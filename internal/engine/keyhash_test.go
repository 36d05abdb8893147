package engine_test

import (
	"context"
	"testing"

	"repro/internal/chip"
	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/engine"
	"repro/internal/model"
)

// TestKeyHashMatchesCachePlacement checks that the cluster ring's key
// for every point of the tmm per=6 space (cluster-sweep's 46,656 points
// under tmm's 658-byte fingerprint) is the key the engine memoizes that
// point under, and pins those keys bit for bit, so neither ring placement
// nor memo identity can drift.
func TestKeyHashMatchesCachePlacement(t *testing.T) {
	m, err := model.New(model.FamilyC2Bound, model.Config{Chip: chip.DefaultConfig(), App: core.TMMApp()})
	if err != nil {
		t.Fatalf("model.New: %v", err)
	}
	space, err := dse.SpaceFor(m, 6)
	if err != nil {
		t.Fatalf("SpaceFor: %v", err)
	}
	ev := dse.NewFamilyEvaluator(m)
	points := make([][]float64, space.Size())
	for i := range points {
		points[i] = space.Point(i)
	}
	eng := engine.New(engine.Options{})
	if err := eng.EvaluateStream(context.Background(), ev, points, nil); err != nil {
		t.Fatalf("EvaluateStream: %v", err)
	}
	fp := ev.Fingerprint()
	seed := engine.KeySeed(fp)
	digest := uint64(14695981039346656037) // FNV-1a over the keys
	for i, p := range points {
		key := engine.KeyHash(seed, p)
		if !engine.CachedUnder(eng, key, fp, p) {
			t.Fatalf("point %d: not memoized under its ring key %016x", i, key)
		}
		digest = (digest ^ key) * 1099511628211
	}
	if want := uint64(0x337d11ca62e83ec0); digest != want {
		t.Fatalf("key digest over %d points = %#016x, want %#016x", len(points), digest, want)
	}
}
