package model

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// batchFamily is a registered family whose kernel implements
// BatchKernel.
type batchFamily struct {
	name string
	m    Model
	k    BatchKernel
}

// batchFamilies compiles every registered family that the test
// configuration can build and keeps those whose kernel implements
// BatchKernel. The c2bound kernel must be among them.
func batchFamilies(t testing.TB) []batchFamily {
	var fams []batchFamily
	for _, name := range Names() {
		m, err := New(name, testConfig())
		if err != nil {
			continue // a test-registered family that rejects the config
		}
		k, err := m.Compile()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bk, ok := k.(BatchKernel); ok {
			fams = append(fams, batchFamily{name: name, m: m, k: bk})
		}
	}
	if !slices.ContainsFunc(fams, func(f batchFamily) bool { return f.name == FamilyC2Bound }) {
		t.Fatal("the c2bound kernel does not implement BatchKernel")
	}
	return fams
}

// unwritten fills out before a batch call, so a slot the kernel skips
// cannot pass for a value TimeAt returns.
var unwritten = math.Float64frombits(0x7ff8_dead_beef_0001)

// batchValues scores points with k.TimeAtBatch, one call per slice:
// slice sizes cycle through sizes, and no sizes means one whole call.
func batchValues(k BatchKernel, points [][]float64, sizes ...int) []float64 {
	out := make([]float64, len(points))
	for i := range out {
		out[i] = unwritten
	}
	for lo, j := 0, 0; lo < len(points); j++ {
		hi := len(points)
		if len(sizes) > 0 {
			hi = min(lo+sizes[j%len(sizes)], len(points))
		}
		k.TimeAtBatch(points[lo:hi], out[lo:hi])
		lo = hi
	}
	return out
}

// mismatch returns the first point whose batch value differs from
// TimeAt's in bits, or nil.
func mismatch(k BatchKernel, points [][]float64, out []float64) error {
	for i, p := range points {
		if want := k.TimeAt(p); math.Float64bits(out[i]) != math.Float64bits(want) {
			return fmt.Errorf("point %d %v: batch %v (%#x), TimeAt %v (%#x)",
				i, p, out[i], math.Float64bits(out[i]), want, math.Float64bits(want))
		}
	}
	return nil
}

// c2Sequences are hand-built c2bound point runs, each aimed at one way
// a design memo can go wrong. base is a feasible §IV grid point.
func c2Sequences(s Space) map[string][][]float64 {
	g := func(dim, i int) float64 { return s.Params[dim].Grid[i] }
	base := []float64{g(0, 4), g(1, 4), g(2, 4), 3, g(4, 3), g(5, 3)}
	with := func(p []float64, kv ...float64) []float64 {
		q := slices.Clone(p)
		for i := 0; i < len(kv); i += 2 {
			q[int(kv[i])] = kv[i+1]
		}
		return q
	}
	var oneDesign [][]float64
	for _, issue := range s.Params[4].Grid {
		for _, rob := range s.Params[5].Grid[:4] {
			oneDesign = append(oneDesign, with(base, 4, issue, 5, rob))
		}
	}
	negZero := math.Copysign(0, -1)
	return map[string][][]float64{
		"one design, issue and ROB vary": oneDesign,
		"neighbours differ only in N": {
			base, with(base, 3, 2), with(base, 3, 4), with(base, 3, 2), with(base, 3, 2, 4, 1),
		},
		"neighbours differ only in A2 sign": {
			with(base, 2, 0), with(base, 2, negZero), with(base, 2, 0, 5, 16), with(base, 2, negZero, 5, 16),
		},
		"N 0.6 and 1.4 round to one core": {
			with(base, 3, 0.6), with(base, 3, 1.4, 4, 1), with(base, 3, 0.6, 5, 256), with(base, 3, 1),
		},
		"NaN A0": {
			with(base, 0, math.NaN()), with(base, 0, math.NaN(), 5, 16), base, with(base, 0, math.NaN()),
		},
		"wrong length inside one design": {
			base, base[:5], with(base, 5, 128), append(slices.Clone(base), 1), with(base, 4, 8),
		},
		"infeasible then feasible": {
			with(base, 0, -1), base, with(base, 3, 1000), with(base, 3, 1000, 4, 2), with(base, 4, 2),
		},
	}
}

// TestBatchKernelMatchesTimeAt holds every BatchKernel to its contract:
// out[i] is TimeAt(points[i]) bit for bit, whatever the order of the
// points and however a caller slices them, with one kernel shared by
// concurrent callers.
func TestBatchKernelMatchesTimeAt(t *testing.T) {
	for _, f := range batchFamilies(t) {
		t.Run(f.name, func(t *testing.T) {
			grids, err := f.m.Space().Grids(6)
			if err != nil {
				t.Fatal(err)
			}
			sets := map[string][][]float64{
				"guard-crossing sample": guardCrossingGridSampled(f.m.Space(), 4000),
				"per=6 grid row-major":  cartesian(grids),
			}
			if f.name == FamilyC2Bound {
				for name, seq := range c2Sequences(f.m.Space()) {
					if !slices.ContainsFunc(seq, func(p []float64) bool { return !math.IsInf(f.k.TimeAt(p), 1) }) {
						t.Fatalf("%s: no feasible point", name)
					}
					sets[name] = seq
				}
			}
			for name, points := range sets {
				reversed := slices.Clone(points)
				slices.Reverse(reversed)
				for _, c := range []struct {
					pattern string
					points  [][]float64
					sizes   []int
				}{
					{"one call", points, nil},
					{"reversed", reversed, nil},
					{"uneven slices", points, []int{1, 2, 7, 36, 256}},
				} {
					if err := mismatch(f.k, c.points, batchValues(f.k, c.points, c.sizes...)); err != nil {
						t.Errorf("%s, %s: %v", name, c.pattern, err)
					}
				}
			}

			// One kernel serves every engine worker: four goroutines
			// share it, each with its own slicing.
			grid := sets["per=6 grid row-major"]
			outs := make([][]float64, 4)
			var wg sync.WaitGroup
			for w := range outs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[w] = batchValues(f.k, grid, 1+w*37, 256)
				}()
			}
			wg.Wait()
			for w, out := range outs {
				if err := mismatch(f.k, grid, out); err != nil {
					t.Errorf("goroutine %d: %v", w, err)
				}
			}
		})
	}
}

// fuzzAlphabet is one dimension's coordinate choices: three grid values
// and the values that cross guards or defeat a value-equality memo.
func fuzzAlphabet(p Param) []float64 {
	g := p.Grid
	return []float64{g[0], g[len(g)/2], g[len(g)-1], 0, math.Copysign(0, -1), -1, 2 * p.Hi, math.NaN(), math.Inf(1)}
}

// fuzzPoints decodes data into a point sequence over the per-dimension
// alphabets. Each point starts with a control byte c: c%4 == 0 copies
// the previous point and sets one coordinate (the next two bytes pick
// the dimension and its value), so runs of one design and neighbours
// that differ in one coordinate are common; c%4 == 1 emits a point of
// the wrong length; otherwise each coordinate takes the next byte's
// pick. At most 1024 points are decoded.
func fuzzPoints(alpha [][]float64, data []byte) [][]float64 {
	dims := len(alpha)
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	prev := make([]float64, dims)
	for d := range prev {
		prev[d] = alpha[d][0]
	}
	var points [][]float64
	for len(data) > 0 && len(points) < 1024 {
		c := next()
		switch c % 4 {
		case 0:
			p := slices.Clone(prev)
			d := next() % dims
			p[d] = alpha[d][next()%len(alpha[d])]
			points, prev = append(points, p), p
		case 1:
			n := (c >> 2) % (dims + 2)
			if n == dims {
				n++
			}
			points = append(points, make([]float64, n))
		default:
			p := make([]float64, dims)
			for d := range p {
				p[d] = alpha[d][next()%len(alpha[d])]
			}
			points, prev = append(points, p), p
		}
	}
	return points
}

// FuzzBatchKernelMatchesTimeAt drives every BatchKernel with byte-built
// point sequences rich in runs, repeats and guard crossings: the first
// byte picks the family and the rest decode through fuzzPoints. One
// batch call must equal per-point TimeAt in bits.
func FuzzBatchKernelMatchesTimeAt(f *testing.F) {
	fams := batchFamilies(f)
	alphas := make([][][]float64, len(fams))
	for i, fam := range fams {
		for _, p := range fam.m.Space().Params {
			alphas[i] = append(alphas[i], fuzzAlphabet(p))
		}
	}
	f.Add([]byte{0, 2, 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 4, 2, 0, 5, 1})
	f.Add([]byte{0, 2, 1, 1, 1, 1, 1, 1, 0, 3, 0, 0, 3, 2, 0, 3, 0})
	f.Add([]byte{0, 2, 2, 2, 2, 2, 2, 2, 0, 2, 3, 0, 2, 4, 0, 2, 3})
	f.Add([]byte{0, 3, 7, 0, 0, 1, 1, 1, 0, 4, 1, 21, 0, 5, 2})
	f.Add([]byte{0, 2, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := int(data[0]) % len(fams)
		points := fuzzPoints(alphas[i], data[1:])
		if err := mismatch(fams[i].k, points, batchValues(fams[i].k, points)); err != nil {
			t.Fatalf("%s: %v", fams[i].name, err)
		}
	})
}
