package speedup

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSunNiReducesToAmdahl(t *testing.T) {
	g := FixedSize()
	for _, fseq := range []float64{0, 0.05, 0.3, 0.9, 1} {
		for _, n := range []float64{1, 2, 16, 1000} {
			want := Amdahl(fseq, n)
			got := SunNi(fseq, g, n)
			if !almostEq(got, want, 1e-12) {
				t.Fatalf("SunNi(f=%v,g=1,N=%v) = %v, want Amdahl %v", fseq, n, got, want)
			}
		}
	}
}

func TestSunNiReducesToGustafson(t *testing.T) {
	g := Linear()
	for _, fseq := range []float64{0, 0.05, 0.3, 0.9, 1} {
		for _, n := range []float64{1, 2, 16, 1000} {
			want := Gustafson(fseq, n)
			got := SunNi(fseq, g, n)
			if !almostEq(got, want, 1e-12) {
				t.Fatalf("SunNi(f=%v,g=N,N=%v) = %v, want Gustafson %v", fseq, n, got, want)
			}
		}
	}
}

func TestSunNiPaperExample(t *testing.T) {
	// §II-B: g(N) = N^{3/2} gives S = (f + (1−f)N^{3/2})/(f + (1−f)N^{1/2})
	// which is O(N): S/N → 1 as N grows, for any 0 < f < 1.
	g := PowerLaw(1.5)
	fseq := 0.2
	for _, n := range []float64{4, 100, 10000} {
		want := (fseq + (1-fseq)*math.Pow(n, 1.5)) / (fseq + (1-fseq)*math.Sqrt(n))
		got := SunNi(fseq, g, n)
		if !almostEq(got, want, 1e-12) {
			t.Fatalf("SunNi = %v, want %v", got, want)
		}
	}
	// Asymptotically linear.
	ratio := SunNi(fseq, g, 1e8) / 1e8
	if math.Abs(ratio-1) > 1e-3 {
		t.Fatalf("S(N)/N = %v at N=1e8, want →1", ratio)
	}
}

func TestSpeedupBounds(t *testing.T) {
	// For any g ≥ 1: 1 ≤ S(N) ≤ N.
	f := func(fseqRaw, bRaw, nRaw uint16) bool {
		fseq := float64(fseqRaw) / 65535
		b := 2 * float64(bRaw) / 65535 // g exponent in [0,2]
		n := 1 + float64(nRaw%4096)
		s := SunNi(fseq, PowerLaw(b), n)
		return s >= 1-1e-9 && s <= n+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestScaleFuncsAtOne(t *testing.T) {
	for name, g := range map[string]ScaleFunc{
		"fixed":  FixedSize(),
		"linear": Linear(),
		"pow0.5": PowerLaw(0.5),
		"pow1.5": PowerLaw(1.5),
	} {
		if got := g(1); !almostEq(got, 1, 1e-12) {
			t.Errorf("%s: g(1) = %v, want 1", name, got)
		}
	}
}

func TestFromComplexityDenseMM(t *testing.T) {
	// §II-B worked example: W = 2n³, M = 3n² ⇒ g(N) = N^{3/2}.
	comp, mem := DenseMM()
	g, err := FromComplexity(comp, mem, 64)
	if err != nil {
		t.Fatalf("FromComplexity: %v", err)
	}
	for _, n := range []float64{1, 2, 4, 9, 100, 1024} {
		want := math.Pow(n, 1.5)
		got := g(n)
		if !almostEq(got, want, 1e-6) {
			t.Fatalf("g(%v) = %v, want %v", n, got, want)
		}
	}
}

func TestFromComplexityLinear(t *testing.T) {
	// Stencil-like: W = 5n, M = 2n ⇒ g(N) = N.
	g, err := FromComplexity(
		func(n float64) float64 { return 5 * n },
		func(n float64) float64 { return 2 * n }, 1000)
	if err != nil {
		t.Fatalf("FromComplexity: %v", err)
	}
	for _, n := range []float64{1, 3, 10, 333} {
		if got := g(n); !almostEq(got, n, 1e-6) {
			t.Fatalf("g(%v) = %v, want %v", n, got, n)
		}
	}
}

func TestFromComplexityFFT(t *testing.T) {
	// W = n·log2 n, M = n. At N = n0 the derived g equals 2N — the value
	// printed in Table I.
	n0 := 4096.0
	g, err := FromComplexity(
		func(n float64) float64 { return n * math.Log2(n) },
		func(n float64) float64 { return n }, n0)
	if err != nil {
		t.Fatalf("FromComplexity: %v", err)
	}
	if got, want := g(n0), 2*n0; !almostEq(got, want, 1e-6) {
		t.Fatalf("g(n0) = %v, want 2·n0 = %v", got, want)
	}
	if got := g(1); !almostEq(got, 1, 1e-9) {
		t.Fatalf("g(1) = %v, want 1", got)
	}
}

func TestFromComplexityErrors(t *testing.T) {
	lin := func(n float64) float64 { return n }
	if _, err := FromComplexity(lin, lin, -1); err == nil {
		t.Error("negative n0 accepted")
	}
	if _, err := FromComplexity(lin, func(n float64) float64 { return -n }, 10); err == nil {
		t.Error("negative memory complexity accepted")
	}
	if _, err := FromComplexity(lin, func(n float64) float64 { return 5 }, 10); err == nil {
		t.Error("constant (non-increasing) memory complexity accepted")
	}
}

func TestGrowthOrder(t *testing.T) {
	cases := []struct {
		g    ScaleFunc
		want float64
	}{
		{FixedSize(), 0},
		{Linear(), 1},
		{PowerLaw(0.5), 0.5},
		{PowerLaw(1.5), 1.5},
		{PowerLaw(2), 2},
	}
	for _, c := range cases {
		got := GrowthOrder(c.g, 64)
		if !almostEq(got, c.want, 1e-6) {
			t.Errorf("GrowthOrder = %v, want %v", got, c.want)
		}
	}
}

func TestTable1(t *testing.T) {
	rows := Table1(1 << 12)
	if len(rows) != 4 {
		t.Fatalf("Table I has %d rows, want 4", len(rows))
	}
	// TMM row: g(4) = 8.
	if got := rows[0].Scale(4); !almostEq(got, 8, 1e-9) {
		t.Errorf("TMM g(4) = %v, want 8", got)
	}
	// Band sparse and stencil: g(N) = N.
	for _, i := range []int{1, 2} {
		if got := rows[i].Scale(7); !almostEq(got, 7, 1e-9) {
			t.Errorf("%s g(7) = %v, want 7", rows[i].Application, got)
		}
	}
	// FFT: g(n0) = 2·n0 per the printed 2N convention.
	if got := rows[3].Scale(1 << 12); !almostEq(got, 2*float64(1<<12), 1e-9) {
		t.Errorf("FFT g(n0) = %v, want %v", got, 2*float64(1<<12))
	}
	// Every row's scale obeys g(1) = 1 and is nondecreasing.
	for _, r := range rows {
		if !almostEq(r.Scale(1), 1, 1e-9) {
			t.Errorf("%s: g(1) = %v", r.Application, r.Scale(1))
		}
		if r.Scale(16) < r.Scale(8) {
			t.Errorf("%s: g not monotone", r.Application)
		}
	}
	// Default base dimension kicks in for invalid input.
	rowsDefault := Table1(0)
	if got := rowsDefault[3].Scale(1 << 20); !almostEq(got, 2*float64(1<<20), 1e-9) {
		t.Errorf("FFT default base: g(2^20) = %v, want %v", got, 2*float64(1<<20))
	}
}

func TestAmdahlGustafsonSanity(t *testing.T) {
	if got := Amdahl(0.5, 1e12); !almostEq(got, 2, 1e-6) {
		t.Errorf("Amdahl limit = %v, want 2", got)
	}
	if got := Gustafson(0.5, 100); !almostEq(got, 50.5, 1e-12) {
		t.Errorf("Gustafson = %v, want 50.5", got)
	}
	if got := Amdahl(0, 64); !almostEq(got, 64, 1e-12) {
		t.Errorf("Amdahl(f=0) = %v, want N", got)
	}
}
