// Package core implements the C²-Bound analytical model itself: the
// execution-time objective of Eq. 10, its physical constraints (Eq. 11 and
// Eq. 12 via package chip), the two-regime optimization of §III-C (a
// core-count scan over a Nelder-Mead area split held on the Eq. 12
// constraint surface), and the multi-application core-allocation case
// study of Fig. 7.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/chip"
	"repro/internal/speedup"
)

// ErrInvalidApp is the sentinel wrapped by App.Validate failures.
var ErrInvalidApp = errors.New("core: invalid application profile")

// App is the program-specific parameter set of the C²-Bound model,
// obtained from traces, compiler analysis or the C-AMAT detector (§III-D).
type App struct {
	Name string

	// Fseq is the sequential fraction of the workload (Sun-Ni's law).
	Fseq float64
	// Fmem is the memory access frequency: data accesses per instruction.
	Fmem float64
	// Overlap is overlapRatio_{c-m} of Eq. 7: the fraction of data-stall
	// time hidden under computation.
	Overlap float64

	// CH and CM are the hit and pure-miss concurrencies the application
	// exposes on the target microarchitecture; PMRRatio = pMR/MR and
	// PAMPRatio = pAMP/AMP relate the pure-miss quantities to their
	// conventional counterparts. Setting CH = CM = C with ratios 1 yields
	// C-AMAT = AMAT/C, the form used in the paper's case studies.
	CH, CM              float64
	PMRRatio, PAMPRatio float64

	// L1Miss and L2Miss give the application's miss rates as functions of
	// cache capacity.
	L1Miss, L2Miss chip.MissRateCurve

	// G is the problem-size scale function g(N); GOrder optionally fixes
	// its growth order for regime classification (derived numerically from
	// G when zero).
	G      speedup.ScaleFunc
	GOrder float64

	// IC0 is the base dynamic instruction count at N = 1 (a pure scale
	// factor for reported times).
	IC0 float64
}

// Validate checks the profile for physically meaningful values: every
// field must be finite (no NaN/Inf), fractions within [0,1],
// concurrencies ≥ 1, and g(1) = 1. A profile that passes Validate cannot
// silently propagate NaN through the Eq. 7-10 objective. Failures wrap
// ErrInvalidApp.
func (a App) Validate() error {
	switch {
	case a.Fseq < 0 || a.Fseq > 1 || math.IsNaN(a.Fseq):
		return fmt.Errorf("%w: fseq=%v outside [0,1]", ErrInvalidApp, a.Fseq)
	case a.Fmem < 0 || a.Fmem > 1 || math.IsNaN(a.Fmem):
		return fmt.Errorf("%w: fmem=%v outside [0,1]", ErrInvalidApp, a.Fmem)
	case a.Overlap < 0 || a.Overlap > 1 || math.IsNaN(a.Overlap):
		return fmt.Errorf("%w: overlap=%v outside [0,1]", ErrInvalidApp, a.Overlap)
	case !(a.CH >= 1) || !(a.CM >= 1) || math.IsInf(a.CH, 0) || math.IsInf(a.CM, 0):
		return fmt.Errorf("%w: concurrencies C_H=%v, C_M=%v must be finite and ≥ 1", ErrInvalidApp, a.CH, a.CM)
	case a.PMRRatio < 0 || a.PMRRatio > 1 || math.IsNaN(a.PMRRatio):
		return fmt.Errorf("%w: pMR/MR ratio %v outside [0,1]", ErrInvalidApp, a.PMRRatio)
	case a.PAMPRatio < 0 || !finite(a.PAMPRatio):
		return fmt.Errorf("%w: pAMP/AMP ratio %v out of range", ErrInvalidApp, a.PAMPRatio)
	case a.G == nil:
		return fmt.Errorf("%w: scale function g(N) missing", ErrInvalidApp)
	case !(a.IC0 > 0) || math.IsInf(a.IC0, 0):
		return fmt.Errorf("%w: IC0=%v must be positive and finite", ErrInvalidApp, a.IC0)
	case math.IsNaN(a.GOrder) || math.IsInf(a.GOrder, 0):
		return fmt.Errorf("%w: growth order %v not finite", ErrInvalidApp, a.GOrder)
	}
	g1 := a.G(1)
	if math.IsNaN(g1) || math.Abs(g1-1) > 1e-6 {
		return fmt.Errorf("%w: g(1)=%v, want 1", ErrInvalidApp, g1)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// WithConcurrency returns a copy of the profile with the overall
// data-access concurrency pinned to c (C_H = C_M = c, ratios 1), matching
// the paper's C ∈ {1, 4, 8} case studies where C-AMAT = AMAT/C.
func (a App) WithConcurrency(c float64) App {
	b := a
	b.CH, b.CM = c, c
	b.PMRRatio, b.PAMPRatio = 1, 1
	return b
}

// growthOrder returns the app's g(N) growth order, deriving it from G when
// GOrder is unset.
func (a App) growthOrder() float64 {
	if a.GOrder != 0 { //lint:allow floatguard exact zero is the unset-field sentinel
		return a.GOrder
	}
	return speedup.GrowthOrder(a.G, 64)
}

// Canonical application profiles for the case studies. Their miss-rate
// curves are calibrated against the trace generators in internal/trace.

// TMMApp is a tiled dense matrix-multiplication profile: superlinear
// g(N) = N^{3/2}, strong locality, high hit concurrency.
func TMMApp() App {
	return App{
		Name: "tmm", Fseq: 0.02, Fmem: 0.45, Overlap: 0.2,
		CH: 4, CM: 2.5, PMRRatio: 0.5, PAMPRatio: 0.8,
		L1Miss: chip.MissRateCurve{Base: 0.04, RefKB: 32, Alpha: 0.5, Floor: 0.002},
		L2Miss: chip.MissRateCurve{Base: 0.3, RefKB: 256, Alpha: 0.6, Floor: 0.01},
		G:      speedup.PowerLaw(1.5), GOrder: 1.5, IC0: 1e9,
	}
}

// StencilApp is a memory-streaming stencil profile: g(N) = N, moderate
// locality, high miss concurrency from predictable strides.
func StencilApp() App {
	return App{
		Name: "stencil", Fseq: 0.01, Fmem: 0.55, Overlap: 0.3,
		CH: 3, CM: 4, PMRRatio: 0.6, PAMPRatio: 0.7,
		L1Miss: chip.MissRateCurve{Base: 0.08, RefKB: 32, Alpha: 0.4, Floor: 0.01},
		L2Miss: chip.MissRateCurve{Base: 0.5, RefKB: 256, Alpha: 0.35, Floor: 0.05},
		G:      speedup.Linear(), GOrder: 1, IC0: 1e9,
	}
}

// FFTApp is a fast-Fourier-transform profile with the Table I scaling.
func FFTApp() App {
	scale := speedup.Table1(1 << 20)[3].Scale
	return App{
		Name: "fft", Fseq: 0.03, Fmem: 0.5, Overlap: 0.25,
		CH: 3.5, CM: 3, PMRRatio: 0.55, PAMPRatio: 0.75,
		L1Miss: chip.MissRateCurve{Base: 0.06, RefKB: 32, Alpha: 0.45, Floor: 0.005},
		L2Miss: chip.MissRateCurve{Base: 0.4, RefKB: 256, Alpha: 0.45, Floor: 0.03},
		G:      scale, GOrder: 1, IC0: 1e9,
	}
}

// FluidanimateApp mimics the PARSEC fluidanimate benchmark used for the
// paper's APS validation: a large-working-set particle/grid code with a
// modest sequential portion and mid-range concurrency.
func FluidanimateApp() App {
	return App{
		Name: "fluidanimate", Fseq: 0.04, Fmem: 0.38, Overlap: 0.2,
		CH: 3, CM: 2, PMRRatio: 0.6, PAMPRatio: 0.8,
		L1Miss: chip.MissRateCurve{Base: 0.05, RefKB: 32, Alpha: 0.45, Floor: 0.004},
		L2Miss: chip.MissRateCurve{Base: 0.45, RefKB: 256, Alpha: 0.5, Floor: 0.02},
		G:      speedup.PowerLaw(1.2), GOrder: 1.2, IC0: 1e10,
	}
}

// SequentialHeavyApp is the Fig. 7 "application 1" archetype: a large
// sequential portion and almost no memory concurrency, so extra cores are
// nearly worthless.
func SequentialHeavyApp() App {
	a := StencilApp()
	a.Name = "seq-heavy"
	a.Fseq = 0.4
	a = a.WithConcurrency(1)
	a.G = speedup.FixedSize()
	a.GOrder = 0
	return a
}

// ParallelConcurrentApp is the Fig. 7 "application 2" archetype: tiny
// sequential portion and high memory concurrency.
func ParallelConcurrentApp() App {
	a := StencilApp()
	a.Name = "par-concurrent"
	a.Fseq = 0.005
	a = a.WithConcurrency(8)
	a.G = speedup.Linear()
	a.GOrder = 1
	return a
}

// BalancedApp is the Fig. 7 "application 3" archetype between the two
// extremes.
func BalancedApp() App {
	a := StencilApp()
	a.Name = "balanced"
	a.Fseq = 0.08
	a = a.WithConcurrency(3)
	a.G = speedup.PowerLaw(0.5)
	a.GOrder = 0.5
	return a
}
