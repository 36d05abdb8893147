package core

import (
	"math"
	"testing"
)

// optimizeGolden is Optimize's answer on the catalog apps under the
// default chip, as IEEE-754 bit patterns: with the area-derived core-count
// bound (maxN 0) and with MaxN 64.
var optimizeGolden = []struct {
	app                        string
	maxN, n                    int
	core, l1, l2, time, thrput uint64
	method                     string
}{
	{"tmm", 0, 720, 0x3fc04e88360f6da2, 0x3fc5ee619209d248, 0x3fc9c31637e6c014, 0x4239f78242e82355, 0x406538757186710c, "nelder-mead"},
	{"tmm", 64, 64, 0x400e2f8476405d89, 0x3fedde63288db2c3, 0x3fed638afe70d714, 0x41fb5ee016317176, 0x405112e19fd05f91, "nelder-mead"},
	{"stencil", 0, 716, 0x3fb08ab99a7c1498, 0x3fce0c3423925ff4, 0x3fca09f6ecdca2a0, 0x41fa61a646f7d480, 0x40590621ccad8f9c, "nelder-mead"},
	{"stencil", 64, 64, 0x40068929bee7ea64, 0x3ff8d73354894e1e, 0x3ff416792da6dd1b, 0x41d2ef5a248267cc, 0x4048ef5b96c2b467, "nelder-mead"},
	{"fft", 0, 664, 0x3fb9c525c9305fd4, 0x3fcc7954886492ac, 0x3fcc09e10e62dab4, 0x41fcac12dc7061da, 0x405eba80a9f58e19, "nelder-mead"},
	{"fft", 64, 64, 0x4009f2d2c73e18e5, 0x3ff442c508893323, 0x3ff1d79568fa9b10, 0x41d50459b4bbbff1, 0x404c9ed3cba4d20d, "nelder-mead"},
	{"fluidanimate", 0, 622, 0x3fbc0a327de95eb0, 0x3fccbc577841f4fc, 0x3fcf53f62d9f609e, 0x42451dbb2395c244, 0x405dcbdf298902f4, "nelder-mead"},
	{"fluidanimate", 64, 64, 0x40090f4487678177, 0x3ff44b9dfb7f2942, 0x3ff395d8f5b1d3ce, 0x42171e06cc263b8a, 0x404c70df4c3e729d, "nelder-mead"},
}

// splitGolden is OptimizeAreas' (A0, A1, A2) split at N = 1, 2, 4, …, 512
// on the catalog apps under the default chip, as IEEE-754 bit patterns.
var splitGolden = []struct {
	app          string
	n            int
	core, l1, l2 uint64
}{
	{"tmm", 1, 0x40736cc636bc137a, 0x4040c8e372d28c67, 0x402f43ab5d335f2e},
	{"tmm", 2, 0x40630ccba3068dc4, 0x4031d35281eab3bc, 0x40238ca0cbc1bc46},
	{"tmm", 4, 0x4052971fcc957672, 0x40232172cedc8086, 0x40184b1d98ef97c2},
	{"tmm", 8, 0x404206c7b449c82a, 0x4014c5802da47114, 0x400e0884601a9b2f},
	{"tmm", 16, 0x4031527fa714f6ec, 0x4006e048dbe52a6b, 0x40028bb9eb731e35},
	{"tmm", 32, 0x402065db5ce9684b, 0x3ff9b89d9d2a5b37, 0x3ff718877b8a6270},
	{"tmm", 64, 0x400e2f8476405d89, 0x3fedde63288db2c3, 0x3fed638afe70d714},
	{"tmm", 128, 0x3ffa5daa18b1a95e, 0x3fe21132b9f8dab5, 0x3fe3337914a3d293},
	{"tmm", 256, 0x3fe513249be9f768, 0x3fd687706d1be320, 0x3fd952465b102e11},
	{"tmm", 512, 0x3fcd5ce3abccabb4, 0x3fcc0988cb13c20c, 0x3fd04cc9c48fc91f},
	{"stencil", 1, 0x40706ddb2e621ef8, 0x404ee5fb2ca25dc1, 0x4041ab2b604caa7f},
	{"stencil", 2, 0x406012321def8b55, 0x403fe2b42efaf9cb, 0x40338bbae188ab95},
	{"stencil", 4, 0x404f488ee08b0b2f, 0x403099165737083b, 0x4025ab97cf65c2d1},
	{"stencil", 8, 0x403e2af74a8416b9, 0x402187ad369a3faa, 0x401844c868bb25cd},
	{"stencil", 16, 0x402c8fc9830a1b4a, 0x4012fa44f4968da7, 0x400bcc500aaa778f},
	{"stencil", 32, 0x401a1d6b0c324412, 0x40054ebb34899546, 0x4000766eb311e296},
	{"stencil", 64, 0x40068929bee7ea64, 0x3ff8d73354894e1e, 0x3ff416792da6dd1b},
	{"stencil", 128, 0x3ff1dfb60fe31a25, 0x3fed8ce1a46229cc, 0x3fe8b3b23bd7a1ec},
	{"stencil", 256, 0x3fd9521561905e3b, 0x3fe172ae2ee80545, 0x3fddc88e409f973a},
	{"stencil", 512, 0x3fbf152867c5ca0a, 0x3fd3fa4350895b6b, 0x3fd1407295853211},
	{"fft", 1, 0x4071d82da84e4a70, 0x40485426956abef3, 0x4039d4d85045db28},
	{"fft", 2, 0x40616db8408ddf92, 0x40397ee28979be64, 0x402e26b6e42e8a23},
	{"fft", 4, 0x4050f07e08f32848, 0x402af2a1befc5a3d, 0x4021896df96a6383},
	{"fft", 8, 0x4040596c14899845, 0x401ccad5896bd052, 0x401469c9d2476d8b},
	{"fft", 16, 0x402f2f29f2d9eaf3, 0x400f47c74332607e, 0x4007fb90f165f3b8},
	{"fft", 32, 0x401d10973279c45a, 0x4001774887239d68, 0x3ffccf1227d1b3c9},
	{"fft", 64, 0x4009f2d2c73e18e5, 0x3ff442c508893323, 0x3ff1d79568fa9b10},
	{"fft", 128, 0x3ff58fa00e0b5cef, 0x3fe8518a0ff4998c, 0x3fe68f35d3f4ac95},
	{"fft", 256, 0x3fe0182c0f3ff5c2, 0x3fdd7ca3bf090a79, 0x3fdc530422770a03},
	{"fft", 512, 0x3fc4b2194ad28e18, 0x3fd1802cfe5a35d1, 0x3fd126c65c3c8323},
	{"fluidanimate", 1, 0x40718791b0b5b5d3, 0x404993f9be0059b2, 0x403c5ef178a3ef74},
	{"fluidanimate", 2, 0x40610eb9dfd6b4c5, 0x403ac05254b74064, 0x4030c9deac931978},
	{"fluidanimate", 4, 0x405080c6fd668b05, 0x402c3982fb24fc49, 0x4023c04519a6ab85},
	{"fluidanimate", 8, 0x403fb1f0f357589d, 0x401e1265d8364c1a, 0x401725d65a6c5173},
	{"fluidanimate", 16, 0x402e17e3e0a110b4, 0x40103a7d1c367545, 0x400b2b76450ed2ac},
	{"fluidanimate", 32, 0x401bffbc18b3a555, 0x4001df7e0559af37, 0x40002109c93f061c},
	{"fluidanimate", 64, 0x40090f4487678177, 0x3ff44b9dfb7f2942, 0x3ff395d8f5b1d3ce},
	{"fluidanimate", 128, 0x3ff4edff82607a4a, 0x3fe7d5664bb38d06, 0x3fe84e9aaf8b7e65},
	{"fluidanimate", 256, 0x3fdf55a55a65f0d8, 0x3fdc78b8c347c204, 0x3fde31a1e2524d27},
	{"fluidanimate", 512, 0x3fc40607b9e29ac1, 0x3fd0c6d7f3d4153b, 0x3fd236242f3a9d65},
}

// catalogApps are the application profiles the evaluation service's
// catalog serves, by name.
var catalogApps = map[string]func() App{
	"tmm":          TMMApp,
	"stencil":      StencilApp,
	"fft":          FFTApp,
	"fluidanimate": FluidanimateApp,
}

// TestOptimizeMatchesGolden pins every optimum bit for bit, so a change
// to the area solver or the core-count scan that moves any answer fails
// here rather than drifting silently.
func TestOptimizeMatchesGolden(t *testing.T) {
	for _, g := range optimizeGolden {
		m := testModel(catalogApps[g.app]())
		res, err := m.Optimize(Options{MaxN: g.maxN})
		if err != nil {
			t.Fatalf("%s maxN=%d: %v", g.app, g.maxN, err)
		}
		d := res.Design
		if d.N != g.n || res.Method != g.method {
			t.Fatalf("%s maxN=%d: N=%d method %q, want N=%d method %q", g.app, g.maxN, d.N, res.Method, g.n, g.method)
		}
		for _, c := range []struct {
			name string
			v    float64
			want uint64
		}{
			{"A0", d.CoreArea, g.core}, {"A1", d.L1Area, g.l1}, {"A2", d.L2Area, g.l2},
			{"T", res.Eval.Time, g.time}, {"W/T", res.Eval.Throughput, g.thrput},
		} {
			if math.Float64bits(c.v) != c.want {
				t.Errorf("%s maxN=%d %s: %#016x, want %#016x", g.app, g.maxN, c.name, math.Float64bits(c.v), c.want)
			}
		}
	}
}

// TestOptimizeAreasMatchesGolden pins the per-N area split bit for bit.
func TestOptimizeAreasMatchesGolden(t *testing.T) {
	for _, g := range splitGolden {
		m := testModel(catalogApps[g.app]())
		d, _, err := m.OptimizeAreas(g.n, Options{})
		if err != nil {
			t.Fatalf("%s N=%d: %v", g.app, g.n, err)
		}
		for _, c := range []struct {
			name string
			v    float64
			want uint64
		}{
			{"A0", d.CoreArea, g.core}, {"A1", d.L1Area, g.l1}, {"A2", d.L2Area, g.l2},
		} {
			if math.Float64bits(c.v) != c.want {
				t.Errorf("%s N=%d %s: %#016x, want %#016x", g.app, g.n, c.name, math.Float64bits(c.v), c.want)
			}
		}
	}
}
