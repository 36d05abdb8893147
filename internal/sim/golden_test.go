package sim

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/camat"
	"repro/internal/sim/cache"
	"repro/internal/trace"
)

// goldenDesigns span the simulator's configuration space: core count,
// issue width, ROB size and L1/L2 capacity all change between them.
var goldenDesigns = []struct {
	name              string
	cores, issue, rob int
	l1KB, l2KB        int
	computeCPI        float64
}{
	{"small", 1, 2, 32, 16, 512, 1.5},
	{"mid", 8, 4, 128, 32, 2048, 1},
	{"wide", 32, 8, 256, 64, 8192, 0.75},
}

// goldenSeeds are the generator seeds each workload and design runs with.
var goldenSeeds = []uint64{1, 42}

// goldenRefs is each run's total reference count, split evenly across the
// design's cores. The one-core design runs it all: pchase then outlasts
// the default 2^22-cycle lateness window, so the detector and the APC
// trackers retire state before Finalize as well as in it.
const goldenRefs = 32000

// TestRunMatchesGolden pins the simulator bit for bit: every trace
// workload on three designs and two seeds, each run's cycles,
// instructions, per-core core statistics and detector analyses, cache and
// DRAM counters, and the IEEE-754 bits of its CPI, L1 C-AMAT parameters
// and layer APCs, against testdata/run_golden.txt.
func TestRunMatchesGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/run_golden.txt")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	var got []string
	for _, w := range trace.Workloads() {
		for _, d := range goldenDesigns {
			cfg := DefaultConfig(d.cores)
			cfg.Core.IssueWidth = d.issue
			cfg.Core.ROB = d.rob
			cfg.Core.ComputeCPI = d.computeCPI
			cfg.L1.SizeKB = d.l1KB
			cfg.L2.SizeKB = d.l2KB
			for _, seed := range goldenSeeds {
				res, err := RunWorkload(cfg, w, 1<<22, 2, goldenRefs/d.cores, seed)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", w, d.name, seed, err)
				}
				got = append(got, goldenLines(fmt.Sprintf("%s/%s/%d", w, d.name, seed), res)...)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden lines, want %d", len(got), len(want))
	}
	run, bad := "", 0
	for i := range got {
		if strings.HasPrefix(want[i], "run ") {
			run = want[i]
		}
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("%s\n got %s\nwant %s", run, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("%d more golden lines differ", bad-10)
	}
}

// goldenLines renders every result the golden pins, floats as bit
// patterns, one field group per line.
func goldenLines(name string, res *Result) []string {
	bits := math.Float64bits
	p := res.L1Params
	lines := []string{
		fmt.Sprintf("run %s cores=%d cycles=%d instructions=%d mem=%d cpi=%#x",
			name, res.Cores, res.Cycles, res.Instructions, res.MemAccesses, bits(res.CPI)),
		fmt.Sprintf("l1params H=%#x MR=%#x AMP=%#x CH=%#x CM=%#x PMR=%#x PAMP=%#x",
			bits(p.H), bits(p.MR), bits(p.AMP), bits(p.CH), bits(p.CM), bits(p.PMR), bits(p.PAMP)),
		fmt.Sprintf("apc l1=%#x l2=%#x mem=%#x", bits(res.APCL1), bits(res.APCL2), bits(res.APCMem)),
		"l1 " + goldenCache(res.L1Stats),
		"l2 " + goldenCache(res.L2Stats),
		fmt.Sprintf("dram reads=%d writes=%d rowhits=%d rowmisses=%d rowempty=%d refreshes=%d",
			res.DRAMStats.Reads, res.DRAMStats.Writes, res.DRAMStats.RowHits,
			res.DRAMStats.RowMisses, res.DRAMStats.RowEmpty, res.DRAMStats.Refreshes),
	}
	for i, st := range res.CoreStats {
		lines = append(lines, fmt.Sprintf("core %d instructions=%d mem=%d cycles=%d %s",
			i, st.Instructions, st.MemAccesses, st.Cycles, goldenAnalysis(res.L1Analyses[i])))
	}
	return lines
}

func goldenCache(s cache.Stats) string {
	return fmt.Sprintf("accesses=%d hits=%d misses=%d merges=%d writebacks=%d prefetches=%d latency=%d",
		s.Accesses, s.Hits, s.Misses, s.MSHRMerges, s.Writebacks, s.Prefetches, s.LatencySum)
}

func goldenAnalysis(a camat.Analysis) string {
	return fmt.Sprintf("acc=%d miss=%d pure=%d hit=%#x hac=%d mac=%d pmc=%d ac=%d ha=%d pma=%d amc=%d apmc=%d",
		a.Accesses, a.Misses, a.PureMisses, math.Float64bits(a.HitTime),
		a.HitActiveCycles, a.MissActiveCycles, a.PureMissCycles, a.ActiveCycles,
		a.HitActivity, a.PureMissActivity, a.PerAccessMissCycles, a.PerAccessPureMissCycles)
}
