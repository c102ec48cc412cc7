package bear_test

// End-to-end hot-path benchmarks: BenchmarkSimAlloy and BenchmarkSimBEAR run
// one complete simulation per iteration and report ns/instr and allocs/instr
// for the measured (steady-state) phase. Construction and warm-up run
// untimed — RunWarm grows the event queue, DRAM request freelists and
// transaction pools to their working sizes first — so allocs/instr is the
// true steady-state allocation rate, which the hot path keeps at zero.
//
// scripts/bench.sh runs these and snapshots the numbers into BENCH_<n>.json
// so the performance trajectory is tracked across PRs.

import (
	"runtime"
	"testing"

	"bear/internal/config"
	"bear/internal/hier"
	"bear/internal/trace"
)

// benchSim reports steady-state ns/instr and allocs/instr for one design.
func benchSim(b *testing.B, design config.Design) {
	b.Helper()
	const (
		scale = 256
		bench = "mcf"
		warm  = uint64(150_000)
		meas  = uint64(500_000)
	)
	sys := config.Default(scale).WithDesign(design)
	var instr, mallocs uint64
	var before, after runtime.MemStats
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		wl, err := trace.Rate(bench, sys.Core.Count, scale, 1)
		if err != nil {
			b.Fatal(err)
		}
		sim, err := hier.NewSim(sys, wl, warm, meas)
		if err != nil {
			b.Fatal(err)
		}
		sim.RunWarm()
		runtime.ReadMemStats(&before)
		b.StartTimer()
		res, err := sim.Run()
		b.StopTimer()
		runtime.ReadMemStats(&after)
		if err != nil {
			b.Fatal(err)
		}
		mallocs += after.Mallocs - before.Mallocs
		instr += res.Instructions
	}
	if instr == 0 {
		b.Fatal("no instructions measured")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instr), "ns/instr")
	b.ReportMetric(float64(mallocs)/float64(instr), "allocs/instr")
}

// BenchmarkSimAlloy measures the Alloy baseline (MAP-I predictor, no BEAR
// components): the common L4 hit/miss paths through dram, dramcache, hier
// and cpu.
func BenchmarkSimAlloy(b *testing.B) { benchSim(b, config.Alloy) }

// BenchmarkSimBEAR measures the full BEAR design (BAB + DCP + NTC), which
// additionally exercises the bypass, presence and tag-cache policy code on
// every access.
func BenchmarkSimBEAR(b *testing.B) { benchSim(b, config.BEAR) }

// The remaining compositions cover every other design the experiments run,
// so a regression in any design-specific path (sectored tags, inclusion
// back-invalidates, the no-L4 memory path, ...) shows up in the snapshot
// trajectory, not only in the two headline designs above.

// BenchmarkSimNoL4 measures the no-DRAM-cache floor: L3 misses go straight
// to main memory, so this isolates cpu + hier + dram with no L4 code at all.
func BenchmarkSimNoL4(b *testing.B) { benchSim(b, config.NoL4) }

// BenchmarkSimBWOpt measures the idealised bandwidth-optimized cache.
func BenchmarkSimBWOpt(b *testing.B) { benchSim(b, config.BWOpt) }

// BenchmarkSimLH measures the Loh-Hill tags-in-DRAM design.
func BenchmarkSimLH(b *testing.B) { benchSim(b, config.LohHill) }

// BenchmarkSimMC measures the Mostly-Clean write-policy design.
func BenchmarkSimMC(b *testing.B) { benchSim(b, config.MostlyClean) }

// BenchmarkSimInclAlloy measures Alloy with inclusion enforced, which adds
// back-invalidate traffic into the on-chip levels on every L4 eviction.
func BenchmarkSimInclAlloy(b *testing.B) { benchSim(b, config.InclAlloy) }

// BenchmarkSimTIS measures the tags-in-SRAM idealisation.
func BenchmarkSimTIS(b *testing.B) { benchSim(b, config.TIS) }

// BenchmarkSimSC measures the sectored cache design.
func BenchmarkSimSC(b *testing.B) { benchSim(b, config.Sector) }

// BenchmarkSimBanshee measures the page-grained Banshee design (pageTags
// with whole-page fills, FBR admission, tag-buffer writeback resolution).
// Without DCP no eviction hook is installed, so a page eviction no longer
// fans out into the SRAM levels once per valid line.
func BenchmarkSimBanshee(b *testing.B) { benchSim(b, config.Banshee) }

// BenchmarkSimTicToc measures the page-grained TicToc design (demand-line
// fills into page frames, tag-cache-resolved tag checks). As for Banshee,
// page evictions do not fan out into the SRAM levels.
func BenchmarkSimTicToc(b *testing.B) { benchSim(b, config.TicToc) }
