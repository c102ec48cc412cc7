// Policycompare: evaluate every DRAM-cache design on a mixed workload.
//
// Runs one of the paper's Table 3 mixes (eight different SPEC-like programs
// sharing the memory system) across all implemented designs — no-L4,
// Loh-Hill, Mostly-Clean, Alloy, inclusive Alloy, BEAR, Tags-In-SRAM,
// Sector Cache and the Bandwidth-Optimized ideal — and reports weighted
// speedup (Equation 2) normalized to the Alloy baseline.
//
//	go run ./examples/policycompare [-mix 3]
package main

import (
	"flag"
	"fmt"
	"log"

	"bear"
)

func main() {
	mix := flag.Int("mix", 1, "Table 3 mix index (1-8) or generated mix (9-38)")
	flag.Parse()

	cfg := bear.DefaultConfig()
	cfg.Scale = 128
	cfg.WarmInstr = 300_000
	cfg.MeasInstr = 600_000

	designs := []bear.Design{
		bear.NoL4, bear.LohHill, bear.MostlyClean, bear.Alloy,
		bear.InclAlloy, bear.BEAR, bear.TagsInSRAM, bear.SectorCache, bear.BWOpt,
	}

	var baseline *bear.Result
	type row struct {
		r  *bear.Result
		ws float64
	}
	rows := map[bear.Design]row{}
	for _, d := range designs {
		c := cfg
		c.Design = d
		r, err := bear.RunMix(c, *mix)
		if err != nil {
			log.Fatal(err)
		}
		// Weighted speedup needs each benchmark's alone-on-the-machine IPC
		// under the same memory system (Equation 2 of the paper).
		// For a compact example we approximate the single-program IPC by
		// the benchmark's rate-mode per-core IPC on the same design.
		singles := make([]float64, len(r.CoreIPC))
		seen := map[string]float64{}
		wlBenchNames := bear.MixComposition(*mix, len(r.CoreIPC))
		for i, name := range wlBenchNames {
			if ipc, ok := seen[name]; ok {
				singles[i] = ipc
				continue
			}
			single, err := bear.RunSingle(c, name)
			if err != nil {
				log.Fatal(err)
			}
			seen[name] = single.CoreIPC[0]
			singles[i] = single.CoreIPC[0]
		}
		ws := bear.WeightedSpeedup(r, singles)
		rows[d] = row{r: r, ws: ws}
		if d == bear.Alloy {
			baseline = r
		}
	}
	baseWS := rows[bear.Alloy].ws

	fmt.Printf("MIX%d across all designs (normalized weighted speedup, Alloy = 1.0)\n\n", *mix)
	fmt.Printf("%-11s %9s %9s %9s %8s\n", "design", "normWS", "hit-rate", "bloat", "hit-lat")
	for _, d := range designs {
		rw := rows[d]
		fmt.Printf("%-11s %9.3f %8.1f%% %8.2fx %7.0f\n",
			d, rw.ws/baseWS, 100*rw.r.L4HitRate, rw.r.BloatFactor, rw.r.L4HitLatency)
	}
	_ = baseline
	fmt.Println("\nExpected shape (paper Fig 17): BEAR > Incl-Alloy > Alloy > MC > LH > NoL4,")
	fmt.Println("with TIS near BEAR and SC behind Alloy (dirty sector replacements).")
}
