package exp

// Ablation experiments for the design choices DESIGN.md calls out. These
// go beyond the paper's figures: they probe the sensitivity studies the
// paper reports only as conclusions ("we conduct a sensitivity study using
// 90% probability...", "we found Delta = 1/16 gave the best overall
// performance") and the policy alternatives it discusses in prose
// (writeback-allocate, predictor quality).

import (
	"fmt"
	"io"

	"bear/internal/config"
	"bear/internal/stats"
)

// ablationWorkloads is a representative subset spanning the behaviours the
// policies react to: bypass-friendly (mcf), streaming (lbm, libq),
// reuse-heavy where bypass hurts (Gems, zeusmp), writeback-heavy (omnetpp).
var ablationWorkloads = []string{"mcf", "lbm", "libq", "omnetpp", "Gems", "zeusmp"}

// ablationUnits runs the variants on the ablation workloads.
func ablationUnits(vs []variant) func(Params) []UnitSpec {
	return func(Params) []UnitSpec { return rateUnits(ablationWorkloads, specsOf(vs)...) }
}

// tagCacheCounts sums the NTC's saved probes and squashed parallel
// accesses for s over the ablation workloads.
func tagCacheCounts(res Results, s UnitSpec) (saved, squashed uint64) {
	for _, name := range ablationWorkloads {
		run := res.Get(s.on(name))
		saved += run.L4.NTCProbesSaved
		squashed += run.L4.NTCParallelSqsh
	}
	return saved, squashed
}

func init() {
	bab := []variant{{"fill-always", specAlloy, specAlloy}}
	for _, prob := range []float64{0.5, 0.75, 0.9, 0.95} {
		s := specBAB()
		s.BypassProb = prob
		bab = append(bab, variant{fmt.Sprintf("%.0f%%", 100*prob), s, specAlloy})
	}
	register(Experiment{
		ID:       "abl-bab",
		Artifact: "Ablation",
		Title:    "BAB bypass-probability sweep (the paper selects P=90%)",
		About:    "Section 4.2's sensitivity: speedup and hit-rate loss vs P on representative workloads",
		Units:    ablationUnits(bab),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("P", "Speedup-vs-Alloy", "HitRate", "FillBytes/Read")
			for _, v := range bab {
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				a := aggRate(res, v.s, ablationWorkloads)
				t.row(v.name, f3(g), pct(a.HitRate()), f2(fillPerRead(&a)))
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: speedup grows with P while the duel bounds the hit-rate loss;")
			fmt.Fprintln(w, "the paper picked P=90% on the same grounds.")
			return nil
		},
	})

	var ntc []variant
	for _, n := range []int{2, 4, 8, 16, 32} {
		s := specBEAR
		s.NTCEntries = n
		ntc = append(ntc, variant{fmt.Sprint(n), s, specAlloy})
	}
	register(Experiment{
		ID:       "abl-ntc",
		Artifact: "Ablation",
		Title:    "Neighboring Tag Cache capacity sweep (the paper uses 8 entries/bank)",
		About:    "Probes saved and speedup as the per-bank NTC grows",
		Units:    ablationUnits(ntc),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Entries/bank", "Speedup-vs-Alloy", "ProbesSaved", "ParallelSquashed")
			for _, v := range ntc {
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				saved, squashed := tagCacheCounts(res, v.s)
				t.row(v.name, f3(g), saved, squashed)
			}
			t.write(w)
			return nil
		},
	})

	var pred []variant
	for _, mode := range []config.PredMode{config.PredAlwaysHit, config.PredMAPI, config.PredPerfect} {
		s := specAlloy
		s.Pred = mode
		pred = append(pred, variant{mode.String(), s, specAlloy})
	}
	register(Experiment{
		ID:       "abl-pred",
		Artifact: "Ablation",
		Title:    "Miss-predictor quality: always-hit vs MAP-I vs perfect oracle",
		About:    "Serialisation penalty of mispredictions on the Alloy baseline (MAP-I is the paper's choice)",
		Units:    ablationUnits(pred),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Predictor", "Speedup-vs-MAP-I", "MissLat", "MemWastedReads")
			for _, v := range pred {
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				a := aggRate(res, v.s, ablationWorkloads)
				t.row(v.name, f3(g), cyc(a.AvgMissLatency()), "-")
			}
			t.write(w)
			fmt.Fprintln(w, "\nExpected: always-hit pays full probe-then-memory serialisation on misses;")
			fmt.Fprintln(w, "perfect bounds what MAP-I can recover.")
			return nil
		},
	})

	wbAlloc := specAlloy
	wbAlloc.WBAllocate = true
	wballoc := []variant{{"no-allocate", specAlloy, specAlloy}, {"allocate", wbAlloc, specAlloy}}
	register(Experiment{
		ID:       "abl-wballoc",
		Artifact: "Ablation",
		Title:    "Writeback-allocate vs no-allocate (Section 2.3's sixth bloat source)",
		About:    "Switching the baseline to writeback-allocate activates the WB Fill category",
		Units:    ablationUnits(wballoc),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Policy", "WBProbe", "WBUpdate", "WBFill", "Total", "Speedup")
			for _, v := range wballoc {
				l := aggRate(res, v.s, ablationWorkloads)
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				t.row(v.name, f2(l.CategoryFactor(stats.WBProbe)), f2(l.CategoryFactor(stats.WBUpdate)),
					f2(l.CategoryFactor(stats.WBFill)), f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			return nil
		},
	})
}

// fillPerRead reports Miss-Fill bytes per L4 read, the bandwidth BAB frees.
func fillPerRead(l *stats.L4) float64 {
	if l.Reads() == 0 {
		return 0
	}
	return float64(l.Bytes[stats.MissFill]) / float64(l.Reads())
}

// statusRows renders the bypass-policy comparison of abl-deadblock and
// abl-upd: speedup, hit rate, bloat and the reuse-status update category.
func statusRows(res Results, w io.Writer, vs []variant) {
	t := newTable("Policy", "Speedup-vs-Alloy", "HitRate", "Bloat", "StatusUpd")
	for _, v := range vs {
		_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
		l := aggRate(res, v.s, ablationWorkloads)
		t.row(v.name, f3(g), pct(l.HitRate()), f2(l.BloatFactor()),
			f2(l.CategoryFactor(stats.ReplUpdate)))
	}
	t.write(w)
}

func init() {
	deadblock := []variant{
		{"fill-always", specAlloy, specAlloy},
		{"BAB", specBAB(), specAlloy},
		{"dead-block", UnitSpec{Design: "Alloy", Bypass: config.DeadBlockBypass}, specAlloy},
	}
	register(Experiment{
		ID:       "abl-deadblock",
		Artifact: "Ablation",
		Title:    "BAB vs a dead-block-predictor bypass (Section 9.2's prior work)",
		About:    "Dead-block bypassing optimises hit rate but pays in-DRAM reuse-status updates; BAB optimises bandwidth directly",
		Units:    ablationUnits(deadblock),
		Render: func(p Params, res Results, w io.Writer) error {
			statusRows(res, w, deadblock)
			fmt.Fprintln(w, "\nExpected: dead-block bypassing buys little bandwidth and pays the")
			fmt.Fprintln(w, "status-update column; BAB frees fill bandwidth without it.")
			return nil
		},
	})

	tagcache := []variant{
		{"none", specAlloy, specAlloy},
		{"NTC", UnitSpec{Design: "Alloy", NTC: true}, specAlloy},
		{"TTC", UnitSpec{Design: "Alloy", TTC: true}, specAlloy},
		{"NTC+TTC", UnitSpec{Design: "Alloy", NTC: true, TTC: true}, specAlloy},
	}
	register(Experiment{
		ID:       "abl-tagcache",
		Artifact: "Ablation",
		Title:    "Spatial (NTC) vs temporal (TTC) tag caching, and both combined (Section 9.4)",
		About:    "The paper notes the two exploit different locality and are orthogonal",
		Units:    ablationUnits(tagcache),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("TagCache", "Speedup-vs-Alloy", "ProbesSaved", "ParallelSquashed")
			for _, v := range tagcache {
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				saved, squashed := tagCacheCounts(res, v.s)
				t.row(v.name, f3(g), saved, squashed)
			}
			t.write(w)
			return nil
		},
	})
}

func init() {
	dip := []variant{
		{"LH-LRU", specLH, specLH},
		{"LH-DIP", UnitSpec{Design: "LH", LHDIP: true}, specLH},
		{"TIS-LRU", specTIS, specTIS},
		{"TIS-DIP", UnitSpec{Design: "TIS", TISDIP: true}, specTIS},
	}
	register(Experiment{
		ID:       "abl-dip",
		Artifact: "Ablation",
		Title:    "Insertion policy: LRU vs DIP over Loh-Hill and TIS (paper footnote 3)",
		About:    "DIP is a standalone FillPolicy since the granularity refactor, so the same dipFill composes over both the in-DRAM (LH) and in-SRAM (TIS) tag stores; speedups are vs each design's own LRU base",
		Units:    ablationUnits(dip),
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Policy", "Speedup-vs-LRU", "HitRate", "Bloat")
			for _, v := range dip {
				_, g := rateSpeedups(res, v.s, v.base, ablationWorkloads)
				a := aggRate(res, v.s, ablationWorkloads)
				t.row(v.name, f3(g), pct(a.HitRate()), f2(a.BloatFactor()))
			}
			t.write(w)
			return nil
		},
	})

	upd := []variant{
		{"fill-always", specAlloy, specAlloy},
		{"dead-block", UnitSpec{Design: "Alloy", Bypass: config.DeadBlockBypass}, specAlloy},
		{"update-bypass", UnitSpec{Design: "Alloy", Bypass: config.UpdateBypass}, specAlloy},
	}
	register(Experiment{
		ID:       "abl-upd",
		Artifact: "Ablation",
		Title:    "Update-bypass of replacement state (Young & Qureshi-style sampling)",
		About:    "Dead-block bypassing pays an in-DRAM reuse-bit write per first reuse; sampling the updates to 1-in-64 sets keeps the bypass decision while shrinking the StatusUpd bandwidth category",
		Units:    ablationUnits(upd),
		Render: func(p Params, res Results, w io.Writer) error {
			statusRows(res, w, upd)
			fmt.Fprintln(w, "\nExpected: update-bypass keeps dead-block's fill filtering but pays")
			fmt.Fprintln(w, "the reuse-status write only in sampled sets, shrinking StatusUpd ~64x.")
			return nil
		},
	})
}
