package exp

import (
	"fmt"
	"io"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Named units used across experiments; UnitSpec.on fills in the
// workload.
var (
	specNoL4  = UnitSpec{Design: "NoL4"}
	specAlloy = UnitSpec{Design: "Alloy"}
	specBEAR  = UnitSpec{Design: "BEAR"}
	specBWOpt = UnitSpec{Design: "BW-Opt"}
	specLH    = UnitSpec{Design: "LH"}
	specMC    = UnitSpec{Design: "MC"}
	specIncl  = UnitSpec{Design: "Incl-Alloy"}
	specTIS   = UnitSpec{Design: "TIS"}
	specSC    = UnitSpec{Design: "SC"}

	// Page-grained cross-paper designs (see crosspaper.go).
	specBanshee = UnitSpec{Design: "Banshee"}
	specTicToc  = UnitSpec{Design: "TicToc"}
)

func specPB(p float64) UnitSpec {
	return UnitSpec{Design: "Alloy", Bypass: config.ProbBypass, BypassProb: p}
}

func specBAB() UnitSpec { return UnitSpec{Design: "Alloy", Bypass: config.BandwidthAware} }

func specBABDCP() UnitSpec {
	s := specBAB()
	s.DCP = true
	return s
}

// variant is one labelled row of an experiment: unit s, compared
// against base when the row reports a speedup.
type variant struct {
	name    string
	s, base UnitSpec
}

// specsOf lists every unit the variants name.
func specsOf(vs []variant) []UnitSpec {
	var specs []UnitSpec
	for _, v := range vs {
		specs = append(specs, v.s)
		if v.base != (UnitSpec{}) {
			specs = append(specs, v.base)
		}
	}
	return specs
}

// bloatRow renders the six-way bandwidth breakdown and its total.
func bloatRow(t *table, name string, l *stats.L4) {
	t.row(name,
		f2(l.CategoryFactor(stats.HitProbe)), f2(l.CategoryFactor(stats.MissProbe)),
		f2(l.CategoryFactor(stats.MissFill)), f2(l.CategoryFactor(stats.WBProbe)),
		f2(l.CategoryFactor(stats.WBUpdate)), f2(l.CategoryFactor(stats.WBFill)),
		f2(l.BloatFactor()))
}

func init() {
	fig3 := []variant{{"LH", specLH, specNoL4}, {"Alloy", specAlloy, specNoL4}, {"BW-Opt", specBWOpt, specNoL4}}
	register(Experiment{
		ID:       "fig3",
		Artifact: "Figure 3",
		Title:    "Loh-Hill vs Alloy vs BW-Opt: Bloat Factor, hit latency, speedup over no-DRAM-cache",
		About:    "16 rate workloads; dramcache/{lohhill,alloy} with Ideal knob; paper: bloat 7.3x/3.8x/1.0x",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(fig3)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "BloatFactor", "HitLatency", "Speedup-vs-NoL4")
			for _, v := range fig3 {
				a := aggRate(res, v.s, trace.RateNames())
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				t.row(v.name, f2(a.BloatFactor()), cyc(a.AvgHitLatency()), f3(g))
			}
			t.write(w)
			return nil
		},
	})

	fig4 := []variant{{name: "Alloy", s: specAlloy}, {name: "BW-Opt", s: specBWOpt}}
	register(Experiment{
		ID:       "fig4",
		Artifact: "Figure 4",
		Title:    "Alloy bandwidth breakdown vs BW-Opt, and potential performance",
		About:    "16 rate workloads; stats six-way breakdown; paper: Alloy 3.8x total (Hit 1.25), +22% potential",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(fig4)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "Hit", "MissProbe", "MissFill", "WBProbe", "WBUpdate", "WBFill", "Total")
			for _, v := range fig4 {
				a := aggRate(res, v.s, trace.RateNames())
				bloatRow(t, v.name, &a)
			}
			t.write(w)
			_, g := rateSpeedups(res, specBWOpt, specAlloy, trace.RateNames())
			fmt.Fprintf(w, "\nPotential performance (BW-Opt over Alloy, geomean): %.3f (paper: ~1.22)\n", g)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig5",
		Artifact: "Figure 5",
		Title:    "Naive Probabilistic Bypass (P=50%, P=90%): hit latency, hit rate, speedup",
		About:    "16 rate workloads; core/bab in naive mode; paper: -12% latency at P=90 but hit-rate losses (Gems, zeusmp) erase the gains",
		Units: func(Params) []UnitSpec {
			return rateUnits(trace.RateNames(), specAlloy, specPB(0.5), specPB(0.9))
		},
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "dHitLat50", "dHitLat90", "dHitRate50", "dHitRate90", "Speedup50", "Speedup90")
			var s50s, s90s []float64
			for _, name := range trace.RateNames() {
				base := res.Get(specAlloy.on(name))
				p50 := res.Get(specPB(0.5).on(name))
				p90 := res.Get(specPB(0.9).on(name))
				latRed := func(x *stats.Run) string {
					if base.L4.AvgHitLatency() == 0 {
						return "-"
					}
					return pct(1 - x.L4.AvgHitLatency()/base.L4.AvgHitLatency())
				}
				hrDelta := func(x *stats.Run) string {
					return fmt.Sprintf("%+.1fpp", 100*(x.L4.HitRate()-base.L4.HitRate()))
				}
				s50 := p50.Speedup(base)
				s90 := p90.Speedup(base)
				s50s, s90s = append(s50s, s50), append(s90s, s90)
				t.row(name, latRed(p50), latRed(p90), hrDelta(p50), hrDelta(p90), f3(s50), f3(s90))
			}
			t.row("GEOMEAN", "", "", "", "", f3(stats.GeoMean(s50s)), f3(stats.GeoMean(s90s)))
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig7",
		Artifact: "Figure 7",
		Title:    "Bandwidth-Aware Bypass: speedup over Alloy",
		About:    "16 rate workloads; core/bab set-dueling; paper: +5.1% average, up to +15%, no workload degraded",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specAlloy, specBAB()) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "Speedup", "HitRate-Alloy", "HitRate-BAB")
			var sp []float64
			for _, name := range trace.RateNames() {
				base := res.Get(specAlloy.on(name))
				bab := res.Get(specBAB().on(name))
				s := bab.Speedup(base)
				sp = append(sp, s)
				t.row(name, f3(s), pct(base.L4.HitRate()), pct(bab.L4.HitRate()))
			}
			t.row("GEOMEAN", f3(stats.GeoMean(sp)), "", "")
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig9",
		Artifact: "Figure 9",
		Title:    "DRAM Cache Presence on top of BAB: speedup over Alloy",
		About:    "16 rate workloads; core DCP bit in L3; paper: +4% over BAB (max +12.8% omnetpp, +11.3% gcc)",
		Units: func(Params) []UnitSpec {
			return rateUnits(trace.RateNames(), specAlloy, specBAB(), specBABDCP())
		},
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "BAB", "BAB+DCP")
			var a, b []float64
			for _, name := range trace.RateNames() {
				base := res.Get(specAlloy.on(name))
				sa := res.Get(specBAB().on(name)).Speedup(base)
				sb := res.Get(specBABDCP().on(name)).Speedup(base)
				a, b = append(a, sa), append(b, sb)
				t.row(name, f3(sa), f3(sb))
			}
			t.row("GEOMEAN", f3(stats.GeoMean(a)), f3(stats.GeoMean(b)))
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig11",
		Artifact: "Figure 11",
		Title:    "Neighboring Tag Cache on top of BAB+DCP: speedup over Alloy",
		About:    "16 rate workloads; core/ntc; paper: +2% over BAB+DCP, plus miss-latency reduction via squashed parallel accesses",
		Units: func(Params) []UnitSpec {
			return rateUnits(trace.RateNames(), specAlloy, specBAB(), specBABDCP(), specBEAR)
		},
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "BAB", "BAB+DCP", "BAB+DCP+NTC")
			var a, b, c []float64
			for _, name := range trace.RateNames() {
				base := res.Get(specAlloy.on(name))
				sa := res.Get(specBAB().on(name)).Speedup(base)
				sb := res.Get(specBABDCP().on(name)).Speedup(base)
				sc := res.Get(specBEAR.on(name)).Speedup(base)
				a, b, c = append(a, sa), append(b, sb), append(c, sc)
				t.row(name, f3(sa), f3(sb), f3(sc))
			}
			t.row("GEOMEAN", f3(stats.GeoMean(a)), f3(stats.GeoMean(b)), f3(stats.GeoMean(c)))
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig12",
		Artifact: "Figure 12",
		Title:    "Alloy vs BEAR vs BW-Opt across all workloads (RATE / MIX / ALL)",
		About:    "16 rate + MIX workloads; all modules; paper: BEAR +10.1%, BW-Opt +22% over Alloy",
		Units:    func(p Params) []UnitSpec { return allUnits(p, specAlloy, specBEAR, specBWOpt) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "Alloy", "BEAR", "BW-Opt")
			perBear, _ := rateSpeedups(res, specBEAR, specAlloy, trace.RateNames())
			perOpt, _ := rateSpeedups(res, specBWOpt, specAlloy, trace.RateNames())
			for _, name := range trace.RateNames() {
				t.row(name, "1.000", f3(perBear[name]), f3(perOpt[name]))
			}
			mixBear, _ := mixNormWS(p, res, specBEAR, specAlloy)
			mixOpt, _ := mixNormWS(p, res, specBWOpt, specAlloy)
			for m := 1; m <= p.Mixes; m++ {
				name := mixName(m)
				t.row(name, "1.000", f3(mixBear[name]), f3(mixOpt[name]))
			}
			rateB, mixB, allB := allGeomean(p, res, specBEAR, specAlloy)
			rateO, mixO, allO := allGeomean(p, res, specBWOpt, specAlloy)
			t.row("RATE", "1.000", f3(rateB), f3(rateO))
			t.row("MIX", "1.000", f3(mixB), f3(mixO))
			t.row("ALL", "1.000", f3(allB), f3(allO))
			t.write(w)
			fmt.Fprintf(w, "\nPaper: BEAR ALL54 = 1.101, BW-Opt = ~1.22\n")
			return nil
		},
	})

	tab4 := []variant{{name: "Alloy", s: specAlloy}, {name: "BEAR", s: specBEAR}}
	register(Experiment{
		ID:       "tab4",
		Artifact: "Table 4",
		Title:    "DRAM-cache hit rate and latencies: Alloy vs BEAR",
		About:    "16 rate workloads aggregate; paper: 63.2%->61.0% hit rate, 239->182 hit latency, 391->356 miss latency",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(tab4)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "HitRate", "HitLat", "MissLat", "AvgLat")
			for _, v := range tab4 {
				l := aggRate(res, v.s, trace.RateNames())
				t.row(v.name, pct(l.HitRate()), cyc(l.AvgHitLatency()), cyc(l.AvgMissLatency()), cyc(l.AvgLatency()))
			}
			t.write(w)
			return nil
		},
	})

	fig13 := []variant{
		{name: "(a) Alloy", s: specAlloy}, {name: "(b) BAB", s: specBAB()},
		{name: "(c) BAB+DCP", s: specBABDCP()}, {name: "(d) BEAR", s: specBEAR},
		{name: "(e) BW-Opt", s: specBWOpt},
	}
	register(Experiment{
		ID:       "fig13",
		Artifact: "Figure 13",
		Title:    "Bloat-factor breakdown: Alloy / BAB / BAB+DCP / BEAR / BW-Opt x RATE, MIX, ALL",
		About:    "Byte-weighted aggregate per scheme; paper: 3.8x baseline reduced 32% by BEAR",
		Units: func(p Params) []UnitSpec {
			return append(rateUnits(trace.RateNames(), specsOf(fig13)...), mixUnits(p, specsOf(fig13)...)...)
		},
		Render: func(p Params, res Results, w io.Writer) error {
			for _, group := range []string{"RATE", "MIX", "ALL"} {
				section(w, group)
				t := newTable("Scheme", "Hit", "MissProbe", "MissFill", "WBProbe", "WBUpdate", "WBFill", "Total")
				for _, v := range fig13 {
					var a stats.L4
					if group != "MIX" {
						ar := aggRate(res, v.s, trace.RateNames())
						addL4(&a, &ar)
					}
					if group != "RATE" {
						am := aggMix(p, res, v.s)
						addL4(&a, &am)
					}
					bloatRow(t, v.name, &a)
				}
				t.write(w)
			}
			return nil
		},
	})

	var fig14BW, fig14Cap []variant
	for _, ch := range []int{2, 4, 8} {
		al, be := specAlloy, specBEAR
		al.L4Channels, be.L4Channels = ch, ch
		fig14BW = append(fig14BW, variant{fmt.Sprintf("%dx", ch*2), be, al})
	}
	for _, mb := range []int64{512, 1024, 2048} {
		al, be := specAlloy, specBEAR
		al.CapacityMB, be.CapacityMB = mb, mb
		fig14Cap = append(fig14Cap, variant{fmt.Sprintf("%.1fGB", float64(mb)/1024), be, al})
	}
	register(Experiment{
		ID:       "fig14",
		Artifact: "Figure 14",
		Title:    "Sensitivity to DRAM-cache bandwidth (4x/8x/16x) and capacity (0.5/1/2 GB)",
		About:    "16 rate workloads per point; BEAR normalized to Alloy at each configuration; paper: >10% everywhere",
		Units: func(Params) []UnitSpec {
			return rateUnits(trace.RateNames(), append(specsOf(fig14BW), specsOf(fig14Cap)...)...)
		},
		Render: func(p Params, res Results, w io.Writer) error {
			section(w, "(a) Bandwidth")
			ta := newTable("L4-Bandwidth", "Channels", "BEAR-vs-Alloy")
			for _, v := range fig14BW {
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				ta.row(v.name, v.s.L4Channels, f3(g))
			}
			ta.write(w)

			section(w, "(b) Capacity")
			tb := newTable("Capacity", "BEAR-vs-Alloy")
			for _, v := range fig14Cap {
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				tb.row(v.name, f3(g))
			}
			tb.write(w)
			return nil
		},
	})

	var fig15 []variant
	for _, per := range []int{16, 32, 64, 128, 256, 512} {
		al, be := specAlloy, specBEAR
		al.L4Banks, be.L4Banks = per, per
		fig15 = append(fig15, variant{fmt.Sprint(per * 4), be, al})
	}
	register(Experiment{
		ID:       "fig15",
		Artifact: "Figure 15",
		Title:    "Sensitivity to DRAM banks (64..2048 total)",
		About:    "16 rate workloads per point; paper: +11% at 64 banks flattening to +6% at >=512 (bus contention component)",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(fig15)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("TotalBanks", "PerChannel", "BEAR-vs-Alloy")
			for _, v := range fig15 {
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				t.row(v.name, v.s.L4Banks, f3(g))
			}
			t.write(w)
			return nil
		},
	})

	fig16 := []variant{
		{"Alloy", specAlloy, specAlloy}, {"BEAR", specBEAR, specAlloy},
		{"TIS", specTIS, specAlloy}, {"SC", specSC, specAlloy},
	}
	register(Experiment{
		ID:       "fig16",
		Artifact: "Figure 16",
		Title:    "Tags-In-SRAM (64MB) and Sector Cache (6MB) vs Alloy and BEAR",
		About:    "16 rate workloads; dramcache/{tis,sector}; paper: BEAR +10.1% > TIS +7.5% > Alloy > SC -18%",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(fig16)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "HitRate", "HitLat", "MissLat", "BloatFactor", "Speedup-vs-Alloy")
			for _, v := range fig16 {
				l := aggRate(res, v.s, trace.RateNames())
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				t.row(v.name, pct(l.HitRate()), cyc(l.AvgHitLatency()), cyc(l.AvgMissLatency()),
					f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			return nil
		},
	})

	fig17 := []variant{
		{"LH", specLH, specNoL4}, {"MC", specMC, specNoL4}, {"Alloy", specAlloy, specNoL4},
		{"Incl-Alloy", specIncl, specNoL4}, {"BEAR", specBEAR, specNoL4},
	}
	register(Experiment{
		ID:       "fig17",
		Artifact: "Figure 17",
		Title:    "DRAM-cache designs vs no-DRAM-cache: LH, MC, Alloy, Incl-Alloy, BEAR",
		About:    "RATE/MIX/ALL geomeans over no-L4 baseline; paper: 1.27 / 1.30 / 1.46 / 1.55 / 1.66",
		Units:    func(p Params) []UnitSpec { return allUnits(p, specsOf(fig17)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "RATE", "MIX", "ALL")
			for _, v := range fig17 {
				rate, mix, all := allGeomean(p, res, v.s, v.base)
				t.row(v.name, f3(rate), f3(mix), f3(all))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "tab2",
		Artifact: "Table 2",
		Title:    "Workload characteristics: target vs measured L3 MPKI",
		About:    "Validates the synthetic SPEC substitutes against Table 2",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specAlloy) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Workload", "TargetMPKI", "MeasuredMPKI", "Footprint", "Class", "L4HitRate")
			for _, b := range trace.Catalog {
				run := res.Get(specAlloy.on(b.Name))
				class := "Medium"
				if b.HighIntensive() {
					class = "High"
				}
				t.row(b.Name, fmt.Sprintf("%.1f", b.MPKI), fmt.Sprintf("%.1f", run.MPKI()),
					fmt.Sprintf("%dMB", b.FootprintMB), class, pct(run.L4.HitRate()))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "tab5",
		Artifact: "Table 5",
		Title:    "Storage overhead of BEAR",
		About:    "Computed from the full-scale Table 1 geometry; paper: 19.2K bytes total",
		Render: func(p Params, res Results, w io.Writer) error {
			sys := config.Default(1)
			o := core.ComputeOverhead(sys.Core.Count,
				int64(sys.L3.Bytes/sys.L3.LineBytes), sys.L4.Channels*sys.L4.Banks)
			fmt.Fprintln(w, o.String())
			return nil
		},
	})
}
