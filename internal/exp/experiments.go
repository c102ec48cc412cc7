package exp

import (
	"fmt"
	"io"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Named units used across experiments; the Rate/Mix/Single helpers fill
// in the workload.
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

// aggRate byte-weight-aggregates the named rate workloads under one unit.
// All the simulations run concurrently; the fold happens in names order.
func aggRate(r *Runner, s UnitSpec, names []string) (*aggregate, error) {
	futs := make([]Future, len(names))
	for i, name := range names {
		futs[i] = r.RateAsync(s, name)
	}
	var a aggregate
	for _, f := range futs {
		run, err := f.Wait()
		if err != nil {
			return nil, err
		}
		a.add(run)
	}
	return &a, nil
}

// aggMix aggregates the first n mixes.
func aggMix(r *Runner, s UnitSpec, n int) (*aggregate, error) {
	futs := make([]Future, n)
	for m := 1; m <= n; m++ {
		futs[m-1] = r.MixAsync(s, m)
	}
	var a aggregate
	for _, f := range futs {
		run, err := f.Wait()
		if err != nil {
			return nil, err
		}
		a.add(run)
	}
	return &a, nil
}

func init() {
	register(Experiment{
		ID:       "fig3",
		Artifact: "Figure 3",
		Title:    "Loh-Hill vs Alloy vs BW-Opt: Bloat Factor, hit latency, speedup over no-DRAM-cache",
		About:    "16 rate workloads; dramcache/{lohhill,alloy} with Ideal knob; paper: bloat 7.3x/3.8x/1.0x",
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specLH, specAlloy, specBWOpt, specNoL4}, trace.RateNames())
			t := newTable("Design", "BloatFactor", "HitLatency", "Speedup-vs-NoL4")
			for _, d := range []struct {
				name string
				s    UnitSpec
			}{{"LH", specLH}, {"Alloy", specAlloy}, {"BW-Opt", specBWOpt}} {
				a, err := aggRate(r, d.s, trace.RateNames())
				if err != nil {
					return err
				}
				_, g, err := r.rateSpeedups(d.s, specNoL4, trace.RateNames())
				if err != nil {
					return err
				}
				t.row(d.name, f2(a.l4.BloatFactor()), cyc(a.l4.AvgHitLatency()), f3(g))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig4",
		Artifact: "Figure 4",
		Title:    "Alloy bandwidth breakdown vs BW-Opt, and potential performance",
		About:    "16 rate workloads; stats six-way breakdown; paper: Alloy 3.8x total (Hit 1.25), +22% potential",
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBWOpt}, trace.RateNames())
			t := newTable("Design", "Hit", "MissProbe", "MissFill", "WBProbe", "WBUpdate", "WBFill", "Total")
			for _, d := range []struct {
				name string
				s    UnitSpec
			}{{"Alloy", specAlloy}, {"BW-Opt", specBWOpt}} {
				a, err := aggRate(r, d.s, trace.RateNames())
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(d.name,
					f2(l.CategoryFactor(stats.HitProbe)), f2(l.CategoryFactor(stats.MissProbe)),
					f2(l.CategoryFactor(stats.MissFill)), f2(l.CategoryFactor(stats.WBProbe)),
					f2(l.CategoryFactor(stats.WBUpdate)), f2(l.CategoryFactor(stats.WBFill)),
					f2(l.BloatFactor()))
			}
			t.write(w)
			_, g, err := r.rateSpeedups(specBWOpt, specAlloy, trace.RateNames())
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "\nPotential performance (BW-Opt over Alloy, geomean): %.3f (paper: ~1.22)\n", g)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig5",
		Artifact: "Figure 5",
		Title:    "Naive Probabilistic Bypass (P=50%, P=90%): hit latency, hit rate, speedup",
		About:    "16 rate workloads; core/bab in naive mode; paper: -12% latency at P=90 but hit-rate losses (Gems, zeusmp) erase the gains",
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specPB(0.5), specPB(0.9)}, trace.RateNames())
			t := newTable("Workload", "dHitLat50", "dHitLat90", "dHitRate50", "dHitRate90", "Speedup50", "Speedup90")
			var s50s, s90s []float64
			for _, name := range trace.RateNames() {
				base, err := r.Rate(specAlloy, name)
				if err != nil {
					return err
				}
				p50, err := r.Rate(specPB(0.5), name)
				if err != nil {
					return err
				}
				p90, err := r.Rate(specPB(0.9), name)
				if err != nil {
					return err
				}
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBAB()}, trace.RateNames())
			t := newTable("Workload", "Speedup", "HitRate-Alloy", "HitRate-BAB")
			var sp []float64
			for _, name := range trace.RateNames() {
				base, err := r.Rate(specAlloy, name)
				if err != nil {
					return err
				}
				bab, err := r.Rate(specBAB(), name)
				if err != nil {
					return err
				}
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBAB(), specBABDCP()}, trace.RateNames())
			t := newTable("Workload", "BAB", "BAB+DCP")
			var a, b []float64
			for _, name := range trace.RateNames() {
				base, err := r.Rate(specAlloy, name)
				if err != nil {
					return err
				}
				bab, err := r.Rate(specBAB(), name)
				if err != nil {
					return err
				}
				dcp, err := r.Rate(specBABDCP(), name)
				if err != nil {
					return err
				}
				sa, sb := bab.Speedup(base), dcp.Speedup(base)
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBAB(), specBABDCP(), specBEAR}, trace.RateNames())
			t := newTable("Workload", "BAB", "BAB+DCP", "BAB+DCP+NTC")
			var a, b, c []float64
			for _, name := range trace.RateNames() {
				base, err := r.Rate(specAlloy, name)
				if err != nil {
					return err
				}
				bab, err := r.Rate(specBAB(), name)
				if err != nil {
					return err
				}
				dcp, err := r.Rate(specBABDCP(), name)
				if err != nil {
					return err
				}
				ntc, err := r.Rate(specBEAR, name)
				if err != nil {
					return err
				}
				sa, sb, sc := bab.Speedup(base), dcp.Speedup(base), ntc.Speedup(base)
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBEAR, specBWOpt}, trace.RateNames())
			r.PrefetchMixWS([]UnitSpec{specAlloy, specBEAR, specBWOpt}, p.Mixes)
			t := newTable("Workload", "Alloy", "BEAR", "BW-Opt")
			perBear, _, err := r.rateSpeedups(specBEAR, specAlloy, trace.RateNames())
			if err != nil {
				return err
			}
			perOpt, _, err := r.rateSpeedups(specBWOpt, specAlloy, trace.RateNames())
			if err != nil {
				return err
			}
			for _, name := range trace.RateNames() {
				t.row(name, "1.000", f3(perBear[name]), f3(perOpt[name]))
			}
			mixBear, _, err := r.mixNormWS(specBEAR, specAlloy, p.Mixes)
			if err != nil {
				return err
			}
			mixOpt, _, err := r.mixNormWS(specBWOpt, specAlloy, p.Mixes)
			if err != nil {
				return err
			}
			for m := 1; m <= p.Mixes; m++ {
				name := fmt.Sprintf("MIX%d", m)
				t.row(name, "1.000", f3(mixBear[name]), f3(mixOpt[name]))
			}
			rateB, mixB, allB, err := r.allGeomean(specBEAR, specAlloy)
			if err != nil {
				return err
			}
			rateO, mixO, allO, err := r.allGeomean(specBWOpt, specAlloy)
			if err != nil {
				return err
			}
			t.row("RATE", "1.000", f3(rateB), f3(rateO))
			t.row("MIX", "1.000", f3(mixB), f3(mixO))
			t.row("ALL", "1.000", f3(allB), f3(allO))
			t.write(w)
			fmt.Fprintf(w, "\nPaper: BEAR ALL54 = 1.101, BW-Opt = ~1.22\n")
			return nil
		},
	})

	register(Experiment{
		ID:       "tab4",
		Artifact: "Table 4",
		Title:    "DRAM-cache hit rate and latencies: Alloy vs BEAR",
		About:    "16 rate workloads aggregate; paper: 63.2%->61.0% hit rate, 239->182 hit latency, 391->356 miss latency",
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBEAR}, trace.RateNames())
			t := newTable("Design", "HitRate", "HitLat", "MissLat", "AvgLat")
			for _, d := range []struct {
				name string
				s    UnitSpec
			}{{"Alloy", specAlloy}, {"BEAR", specBEAR}} {
				a, err := aggRate(r, d.s, trace.RateNames())
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(d.name, pct(l.HitRate()), cyc(l.AvgHitLatency()), cyc(l.AvgMissLatency()), cyc(l.AvgLatency()))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig13",
		Artifact: "Figure 13",
		Title:    "Bloat-factor breakdown: Alloy / BAB / BAB+DCP / BEAR / BW-Opt x RATE, MIX, ALL",
		About:    "Byte-weighted aggregate per scheme; paper: 3.8x baseline reduced 32% by BEAR",
		Run: func(p Params, w io.Writer, r *Runner) error {
			schemes := []struct {
				name string
				s    UnitSpec
			}{
				{"(a) Alloy", specAlloy},
				{"(b) BAB", specBAB()},
				{"(c) BAB+DCP", specBABDCP()},
				{"(d) BEAR", specBEAR},
				{"(e) BW-Opt", specBWOpt},
			}
			all := make([]UnitSpec, len(schemes))
			for i, sch := range schemes {
				all[i] = sch.s
			}
			r.PrefetchRate(all, trace.RateNames())
			r.PrefetchMix(all, p.Mixes)
			for _, group := range []string{"RATE", "MIX", "ALL"} {
				section(w, group)
				t := newTable("Scheme", "Hit", "MissProbe", "MissFill", "WBProbe", "WBUpdate", "WBFill", "Total")
				for _, sch := range schemes {
					var a aggregate
					if group == "RATE" || group == "ALL" {
						ar, err := aggRate(r, sch.s, trace.RateNames())
						if err != nil {
							return err
						}
						a.l4 = ar.l4
					}
					if group == "MIX" || group == "ALL" {
						am, err := aggMix(r, sch.s, p.Mixes)
						if err != nil {
							return err
						}
						if group == "MIX" {
							a.l4 = am.l4
						} else {
							for i := range a.l4.Bytes {
								a.l4.Bytes[i] += am.l4.Bytes[i]
							}
							a.l4.ReadHits += am.l4.ReadHits
							a.l4.ReadMisses += am.l4.ReadMisses
						}
					}
					l := &a.l4
					t.row(sch.name,
						f2(l.CategoryFactor(stats.HitProbe)), f2(l.CategoryFactor(stats.MissProbe)),
						f2(l.CategoryFactor(stats.MissFill)), f2(l.CategoryFactor(stats.WBProbe)),
						f2(l.CategoryFactor(stats.WBUpdate)), f2(l.CategoryFactor(stats.WBFill)),
						f2(l.BloatFactor()))
				}
				t.write(w)
			}
			return nil
		},
	})

	register(Experiment{
		ID:       "fig14",
		Artifact: "Figure 14",
		Title:    "Sensitivity to DRAM-cache bandwidth (4x/8x/16x) and capacity (0.5/1/2 GB)",
		About:    "16 rate workloads per point; BEAR normalized to Alloy at each configuration; paper: >10% everywhere",
		Run: func(p Params, w io.Writer, r *Runner) error {
			var variants []UnitSpec
			for _, ch := range []int{2, 4, 8} {
				al, be := specAlloy, specBEAR
				al.L4Channels, be.L4Channels = ch, ch
				variants = append(variants, al, be)
			}
			for _, mb := range []int64{512, 1024, 2048} {
				al, be := specAlloy, specBEAR
				al.CapacityMB, be.CapacityMB = mb, mb
				variants = append(variants, al, be)
			}
			r.PrefetchRate(variants, trace.RateNames())
			section(w, "(a) Bandwidth")
			ta := newTable("L4-Bandwidth", "Channels", "BEAR-vs-Alloy")
			for _, ch := range []int{2, 4, 8} {
				al, be := specAlloy, specBEAR
				al.L4Channels, be.L4Channels = ch, ch
				_, g, err := r.rateSpeedups(be, al, trace.RateNames())
				if err != nil {
					return err
				}
				ta.row(fmt.Sprintf("%dx", ch*2), ch, f3(g))
			}
			ta.write(w)

			section(w, "(b) Capacity")
			tb := newTable("Capacity", "BEAR-vs-Alloy")
			for _, mb := range []int64{512, 1024, 2048} {
				al, be := specAlloy, specBEAR
				al.CapacityMB, be.CapacityMB = mb, mb
				_, g, err := r.rateSpeedups(be, al, trace.RateNames())
				if err != nil {
					return err
				}
				tb.row(fmt.Sprintf("%.1fGB", float64(mb)/1024), f3(g))
			}
			tb.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig15",
		Artifact: "Figure 15",
		Title:    "Sensitivity to DRAM banks (64..2048 total)",
		About:    "16 rate workloads per point; paper: +11% at 64 banks flattening to +6% at >=512 (bus contention component)",
		Run: func(p Params, w io.Writer, r *Runner) error {
			var variants []UnitSpec
			for _, per := range []int{16, 32, 64, 128, 256, 512} {
				al, be := specAlloy, specBEAR
				al.L4Banks, be.L4Banks = per, per
				variants = append(variants, al, be)
			}
			r.PrefetchRate(variants, trace.RateNames())
			t := newTable("TotalBanks", "PerChannel", "BEAR-vs-Alloy")
			for _, per := range []int{16, 32, 64, 128, 256, 512} {
				al, be := specAlloy, specBEAR
				al.L4Banks, be.L4Banks = per, per
				_, g, err := r.rateSpeedups(be, al, trace.RateNames())
				if err != nil {
					return err
				}
				t.row(per*4, per, f3(g))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig16",
		Artifact: "Figure 16",
		Title:    "Tags-In-SRAM (64MB) and Sector Cache (6MB) vs Alloy and BEAR",
		About:    "16 rate workloads; dramcache/{tis,sector}; paper: BEAR +10.1% > TIS +7.5% > Alloy > SC -18%",
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy, specBEAR, specTIS, specSC}, trace.RateNames())
			t := newTable("Design", "HitRate", "HitLat", "MissLat", "BloatFactor", "Speedup-vs-Alloy")
			for _, d := range []struct {
				name string
				s    UnitSpec
			}{{"Alloy", specAlloy}, {"BEAR", specBEAR}, {"TIS", specTIS}, {"SC", specSC}} {
				a, err := aggRate(r, d.s, trace.RateNames())
				if err != nil {
					return err
				}
				_, g, err := r.rateSpeedups(d.s, specAlloy, trace.RateNames())
				if err != nil {
					return err
				}
				l := &a.l4
				t.row(d.name, pct(l.HitRate()), cyc(l.AvgHitLatency()), cyc(l.AvgMissLatency()),
					f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			return nil
		},
	})

	register(Experiment{
		ID:       "fig17",
		Artifact: "Figure 17",
		Title:    "DRAM-cache designs vs no-DRAM-cache: LH, MC, Alloy, Incl-Alloy, BEAR",
		About:    "RATE/MIX/ALL geomeans over no-L4 baseline; paper: 1.27 / 1.30 / 1.46 / 1.55 / 1.66",
		Run: func(p Params, w io.Writer, r *Runner) error {
			designs := []UnitSpec{specNoL4, specLH, specMC, specAlloy, specIncl, specBEAR}
			r.PrefetchRate(designs, trace.RateNames())
			r.PrefetchMixWS(designs, p.Mixes)
			t := newTable("Design", "RATE", "MIX", "ALL")
			for _, d := range []struct {
				name string
				s    UnitSpec
			}{
				{"LH", specLH}, {"MC", specMC}, {"Alloy", specAlloy},
				{"Incl-Alloy", specIncl}, {"BEAR", specBEAR},
			} {
				rate, mix, all, err := r.allGeomean(d.s, specNoL4)
				if err != nil {
					return err
				}
				t.row(d.name, f3(rate), f3(mix), f3(all))
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			r.PrefetchRate([]UnitSpec{specAlloy}, trace.RateNames())
			t := newTable("Workload", "TargetMPKI", "MeasuredMPKI", "Footprint", "Class", "L4HitRate")
			for _, b := range trace.Catalog {
				run, err := r.Rate(specAlloy, b.Name)
				if err != nil {
					return err
				}
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
		Run: func(p Params, w io.Writer, r *Runner) error {
			sys := config.Default(1)
			o := core.ComputeOverhead(sys.Core.Count,
				int64(sys.L3.Bytes/sys.L3.LineBytes), sys.L4.Channels*sys.L4.Banks)
			fmt.Fprintln(w, o.String())
			return nil
		},
	})
}
