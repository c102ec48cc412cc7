package exp

// Cross-paper experiments: the granularity axis. BEAR's designs are all
// line-grained (64 B allocation units); Banshee (Yu et al.) and TicToc
// (Young et al.) attack the same tag- and fill-bandwidth bloat by moving to
// page-grained (4 KB) allocation with on-chip tags. The xgran experiment
// puts the four designs side by side on BEAR's own bandwidth-bloat
// decomposition, which makes the trade visible in one table: page tags
// erase the probe categories but Banshee's whole-page fills re-inflate
// Miss-Fill (throttled by FBR admission), while TicToc's demand fills keep
// Miss-Fill line-grained and pay a residual tag-check probe instead.

import (
	"fmt"
	"io"

	"bear/internal/stats"
	"bear/internal/trace"
)

func init() {
	designs := []variant{
		{"Alloy", specAlloy, specAlloy},
		{"BEAR", specBEAR, specAlloy},
		{"Banshee", specBanshee, specAlloy},
		{"TicToc", specTicToc, specAlloy},
	}
	register(Experiment{
		ID:       "xgran",
		Artifact: "Cross-paper",
		Title:    "Granularity axis: line-grained Alloy/BEAR vs page-grained Banshee/TicToc",
		About:    "16 rate workloads; dramcache/{alloy,page,banshee,tictoc}; bloat decomposition plus speedup over Alloy",
		Units:    func(Params) []UnitSpec { return rateUnits(trace.RateNames(), specsOf(designs)...) },
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Design", "HitRate", "Hit", "MissProbe", "MissFill", "VictimRd", "WBProbe", "WBUpdate", "Total", "Speedup-vs-Alloy")
			for _, v := range designs {
				l := aggRate(res, v.s, trace.RateNames())
				_, g := rateSpeedups(res, v.s, v.base, trace.RateNames())
				t.row(v.name, pct(l.HitRate()),
					f2(l.CategoryFactor(stats.HitProbe)), f2(l.CategoryFactor(stats.MissProbe)),
					f2(l.CategoryFactor(stats.MissFill)), f2(l.CategoryFactor(stats.VictimRead)),
					f2(l.CategoryFactor(stats.WBProbe)), f2(l.CategoryFactor(stats.WBUpdate)),
					f2(l.BloatFactor()), f3(g))
			}
			t.write(w)
			fmt.Fprintln(w, "\nReading: page tags empty the probe columns; Banshee trades them for")
			fmt.Fprintln(w, "FBR-throttled page fills (Miss-Fill), TicToc for a residual tag-check")
			fmt.Fprintln(w, "probe on uncached mappings. Victim-Rd scales with each page's dirty mask.")
			return nil
		},
	})
}
