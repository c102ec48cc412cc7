package exp

import (
	"fmt"
	"io"

	"bear/internal/config"
	"bear/internal/trace"
)

func init() {
	register(Experiment{
		ID:       "tab1",
		Artifact: "Table 1",
		Title:    "Baseline system configuration",
		About:    "The simulated machine (config.Default) at full scale and at the run scale",
		Render: func(p Params, res Results, w io.Writer) error {
			for _, sc := range []struct {
				label string
				scale int
			}{{"full scale (paper)", 1}, {fmt.Sprintf("run scale (1/%d)", p.Scale), p.Scale}} {
				sys := config.Default(sc.scale)
				section(w, sc.label)
				fmt.Fprintf(w, "cores            %d x %d-wide, window %d, %d MSHRs\n",
					sys.Core.Count, sys.Core.Width, sys.Core.Window, sys.Core.MSHRs)
				fmt.Fprintf(w, "L1 / L2          %d KB / %d KB per core\n",
					sys.L1.Bytes>>10, sys.L2.Bytes>>10)
				fmt.Fprintf(w, "L3 (LLC)         %d KB, %d-way, %d cycles\n",
					sys.L3.Bytes>>10, sys.L3.Ways, sys.L3.Latency)
				fmt.Fprintf(w, "DRAM cache       %d MB, %d ch x %d banks, %d B/cycle/ch\n",
					sys.CacheBytes>>20, sys.L4.Channels, sys.L4.Banks, sys.L4.BytesPerCycle)
				fmt.Fprintf(w, "main memory      %d ch x %d banks, %d B/cycle/ch (1/%dx L4 bandwidth)\n",
					sys.Mem.Channels, sys.Mem.Banks, sys.Mem.BytesPerCycle,
					sys.L4.TotalBandwidth()/sys.Mem.TotalBandwidth())
				fmt.Fprintf(w, "timings          tCAS/tRCD/tRP=%d, tRAS=%d, tFAW=%d, tREFI/tRFC=%d/%d cycles\n",
					sys.L4.TCAS, sys.L4.TRAS, sys.L4.TFAW, sys.L4.TREFI, sys.L4.TRFC)
			}
			return nil
		},
	})

	register(Experiment{
		ID:       "tab3",
		Artifact: "Table 3",
		Title:    "Mixed-workload compositions and intensity classes",
		About:    "The 8 detailed mixes plus the generated ones used for MIX aggregates",
		Render: func(p Params, res Results, w io.Writer) error {
			t := newTable("Mix", "Class", "Workloads")
			n := p.Mixes
			if n < 8 {
				n = 8
			}
			for m := 1; m <= n; m++ {
				wl, err := trace.Mix(m, cores(p), p.Scale, p.Seed)
				if err != nil {
					return err
				}
				names := ""
				for i, b := range wl.Benchs {
					if i > 0 {
						names += "-"
					}
					names += b.Name
				}
				t.row(wl.Name, trace.MixClass(wl), names)
			}
			t.write(w)
			return nil
		},
	})
}
