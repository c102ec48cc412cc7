package bear_test

import (
	"errors"
	"strings"
	"testing"

	"bear"
	"bear/internal/exp"
)

// quickCfg returns a configuration small enough for unit testing.
func quickCfg(d bear.Design) bear.Config {
	cfg := bear.DefaultConfig()
	cfg.Scale = 512
	cfg.Design = d
	cfg.WarmInstr = 20_000
	cfg.MeasInstr = 60_000
	return cfg
}

func TestRunRate(t *testing.T) {
	r, err := bear.RunRate(quickCfg(bear.Alloy), "omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.IPC <= 0 {
		t.Fatalf("result = %+v", r)
	}
	if r.L4HitRate <= 0 || r.L4HitRate > 1 {
		t.Fatalf("hit rate = %v", r.L4HitRate)
	}
	if r.BloatFactor < 1 {
		t.Fatalf("bloat = %v", r.BloatFactor)
	}
	if r.Workload != "omnetpp" || r.Design != "Alloy" {
		t.Fatalf("labels = %s/%s", r.Workload, r.Design)
	}
}

func TestRunRateUnknown(t *testing.T) {
	if _, err := bear.RunRate(quickCfg(bear.Alloy), "nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestOverrideRejected: BEAR's components are Alloy-family overrides; on
// BW-Opt the DCP bit has nothing to act on, so the run fails rather than
// returning the plain BW-Opt numbers.
func TestOverrideRejected(t *testing.T) {
	cfg := quickCfg(bear.BWOpt)
	cfg.UseDCP = true
	_, err := bear.RunRate(cfg, "mcf")
	var oe *exp.OverrideError
	if !errors.As(err, &oe) {
		t.Fatalf("BW-Opt with UseDCP: err = %v, want *exp.OverrideError", err)
	}
}

// TestPanicIsolated: a configuration the engine cannot build (a 1 MB
// cache at 1/1024 scale has no Alloy sets) fails as a classified
// simulation error instead of panicking out of the library.
func TestPanicIsolated(t *testing.T) {
	cfg := quickCfg(bear.Alloy)
	cfg.Scale = 1024
	cfg.CapacityMB = 1
	_, err := bear.RunRate(cfg, "mcf")
	var se *exp.SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *exp.SimError", err)
	}
}

func TestRunMix(t *testing.T) {
	r, err := bear.RunMix(quickCfg(bear.Alloy), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CoreIPC) != 8 {
		t.Fatalf("core IPCs = %d", len(r.CoreIPC))
	}
	if !strings.HasPrefix(r.Workload, "MIX") {
		t.Fatalf("workload label = %s", r.Workload)
	}
}

func TestRunSingle(t *testing.T) {
	r, err := bear.RunSingle(quickCfg(bear.Alloy), "wrf")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CoreIPC) != 1 {
		t.Fatalf("single run has %d cores", len(r.CoreIPC))
	}
}

func TestDeterminism(t *testing.T) {
	a, err := bear.RunRate(quickCfg(bear.BEAR), "milc")
	if err != nil {
		t.Fatal(err)
	}
	b, err := bear.RunRate(quickCfg(bear.BEAR), "milc")
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.BloatFactor != b.BloatFactor {
		t.Fatalf("non-deterministic: %d vs %d cycles", a.Cycles, b.Cycles)
	}
}

func TestHeadlineShape(t *testing.T) {
	// The paper's headline ordering on a writeback-heavy workload:
	// BW-Opt >= BEAR >= Alloy in performance, and BEAR reduces bloat.
	base, err := bear.RunRate(quickCfg(bear.Alloy), "omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	opt, err := bear.RunRate(quickCfg(bear.BWOpt), "omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	prop, err := bear.RunRate(quickCfg(bear.BEAR), "omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	if s := bear.Speedup(prop, base); s < 1.0 {
		t.Errorf("BEAR speedup over Alloy = %.3f, want >= 1", s)
	}
	if s := bear.Speedup(opt, base); s < 1.0 {
		t.Errorf("BW-Opt speedup over Alloy = %.3f, want >= 1", s)
	}
	if prop.BloatFactor >= base.BloatFactor {
		t.Errorf("BEAR bloat %.2f >= Alloy %.2f", prop.BloatFactor, base.BloatFactor)
	}
	if opt.BloatFactor != 1.0 {
		t.Errorf("BW-Opt bloat = %.2f", opt.BloatFactor)
	}
}

func TestBreakdownConsistency(t *testing.T) {
	r, err := bear.RunRate(quickCfg(bear.Alloy), "soplex")
	if err != nil {
		t.Fatal(err)
	}
	if diff := r.Breakdown.Total() - r.BloatFactor; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown total %.4f != bloat %.4f", r.Breakdown.Total(), r.BloatFactor)
	}
	if r.Breakdown.Hit < 1.24 || r.Breakdown.Hit > 1.26 {
		t.Fatalf("Alloy hit factor = %.3f, want 1.25 (80/64)", r.Breakdown.Hit)
	}
}

func TestSensitivityKnobs(t *testing.T) {
	cfg := quickCfg(bear.Alloy)
	cfg.L4Channels = 2
	lo, err := bear.RunRate(cfg, "libq")
	if err != nil {
		t.Fatal(err)
	}
	cfg.L4Channels = 8
	hi, err := bear.RunRate(cfg, "libq")
	if err != nil {
		t.Fatal(err)
	}
	if hi.Cycles > lo.Cycles {
		t.Errorf("more L4 bandwidth made libq slower: %d vs %d", hi.Cycles, lo.Cycles)
	}
}

func TestWeightedSpeedup(t *testing.T) {
	r := &bear.Result{CoreIPC: []float64{1, 1}}
	if ws := bear.WeightedSpeedup(r, []float64{2, 2}); ws != 1.0 {
		t.Fatalf("ws = %v", ws)
	}
}

func TestGeoMean(t *testing.T) {
	if g := bear.GeoMean([]float64{1, 4}); g < 1.99 || g > 2.01 {
		t.Fatalf("geomean = %v", g)
	}
}

func TestBenchmarksList(t *testing.T) {
	if got := bear.Benchmarks(); len(got) != 16 {
		t.Fatalf("%d benchmarks", len(got))
	}
}

func TestStorageOverhead(t *testing.T) {
	s := bear.StorageOverhead()
	for _, want := range []string{"Bandwidth-Aware Bypass", "DRAM Cache Presence", "Neighboring Tag Cache", "Total"} {
		if !strings.Contains(s, want) {
			t.Errorf("overhead table missing %q", want)
		}
	}
}

func TestDesignNames(t *testing.T) {
	for _, d := range bear.Designs() {
		if d.String() == "" {
			t.Errorf("design %d has no name", d)
		}
	}
}

func TestDescribe(t *testing.T) {
	r, err := bear.RunRate(quickCfg(bear.Alloy), "sphinx3")
	if err != nil {
		t.Fatal(err)
	}
	if s := bear.Describe(r); !strings.Contains(s, "sphinx3") {
		t.Errorf("Describe = %q", s)
	}
}
