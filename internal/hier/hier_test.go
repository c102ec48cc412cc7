package hier

import (
	"testing"

	"bear/internal/config"
	"bear/internal/sram"
	"bear/internal/trace"
)

func smallCfg(d config.Design) config.System {
	cfg := config.Default(512).WithDesign(d)
	return cfg
}

func runSmall(t *testing.T, d config.Design, workload string, warm, meas uint64) (*Sim, func()) {
	t.Helper()
	cfg := smallCfg(d)
	wl, err := trace.Rate(workload, cfg.Core.Count, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, warm, meas)
	if err != nil {
		t.Fatal(err)
	}
	return sim, func() {}
}

func TestEndToEndAlloy(t *testing.T) {
	sim, _ := runSmall(t, config.Alloy, "omnetpp", 20000, 50000)
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 || r.Instructions != 8*50000 {
		t.Fatalf("run = cycles %d, instr %d", r.Cycles, r.Instructions)
	}
	if r.L3Misses == 0 {
		t.Fatal("no L3 misses simulated")
	}
	if r.L4.Reads() == 0 {
		t.Fatal("L4 never accessed")
	}
	if bf := r.L4.BloatFactor(); bf < 1.0 {
		t.Fatalf("bloat factor %v < 1 — accounting broken", bf)
	}
	if r.L4.AvgHitLatency() <= 0 {
		t.Fatal("hit latency not measured")
	}
}

func TestInclusionInvariant(t *testing.T) {
	sim, _ := runSmall(t, config.InclAlloy, "wrf", 10000, 30000)
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Every valid L3 line must be present in the inclusive L4 (modulo
	// lines filled after a racing back-invalidate, which the design
	// handles with a conservative probe; those should be rare).
	l4 := sim.Bundle.Cache
	total, missing := 0, 0
	sim.Hier.L3().Range(func(ln sram.Line) bool {
		total++
		if !l4.Contains(ln.Addr) {
			missing++
		}
		return true
	})
	if total == 0 {
		t.Fatal("empty L3 after run")
	}
	if float64(missing) > 0.02*float64(total) {
		t.Fatalf("inclusion violated for %d/%d L3 lines", missing, total)
	}
}

func TestNoL4StillWorks(t *testing.T) {
	sim, _ := runSmall(t, config.NoL4, "leslie", 5000, 20000)
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.L4.ReadHits != 0 {
		t.Fatal("NoL4 reported L4 hits")
	}
	if r.MemReadBytes == 0 {
		t.Fatal("no memory traffic")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() uint64 {
		sim, _ := runSmall(t, config.BEAR, "milc", 5000, 20000)
		r, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical configs produced %d and %d cycles", a, b)
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := smallCfg(config.Alloy)
		cfg.Seed = seed
		wl, _ := trace.Rate("milc", cfg.Core.Count, 512, seed)
		sim, err := NewSim(cfg, wl, 5000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical cycle counts (suspicious)")
	}
}

func TestWritebacksFlow(t *testing.T) {
	// A store-heavy workload must produce L3 writebacks and L4 writeback
	// traffic.
	sim, _ := runSmall(t, config.Alloy, "lbm", 10000, 40000)
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.L3Writebacks == 0 {
		t.Fatal("no L3 writebacks")
	}
	if r.L4.WBHits+r.L4.WBMisses == 0 {
		t.Fatal("no L4 writeback handling")
	}
}

func TestBEARReducesBloat(t *testing.T) {
	bloat := func(d config.Design) float64 {
		sim, _ := runSmall(t, d, "mcf", 20000, 60000)
		r, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		return r.L4.BloatFactor()
	}
	alloy, bear := bloat(config.Alloy), bloat(config.BEAR)
	if bear >= alloy {
		t.Fatalf("BEAR bloat %.2f not lower than Alloy %.2f", bear, alloy)
	}
}

func TestBWOptIsIdeal(t *testing.T) {
	sim, _ := runSmall(t, config.BWOpt, "soplex", 10000, 30000)
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.L4.ReadHits > 0 && r.L4.BloatFactor() != 1.0 {
		t.Fatalf("BW-Opt bloat = %v, want 1", r.L4.BloatFactor())
	}
}

func TestMixWorkload(t *testing.T) {
	cfg := smallCfg(config.Alloy)
	wl, err := trace.Mix(1, cfg.Core.Count, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, 5000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.CoreIPC) != 8 {
		t.Fatalf("mix run has %d core IPCs", len(r.CoreIPC))
	}
	for i, ipc := range r.CoreIPC {
		if ipc <= 0 || ipc > 2.0 {
			t.Fatalf("core %d IPC = %v out of range", i, ipc)
		}
	}
}

func TestEmptyWorkloadRejected(t *testing.T) {
	cfg := smallCfg(config.Alloy)
	if _, err := NewSim(cfg, trace.Workload{Name: "empty"}, 10, 10); err == nil {
		t.Fatal("empty workload accepted")
	}
}
