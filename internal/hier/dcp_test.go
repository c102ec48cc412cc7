package hier

import (
	"testing"

	"bear/internal/config"
	"bear/internal/dramcache"
	"bear/internal/event"
	"bear/internal/sram"
	"bear/internal/trace"
)

// babDCP is Alloy with BAB and DCP but no NTC: the Figure 7/9 ablation, the
// only system besides BEAR that the experiments run with DCP.
func babDCP(scale int) config.System {
	cfg := config.Default(scale).WithDesign(config.Alloy)
	cfg.Bypass = config.BandwidthAware
	cfg.UseDCP = true
	return cfg
}

// bansheeDCP forces DCP onto page-grained Banshee, so the per-line OnEvict
// loop of a page eviction still runs under test.
func bansheeDCP(scale int) config.System {
	cfg := config.Default(scale).WithDesign(config.Banshee)
	cfg.UseDCP = true
	return cfg
}

// evictLog records the L4 evictions reported through OnEvict.
type evictLog struct {
	fired int
	// raced holds lines evicted while an L3 miss for them was in flight.
	// That miss's fill still carries the presence the L4 reported at issue,
	// so it can install a stale "present" bit (a known DCP defect, listed
	// in ROADMAP.md).
	raced map[uint64]bool
}

// newCountingSim builds a simulation of cfg whose L4 reports evictions
// through a logging wrapper around the hierarchy's OnEvict hook. The
// wrapper wraps only an installed hook: a nil hook stays nil, so designs
// keep skipping their per-line eviction work exactly as in production.
func newCountingSim(t *testing.T, cfg config.System, workload string, warm, meas uint64) (*Sim, *evictLog) {
	t.Helper()
	wl, err := trace.Rate(workload, cfg.Core.Count, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSim(cfg, wl, warm, meas)
	if err != nil {
		t.Fatal(err)
	}
	log := &evictLog{raced: map[uint64]bool{}}
	hooks := sim.Hier.Hooks()
	if inner := hooks.OnEvict; inner != nil {
		hooks.OnEvict = func(line uint64) {
			log.fired++
			if sim.Hier.pending.get(line) != nil {
				log.raced[line] = true
			}
			inner(line)
		}
	}
	// Swap in an L4 built with the wrapped hooks. Nothing has run yet and
	// building a bundle schedules no events, so the discarded one leaves
	// no trace; prewarm again to fill the new L4.
	bundle, err := dramcache.Build(cfg, sim.Q, hooks)
	if err != nil {
		t.Fatal(err)
	}
	sim.Bundle = bundle
	sim.Hier.AttachL4(bundle.Cache)
	sim.prewarm()
	return sim, log
}

// TestL4EvictHookFollowsDCP pins the hook contract: OnEvict is installed
// exactly when the system runs DCP, OnBackInvalidate always.
func TestL4EvictHookFollowsDCP(t *testing.T) {
	var systems []config.System
	for d := config.NoL4; d <= config.TicToc; d++ {
		systems = append(systems, config.Default(256).WithDesign(d))
	}
	systems = append(systems, babDCP(256))
	dcp := 0
	for _, cfg := range systems {
		hooks := New(cfg, &event.Queue{}, cfg.Core.Count).Hooks()
		if got := hooks.OnEvict != nil; got != cfg.UseDCP {
			t.Errorf("%v (UseDCP=%v): OnEvict installed = %v", cfg.Design, cfg.UseDCP, got)
		}
		if hooks.OnBackInvalidate == nil {
			t.Errorf("%v: OnBackInvalidate not installed", cfg.Design)
		}
		if cfg.UseDCP {
			dcp++
		}
	}
	if dcp != 2 {
		t.Fatalf("%d systems run DCP, want 2 (BEAR and Alloy+BAB+DCP)", dcp)
	}
}

// TestDCPBitMatchesL4State checks, for every way a system can run DCP, that
// each L3 line with a known DCP bit agrees with the L4's functional state —
// the guarantee that lets BEAR skip writeback probes — on an eviction-heavy
// workload with the engine invariant checks on. Two known defects (see
// ROADMAP.md) are told apart rather than counted as violations: a line
// evicted while its own miss was in flight may claim "present", and a
// whole-page fill installs neighbouring lines without clearing their
// on-chip "absent" bits, so absent claims are not checked for Banshee.
// Any other mismatch fails.
func TestDCPBitMatchesL4State(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         config.System
		checkAbsent bool
	}{
		{"BEAR", smallCfg(config.BEAR), true},
		{"Alloy+BAB+DCP", babDCP(512), true},
		{"Banshee+DCP", bansheeDCP(512), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, log := newCountingSim(t, tc.cfg, "mcf", 10000, 30000)
			sim.Watchdog.Check = true
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
			if log.fired == 0 {
				t.Fatal("OnEvict never fired")
			}
			l4 := sim.Bundle.Cache
			checked, raced, violations := 0, 0, 0
			sim.Hier.L3().Range(func(ln sram.Line) bool {
				if ln.Aux&auxKnown == 0 {
					return true
				}
				checked++
				present, inL4 := ln.Aux&auxPresent != 0, l4.Contains(ln.Addr)
				switch {
				case present == inL4:
				case present && log.raced[ln.Addr]:
					raced++
				case present || tc.checkAbsent:
					violations++
				}
				return true
			})
			if checked == 0 {
				t.Fatal("no L3 lines carried DCP state")
			}
			if violations != 0 {
				t.Fatalf("DCP bit wrong for %d/%d lines", violations, checked)
			}
			t.Logf("%d evictions, %d/%d lines stale after a racing eviction", log.fired, raced, checked)
		})
	}
}

// TestL4EvictHookFiresOnlyUnderDCP is the deterministic guard for the
// eviction fan-out cost: designs without DCP must never call into the
// hierarchy on an L4 eviction, even though they evict plenty, while BEAR
// must.
func TestL4EvictHookFiresOnlyUnderDCP(t *testing.T) {
	for _, tc := range []struct {
		d    config.Design
		want bool
	}{
		{config.Banshee, false},
		{config.Alloy, false},
		{config.BEAR, true},
	} {
		sim, log := newCountingSim(t, smallCfg(tc.d), "mcf", 2000, 5000)
		r, err := sim.Run()
		if err != nil {
			t.Fatalf("%v: %v", tc.d, err)
		}
		if r.L4.Fills == 0 {
			t.Fatalf("%v: no L4 fills, so nothing was evicted", tc.d)
		}
		if got := log.fired > 0; got != tc.want {
			t.Errorf("%v: OnEvict fired %d times, want fired = %v", tc.d, log.fired, tc.want)
		}
	}
}
