package exp

import (
	"bytes"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/trace"
)

func TestRegistryComplete(t *testing.T) {
	// Every artifact from the paper's evaluation must be registered.
	want := []string{
		"fig3", "fig4", "fig5", "fig7", "fig9", "fig11", "fig12",
		"fig13", "fig14", "fig15", "fig16", "fig17", "tab2", "tab4", "tab5",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
		if e.Title == "" || e.Artifact == "" || e.About == "" || e.Run == nil {
			t.Errorf("experiment %s is missing metadata", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig3"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestMemoisation(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	if _, err := r.Rate(specAlloy, "wrf"); err != nil {
		t.Fatal(err)
	}
	n := r.Count()
	if _, err := r.Rate(specAlloy, "wrf"); err != nil {
		t.Fatal(err)
	}
	if r.Count() != n {
		t.Fatal("identical run not memoised")
	}
	// A different unit is a different run.
	if _, err := r.Rate(specBEAR, "wrf"); err != nil {
		t.Fatal(err)
	}
	if r.Count() != n+1 {
		t.Fatal("different unit hit the memo")
	}
}

func tinyParams() Params {
	return Params{Scale: 1024, Warm: 20_000, Meas: 50_000, Mixes: 1, Seed: 1}
}

func TestTab5Runs(t *testing.T) {
	e, _ := ByID("tab5")
	var buf bytes.Buffer
	if err := e.Run(tinyParams(), &buf, NewRunner(tinyParams())); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "19264") {
		t.Errorf("tab5 output missing total: %s", buf.String())
	}
}

func TestFig3RunsTiny(t *testing.T) {
	e, _ := ByID("fig3")
	var buf bytes.Buffer
	p := tinyParams()
	if err := e.Run(p, &buf, NewRunner(p)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LH", "Alloy", "BW-Opt", "BloatFactor"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig3 output missing %q:\n%s", want, out)
		}
	}
}

func TestTab4RunsTiny(t *testing.T) {
	e, _ := ByID("tab4")
	var buf bytes.Buffer
	p := tinyParams()
	if err := e.Run(p, &buf, NewRunner(p)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "BEAR") {
		t.Errorf("tab4 output:\n%s", buf.String())
	}
}

func TestSpecBuild(t *testing.T) {
	u := specBEAR
	u.Workload = "mcf"
	u.L4Channels = 8
	u.L4Banks = 32
	u.CapacityMB = 2048
	_, sys, err := u.build(Default())
	if err != nil {
		t.Fatal(err)
	}
	if sys.L4.Channels != 8 || sys.L4.Banks != 32 {
		t.Fatalf("overrides lost: %+v", sys.L4)
	}
	if sys.CacheBytes != 2048<<20/64 {
		t.Fatalf("capacity = %d", sys.CacheBytes)
	}
	if !sys.UseDCP || !sys.UseNTC {
		t.Fatal("BEAR unit lost components")
	}
}

func TestSpecKeysDistinct(t *testing.T) {
	// The memo cache keys on the canonical unit itself; every named unit
	// and ablation variant must resolve, and differ in at least one field,
	// or two configurations would share one simulation.
	keys := map[UnitSpec]bool{}
	for _, u := range []UnitSpec{
		specNoL4, specAlloy, specBEAR, specBWOpt, specLH, specMC, specIncl, specTIS, specSC,
		specBanshee, specTicToc, specPB(0.5), specPB(0.9), specBAB(), specBABDCP(),
		{Design: "BEAR", NTCEntries: 16},
		{Design: "Alloy", Pred: config.PredPerfect},
		{Design: "Alloy", Pred: config.PredAlwaysHit},
		{Design: "Alloy", WBAllocate: true},
		{Design: "Alloy", TTC: true},
		{Design: "Alloy", NTC: true, TTC: true},
		{Design: "Alloy", Bypass: config.DeadBlockBypass},
		{Design: "Alloy", Bypass: config.UpdateBypass},
		{Design: "LH", LHDIP: true},
		{Design: "TIS", TISDIP: true},
	} {
		u.Workload = "x"
		k, err := u.resolve()
		if err != nil {
			t.Fatalf("%+v: %v", u, err)
		}
		if keys[k] {
			t.Fatalf("duplicate unit key %+v", k)
		}
		keys[k] = true
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	tb := newTable("A", "LongHeader")
	tb.row("x", 1.5)
	tb.row("longer-label", 2)
	tb.write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), buf.String())
	}
}

func TestAggregateCombines(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	a, err := aggRate(r, specAlloy, trace.RateNames())
	if err != nil {
		t.Fatal(err)
	}
	if a.l4.Reads() == 0 || a.l4.TotalBytes() == 0 {
		t.Fatal("aggregate empty")
	}
	if bf := a.l4.BloatFactor(); bf < 1 {
		t.Fatalf("aggregate bloat %v < 1", bf)
	}
}
