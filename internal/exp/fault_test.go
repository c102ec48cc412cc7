package exp

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bear/internal/config"
	"bear/internal/fault"
	"bear/internal/hier"
	"bear/internal/trace"
)

// panicSource is a workload stub whose very first op panics, injecting a
// fault deep inside a worker's simulation.
type panicSource struct{}

func (panicSource) Next(op *trace.Op) {
	panic(fault.Invariantf("trace", "injected fault"))
}

func boomWorkload(cores int) *trace.Workload {
	srcs := make([]trace.Source, cores)
	for i := range srcs {
		srcs[i] = panicSource{}
	}
	return &trace.Workload{Name: "boom", Sources: srcs}
}

// TestRunnerSurvivesPanic pins the fault-isolation contract: a panicking
// unit fails its own future with a structured *SimError (unit identity +
// stack), the sweep's other units complete normally, and the failure is
// recorded for the failure table.
func TestRunnerSurvivesPanic(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	cores := config.Default(p.Scale).Core.Count

	good, err := r.UnitAsync(specAlloy.on("soplex"))
	if err != nil {
		t.Fatal(err)
	}
	bad, err := r.async(UnitSpec{Design: "Alloy", Workload: "boom"}, boomWorkload(cores))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := good.Wait(); err != nil {
		t.Fatalf("healthy unit failed alongside the faulty one: %v", err)
	}
	_, err = bad.Wait()
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("faulty unit returned %v, want *SimError", err)
	}
	if se.Workload != "boom" || se.Design != "Alloy" || se.Seed != p.Seed {
		t.Errorf("SimError identity wrong: %+v", se)
	}
	if !strings.Contains(se.Stack, "panicSource") {
		t.Errorf("SimError.Stack does not reach the panic site:\n%s", se.Stack)
	}
	// The typed panic value must stay classifiable through the recover.
	var inv *fault.Invariant
	if !errors.As(err, &inv) || inv.Component != "trace" {
		t.Errorf("cannot classify recovered panic as *fault.Invariant: %v", err)
	}

	fs := r.Failures()
	if len(fs) != 1 || fs[0].Workload != "boom" || fs[0].Design != "Alloy" {
		t.Fatalf("Failures() = %+v, want one entry for Alloy/boom", fs)
	}
	var buf bytes.Buffer
	r.WriteFailureTable(&buf)
	if !strings.Contains(buf.String(), "FAIL") || !strings.Contains(buf.String(), "boom") {
		t.Errorf("failure table missing the failed unit:\n%s", buf.String())
	}
}

// TestRunnerWatchdogFailure drives a watchdog trip through the Runner: the
// error must surface from Future.Wait still typed, and land in the failure
// table like any other unit failure.
func TestRunnerWatchdogFailure(t *testing.T) {
	p := tinyParams()
	p.Watchdog = hier.Watchdog{MaxCycles: 1000, CheckEvery: 64}
	r := NewRunner(p)
	_, err := r.RunUnit(specAlloy.on("soplex"))
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("RunUnit = %v, want *fault.WatchdogError", err)
	}
	if wd.Kind != fault.WatchdogCycleBudget {
		t.Errorf("Kind = %v, want %v", wd.Kind, fault.WatchdogCycleBudget)
	}
	if fs := r.Failures(); len(fs) != 1 {
		t.Errorf("Failures() = %+v, want the watchdog trip recorded", fs)
	}
}

// TestFailedExperimentWritesNothingOnWatchdogFault: an experiment whose
// units trip the watchdog returns the typed failure and prints no partial
// table.
func TestFailedExperimentWritesNothingOnWatchdogFault(t *testing.T) {
	p := tinyParams()
	p.Watchdog = hier.Watchdog{MaxCycles: 1000, CheckEvery: 64}
	e, err := ByID("fig13")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = e.Run(p, &buf, NewRunner(p))
	var wd *fault.WatchdogError
	if !errors.As(err, &wd) {
		t.Fatalf("fig13 = %v, want *fault.WatchdogError", err)
	}
	if buf.Len() != 0 {
		t.Errorf("failed experiment wrote %d bytes:\n%s", buf.Len(), buf.String())
	}
}

// TestCheckThroughRunner runs a unit with the invariant epochs enabled via
// Params and compares against a plain run: results must be identical.
func TestCheckThroughRunner(t *testing.T) {
	p := tinyParams()
	plain, err := NewRunner(p).RunUnit(specBEAR.on("soplex"))
	if err != nil {
		t.Fatal(err)
	}
	p.Watchdog.Check = true
	checked, err := NewRunner(p).RunUnit(specBEAR.on("soplex"))
	if err != nil {
		t.Fatalf("healthy run tripped -check: %v", err)
	}
	if plain.Cycles != checked.Cycles || plain.Instructions != checked.Instructions {
		t.Errorf("-check changed results: %d/%d cycles, %d/%d instructions",
			plain.Cycles, checked.Cycles, plain.Instructions, checked.Instructions)
	}
}
