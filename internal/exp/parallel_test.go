package exp

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bear/internal/stats"
	"bear/internal/trace"
)

// runExperiment executes one experiment on a fresh runner with the given
// parallelism and returns the artifact bytes, the runner, and any error.
func runExperiment(t *testing.T, id string, p Params, parallel int) (string, *Runner) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	r.Parallel = parallel
	var buf bytes.Buffer
	if err := e.Run(p, &buf, r); err != nil {
		t.Fatalf("%s (parallel=%d): %v", id, parallel, err)
	}
	return buf.String(), r
}

// TestDeterminismSerialVsParallel proves the core property of the sweep
// engine: a serial runner and a heavily parallel runner produce
// byte-identical artifact output, execute the same number of simulations,
// and memoise identical stats. Each simulation is deterministic (seeded
// RNG, totally ordered event queue) and results are folded in a fixed
// order, so parallelism must be unobservable in the output.
func TestDeterminismSerialVsParallel(t *testing.T) {
	p := tinyParams()
	for _, id := range []string{"tab4", "fig3"} {
		serialOut, serialR := runExperiment(t, id, p, 1)
		parallelOut, parallelR := runExperiment(t, id, p, 16)
		if serialOut != parallelOut {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serialOut, parallelOut)
		}
		if s, par := serialR.Count(), parallelR.Count(); s != par {
			t.Errorf("%s: simulation count differs: serial=%d parallel=%d", id, s, par)
		}
		// The memoised runs themselves must match value for value, not
		// just the formatted digits.
		s1, err := serialR.RunUnit(specAlloy.on("mcf"))
		if err != nil {
			t.Fatal(err)
		}
		s2, err := parallelR.RunUnit(specAlloy.on("mcf"))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%s: stats.Run for Alloy/mcf differs between serial and parallel runners", id)
		}
	}
}

// TestDeterminismMixWS covers the mix + single-program path (Equation 2):
// weighted speedups computed by a serial and a parallel runner must agree
// exactly, including the single-IPC denominators.
func TestDeterminismMixWS(t *testing.T) {
	p := tinyParams()
	var per [2]map[string]float64
	var geo [2]float64
	for i, parallel := range []int{1, 8} {
		r := NewRunner(p)
		r.Parallel = parallel
		res, err := r.collect("test", mixWSUnits(p, specAlloy, specBEAR))
		if err != nil {
			t.Fatal(err)
		}
		per[i], geo[i] = mixNormWS(p, res, specBEAR, specAlloy)
	}
	if !reflect.DeepEqual(per[0], per[1]) || geo[0] != geo[1] {
		t.Errorf("mixNormWS differs: serial=%v/%v parallel=%v/%v", per[0], geo[0], per[1], geo[1])
	}
}

// TestSingleflightDedup hammers one unit from many
// goroutines: every caller must get the same memoised result and the
// simulation must execute exactly once.
func TestSingleflightDedup(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	const callers = 16
	results := make([]*stats.Run, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.RunUnit(specAlloy.on("wrf"))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if n := r.Count(); n != 1 {
		t.Fatalf("16 concurrent identical requests ran %d simulations, want 1", n)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers received different result pointers")
		}
	}
}

// TestProgressLineAtomic runs a parallel sweep with logging enabled and
// checks every progress line arrived whole (mutex-guarded single write).
func TestProgressLineAtomic(t *testing.T) {
	p := tinyParams()
	r := NewRunner(p)
	r.Parallel = 8
	var buf safeBuffer
	r.Log = &buf
	if _, err := r.collect("test", rateUnits(trace.RateNames(), specAlloy)); err != nil {
		t.Fatal(err)
	}
	out := strings.TrimSuffix(buf.String(), "\n")
	if out == "" {
		t.Fatal("no progress output")
	}
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "  [") || !strings.Contains(line, "bloat=") {
			t.Errorf("malformed progress line %q", line)
		}
	}
	if got := len(strings.Split(out, "\n")); got != r.Count() {
		t.Errorf("progress lines = %d, simulations = %d", got, r.Count())
	}
}

// safeBuffer serialises writes, standing in for a line-buffered stderr.
type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRegisterDuplicatePanics guards the registry against two experiments
// claiming one id.
func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate register did not panic")
		}
	}()
	register(Experiment{ID: "fig3"})
}
