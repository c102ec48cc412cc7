package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as its own host-probe child process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "probe" {
		os.Exit(probeMain(os.Stdout))
	}
	os.Exit(m.Run())
}

// tiny is a steady workload with budgets small enough for a unit test.
var tiny = workload{name: "steady-tiny", bench: "xalanc", warm: 2_000, meas: 5_000}

// lastResult runs o and decodes the final output line.
func lastResult(t *testing.T, o options) (int, result) {
	t.Helper()
	var out bytes.Buffer
	code := run(o, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last output line is not a result: %v\n%s", err, out.String())
	}
	return code, res
}

// TestCorruptedGoldenFails shows the output check at work: tab4 regenerated
// against its intact golden passes, and against a copy with one byte
// changed it fails, exits non-zero and counts the failure.
func TestCorruptedGoldenFails(t *testing.T) {
	golden, err := os.ReadFile("../internal/exp/testdata/tab4.golden")
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := findWorkload("sweep-golden")
	for _, corrupt := range []bool{false, true} {
		dir := t.TempDir()
		b := append([]byte(nil), golden...)
		if corrupt {
			b[len(b)/2] ^= 1
		}
		if err := os.WriteFile(filepath.Join(dir, "tab4.golden"), b, 0o644); err != nil {
			t.Fatal(err)
		}
		code, res := lastResult(t, options{w: sweep, seed: 1, seconds: 0, root: "..",
			experiments: []string{"tab4"}, goldenDir: dir})
		if corrupt {
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Errorf("corrupted golden: exit %d, result %+v; want a failure", code, res)
			}
		} else if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("intact golden: exit %d, result %+v; want success", code, res)
		}
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	sort.Strings(endToEnd)
	sort.Strings(perLayer)
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for n := range m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestSteadyReportsDeclaredMetrics runs a tiny steady workload untraced and
// traced. Both must pass their output checks (repeats, the watchdog pass
// and the traced pass reproduce every stats.Run) and print exactly the
// metrics BENCHMARK.json declares for their kind.
func TestSteadyReportsDeclaredMetrics(t *testing.T) {
	endToEnd, perLayer := benchmarkNames(t)
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		code, res := lastResult(t, options{w: tiny, seed: 3, seconds: 0, trace: traced, root: "..", self: self})
		if code != 0 || !res.Correct {
			t.Fatalf("trace=%t: exit %d, result %+v", traced, code, res)
		}
		want := endToEnd
		if traced {
			want = perLayer
		}
		if got := names(res.Metrics); strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("trace=%t metrics:\n got  %v\n want %v", traced, got, want)
		}
	}
}

func TestPermute(t *testing.T) {
	ids := []string{"a", "b", "c", "d"}
	if got := permute(ids, 1); strings.Join(got, "") != "abcd" {
		t.Errorf("seed 1 reordered: %v", got)
	}
	seen := map[string]bool{}
	for seed := uint64(1); seed <= 24; seed++ {
		seen[strings.Join(permute(ids, seed), "")] = true
	}
	if len(seen) != 24 {
		t.Errorf("24 seeds gave %d orders, want 24", len(seen))
	}
}

func TestCompareRefusesOtherHost(t *testing.T) {
	dir := t.TempDir()
	write := func(name, cpu string) string {
		rep := report{Host: hostInfo{CPU: cpu, NProc: 2}, Workload: "steady-read",
			Metrics: map[string]metric{"minstr_per_s": {Value: 4, Unit: "Minstr/s"}}}
		b, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, c := write("a", "cpu1"), write("b", "cpu1"), write("c", "cpu2")
	var out, errOut bytes.Buffer
	if code := compareMain([]string{a, b}, &out, &errOut); code != 0 {
		t.Errorf("same host: exit %d: %s", code, errOut.String())
	}
	if code := compareMain([]string{a, c}, &out, &errOut); code == 0 {
		t.Error("different hosts compared")
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"bear/internal/dram.(*Memory).kick": "bear/internal/dram",
		"runtime.mallocgc":                  "runtime",
		"main.(*timedSource).Next":          "main",
		"internal/runtime/maps.(*Map).Get":  "internal/runtime/maps",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
