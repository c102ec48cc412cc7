// Command perfbench is the simulator's benchmark. It drives the simulator
// only through its public Go calls and measures what a researcher waits
// for: regenerating the golden figures (sweep-golden) and simulating one
// rate workload under all eleven DRAM-cache designs in steady state
// (steady-read).
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	perfbench --workload steady-read --seed 1 --seconds 30 --trace 0
//	perfbench compare a.json b.json
//
// Every run prints one "metric <name> = <value> <unit>" line per metric and
// ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer metrics. Every run also writes a full
// report, host block included, to --out. The exit code is 1 when any output
// check fails and 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
)

// workload is one benchmark input. Steady workloads simulate bench in rate
// mode under every design; sweep-golden regenerates the golden experiments
// and uses bench only for its set-up and per-layer sample.
type workload struct {
	name       string
	bench      string
	warm, meas uint64 // per-core instruction budgets (steady only)
	sweep      bool
}

var workloads = []workload{
	{name: "sweep-golden", bench: "xalanc", sweep: true},
	{name: "steady-read", bench: "mcf", warm: 30_000, meas: 100_000},
}

// scale is the steady workloads' machine scale (see config.Default).
const scale = 256

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// options is one benchmark invocation.
type options struct {
	w       workload
	seed    uint64
	seconds float64
	trace   bool
	root    string // repository root: goldens and sources are read from here
	out     string // report directory; "" writes no report
	self    string // this executable, re-run for the host probes; "" skips them

	// experiments and goldenDir override the sweep's experiment list and
	// golden directory (tests only).
	experiments []string
	goldenDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is everything one run measured. Metrics holds every number the run
// printed; Result.Metrics only those of the run's kind (end-to-end or
// per-layer) that BENCHMARK.json declares.
type report struct {
	Host     hostInfo          `json:"host"`
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Result   result            `json:"result"`
	Errors   []string          `json:"errors,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
	Spans    []span            `json:"spans,omitempty"`
}

// set records a metric that belongs on the final output line.
func (r *report) set(name string, v float64, unit string) {
	r.extra(name, v, unit)
	r.Result.Metrics[name] = metric{v, unit}
}

// extra records a metric that is printed and kept in the report only.
func (r *report) extra(name string, v float64, unit string) {
	r.Metrics[name] = metric{v, unit}
}

// attempt counts n checked outputs.
func (r *report) attempt(n int) { r.Result.Attempted += n }

// fail records one failed output check.
func (r *report) fail(format string, args ...any) {
	r.Result.Failed++
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "probe":
			os.Exit(probeMain(os.Stdout))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if exe, err := os.Executable(); err == nil {
		o.self = exe
	}
	os.Exit(run(o, os.Stdout))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	out := fs.String("out", ".bench_out", `report directory ("" for none)`)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return options{}, fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, root: ".", out: *out}, nil
}

// run executes one benchmark invocation and returns the exit code.
func run(o options, stdout io.Writer) int {
	rep := &report{
		Workload: o.w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		Result:  result{Metrics: map[string]metric{}},
		Metrics: map[string]metric{},
	}
	rep.Host = readHost(o.root)
	if o.self != "" {
		if err := hostProbes(o.self, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: host probe:", err)
			return 1
		}
	}
	var err error
	if o.w.sweep {
		err = runSweep(o, rep)
	} else {
		err = runSteady(o, rep)
	}
	if err != nil {
		// Set-up errors (unreadable goldens, unknown benchmark) leave
		// nothing to measure: no result line.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if rep.Result.Attempted > 0 {
		rep.extra("error_rate", float64(rep.Result.Failed)/float64(rep.Result.Attempted), "ratio")
	}
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
	if !o.trace {
		var ru syscall.Rusage
		if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
			rep.set("max_rss_mb", float64(ru.Maxrss)/1024, "MB")
		}
	}
	printReport(stdout, rep)
	if o.out != "" {
		if err := writeReport(o.out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

func printReport(w io.Writer, rep *report) {
	h := rep.Host
	fmt.Fprintf(w, "host cpu=%q nproc=%d gomaxprocs=%d go=%s revision=%s source=%.12s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.Go, h.Revision, h.Source)
	fmt.Fprintf(w, "workload %s seed=%d seconds=%g trace=%t\n", rep.Workload, rep.Seed, rep.Seconds, rep.Trace)
	for _, e := range rep.Errors {
		fmt.Fprintln(w, "error", e)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "metric %s = %.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "checks attempted=%d failed=%d\n", rep.Result.Attempted, rep.Result.Failed)
}

func writeReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, btoi(rep.Trace))
	return os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
