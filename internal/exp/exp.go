// Package exp implements the paper's evaluation: one registered experiment
// per table and figure, each regenerating the corresponding rows from live
// simulations. cmd/bearbench and the repository's bench harness drive this
// registry.
//
// An experiment is declarative: Units lists the simulations its artifact
// reads, and Render is arithmetic over their results. Experiment.Run
// starts every declared unit on the Runner's bounded worker pool, waits
// for all of them, and only then renders. Every simulation is independent
// and deterministic (seeded RNG, totally ordered event queue), and Render
// never sees how the units were scheduled, so parallel and serial sweeps
// are byte-identical.
package exp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"

	"bear/internal/config"
	"bear/internal/event"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// Params controls simulation sizes for every experiment.
type Params struct {
	// Scale divides the paper's machine and footprints (see config).
	Scale int
	// Warm and Meas are per-core instruction budgets.
	Warm, Meas uint64
	// Mixes is how many MIX workloads aggregate into MIX/ALL results
	// (the paper uses 38; 8 keeps runs short).
	Mixes int
	Seed  uint64
	// Watchdog bounds every simulation the Runner executes (see
	// hier.Watchdog). The zero value applies the default thresholds; it
	// is not part of the result-store fingerprint because the monitors
	// never change results, only whether a wedged run dies cleanly.
	Watchdog hier.Watchdog
}

// Fingerprint identifies the result-affecting parameters plus a caller
// context string (typically the build's VCS revision). Stored results are
// reused only when fingerprints match exactly, so a store populated by a
// different code version or parameter set is discarded, not trusted.
func (p Params) Fingerprint(extra string) string {
	return fmt.Sprintf("v1|scale=%d|warm=%d|meas=%d|mixes=%d|seed=%d|%s",
		p.Scale, p.Warm, p.Meas, p.Mixes, p.Seed, extra)
}

// Default returns parameters that reproduce the paper's shapes in a few
// minutes per experiment.
func Default() Params {
	return Params{Scale: 64, Warm: 600_000, Meas: 1_200_000, Mixes: 8, Seed: 1}
}

// Quick returns parameters for smoke-testing experiments in seconds.
func Quick() Params {
	return Params{Scale: 256, Warm: 100_000, Meas: 250_000, Mixes: 2, Seed: 1}
}

// Experiment regenerates one paper artifact.
type Experiment struct {
	ID       string
	Title    string
	Artifact string // "Figure 3", "Table 4", ...
	About    string // workloads, parameters and modules exercised

	// Units lists every simulation Render reads. It is nil for artifacts
	// computed from the configuration alone.
	Units func(p Params) []UnitSpec
	// Render writes the artifact from the declared units' results; it
	// runs no simulation. Reading a unit Units did not declare fails the
	// experiment with *UndeclaredUnitError.
	Render func(p Params, res Results, w io.Writer) error
}

// Run simulates every unit the experiment declares on r, waits for all of
// them, and renders the artifact into w. If a unit fails, Run returns the
// first failure in declared order and writes nothing: w receives the
// artifact only once it has rendered whole.
func (e Experiment) Run(p Params, w io.Writer, r *Runner) error {
	var units []UnitSpec
	if e.Units != nil {
		units = e.Units(p)
	}
	res, err := r.collect(e.ID, units)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := e.render(p, res, &buf); err != nil {
		return err
	}
	_, err = w.Write(buf.Bytes())
	return err
}

// render calls Render, returning a read of an undeclared unit as its
// error. Any other panic is not the render's to classify.
func (e Experiment) render(p Params, res Results, w io.Writer) (err error) {
	defer func() {
		if v := recover(); v != nil {
			ue, ok := v.(*UndeclaredUnitError)
			if !ok {
				panic(v)
			}
			err = ue
		}
	}()
	return e.Render(p, res, w)
}

// Results holds the runs of an experiment's declared units, keyed by
// canonical unit. Get is its only accessor.
type Results struct {
	exp  string
	runs map[UnitSpec]*stats.Run
}

// Get returns the run of unit u. A unit the experiment did not declare
// panics with *UndeclaredUnitError, which Experiment.Run returns as the
// experiment's error.
func (res Results) Get(u UnitSpec) *stats.Run {
	if key, err := u.resolve(); err == nil {
		if run, ok := res.runs[key]; ok {
			return run
		}
	}
	panic(&UndeclaredUnitError{Experiment: res.exp, Unit: u})
}

// UndeclaredUnitError reports a render reading a unit its experiment's
// Units did not declare.
type UndeclaredUnitError struct {
	Experiment string
	Unit       UnitSpec
}

func (e *UndeclaredUnitError) Error() string {
	return fmt.Sprintf("exp: %s reads unit %+v, which its Units does not declare", e.Experiment, e.Unit)
}

var (
	registry []Experiment
	byID     = map[string]Experiment{}
)

func register(e Experiment) {
	if _, dup := byID[e.ID]; dup {
		panic("exp: duplicate experiment id " + e.ID)
	}
	byID[e.ID] = e
	registry = append(registry, e)
}

// All returns the registered experiments in paper order.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	if e, ok := byID[id]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists all experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// task is one memoised simulation: created exactly once per canonical unit
// (singleflight), executed on the worker pool, awaited by any number of
// futures.
type task struct {
	res  *stats.Run
	err  error
	done chan struct{}
}

// Future is a handle to an in-flight (or completed) simulation.
type Future struct{ t *task }

// Wait blocks until the simulation completes and returns its result.
func (f Future) Wait() (*stats.Run, error) {
	<-f.t.done
	return f.t.res, f.t.err
}

// Runner executes simulations with memoisation, so experiments sharing a
// configuration (every figure reuses the Alloy baseline) run it once — and
// with a bounded worker pool, so independent simulations run concurrently.
//
// Requesting the same unit twice — even from two goroutines at once —
// shares one in-flight simulation (singleflight). Results are collected
// by callers in a deterministic order, and each simulation is itself
// deterministic, so runs at any Parallel setting are byte-identical.
type Runner struct {
	p Params

	// Parallel bounds concurrently executing simulations. NewRunner sets
	// it to runtime.GOMAXPROCS(0); set it to 1 (before the first request)
	// for a strictly serial sweep.
	Parallel int

	// Log, when non-nil, receives one line per completed simulation.
	// Lines are written atomically (single Write under a mutex), so
	// worker output never interleaves mid-line.
	Log io.Writer

	// Store, when non-nil, is consulted before simulating and updated
	// after: completed units are restored instead of re-simulated, which
	// makes interrupted sweeps resumable. Set before the first request.
	Store *Store

	mu          sync.Mutex
	memo        map[UnitSpec]*task // keyed by canonical unit
	sem         chan struct{}      // worker slots, sized from Parallel on first use
	count       int
	restored    int
	interrupted bool
	failures    map[UnitSpec]Failure

	logMu  sync.Mutex
	queues sync.Pool // *event.Queue, reused across simulations per worker
}

// NewRunner builds a runner for the given parameters, parallel across
// runtime.GOMAXPROCS(0) workers by default.
func NewRunner(p Params) *Runner {
	return &Runner{
		p:        p,
		Parallel: runtime.GOMAXPROCS(0),
		memo:     make(map[UnitSpec]*task),
		failures: make(map[UnitSpec]Failure),
	}
}

// Count reports how many simulations have actually executed (memo hits,
// deduplicated in-flight requests and store-restored results do not run).
func (r *Runner) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Restored reports how many results were served from the Store instead of
// being simulated.
func (r *Runner) Restored() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.restored
}

func (r *Runner) progress(format string, args ...any) {
	if r.Log == nil {
		return
	}
	r.logMu.Lock()
	defer r.logMu.Unlock()
	fmt.Fprintf(r.Log, format, args...)
}

// failed returns a completed task that carries err.
func failed(err error) *task {
	t := &task{err: err, done: make(chan struct{})}
	close(t.done)
	return t
}

// start returns the task for the canonical unit key, launching the
// simulation of sys on the worker pool if this is the first request for
// that key. The simulation runs on wl when it is given, else on the
// workload key names.
func (r *Runner) start(key UnitSpec, sys config.System, wl *trace.Workload) *task {
	r.mu.Lock()
	if t, ok := r.memo[key]; ok {
		r.mu.Unlock()
		return t
	}
	if r.interrupted {
		// Drain mode: refuse to start anything new, without memoising the
		// refusal — a later sweep over the same store must re-request it.
		r.mu.Unlock()
		return failed(ErrInterrupted)
	}
	if r.sem == nil {
		workers := r.Parallel
		if workers < 1 {
			workers = 1
		}
		r.sem = make(chan struct{}, workers)
	}
	t := &task{done: make(chan struct{})}
	r.memo[key] = t
	sem := r.sem
	r.mu.Unlock()

	go func() {
		sem <- struct{}{}
		defer func() { <-sem }()
		if r.Interrupted() {
			// Queued when the interrupt came: it never starts, and the
			// refusal is not memoised either.
			r.mu.Lock()
			delete(r.memo, key)
			r.mu.Unlock()
			t.err = ErrInterrupted
		} else {
			t.res, t.err = r.runUnit(key, sys, wl)
		}
		close(t.done)
	}()
	return t
}

// runUnit executes one simulation unit with fault isolation: a panic
// anywhere in the simulation stack is recovered into a *SimError carrying
// the unit's identity and the worker's stack trace, so a faulty design or
// workload fails its own futures instead of crashing the whole sweep.
// With a Store attached, completed units are restored instead of re-run,
// and fresh results are persisted for future resumes. Every failure is
// recorded for the sweep-level failure table.
func (r *Runner) runUnit(key UnitSpec, sys config.System, wl *trace.Workload) (res *stats.Run, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &SimError{
				Design:   key.Design,
				Workload: key.Workload,
				Seed:     r.p.Seed,
				Value:    v,
				Stack:    string(debug.Stack()),
			}
			res = nil
		}
		if err != nil && !errors.Is(err, ErrInterrupted) {
			r.mu.Lock()
			r.failures[key] = Failure{Design: key.Design, Workload: key.Workload, Err: err}
			r.mu.Unlock()
		}
	}()
	if r.Store != nil {
		if cached, ok := r.Store.Load(key.storeKey()); ok {
			r.mu.Lock()
			r.restored++
			r.mu.Unlock()
			return cached, nil
		}
	}
	res, err = r.simulate(key.Workload, sys, wl)
	if err != nil {
		return nil, err
	}
	if r.Store != nil {
		r.Store.Save(key.storeKey(), res)
	}
	return res, nil
}

// simulate builds and runs one simulation on the calling worker goroutine.
func (r *Runner) simulate(wlName string, sys config.System, loaded *trace.Workload) (*stats.Run, error) {
	var wl trace.Workload
	if loaded != nil {
		wl = *loaded
	} else {
		var err error
		if wl, err = r.load(wlName); err != nil {
			return nil, err
		}
	}
	q, _ := r.queues.Get().(*event.Queue)
	if q == nil {
		q = new(event.Queue)
	}
	sim, err := hier.NewSimQueue(sys, wl, r.p.Warm, r.p.Meas, q)
	if err != nil {
		return nil, err
	}
	sim.Watchdog = r.p.Watchdog
	res, err := sim.Run()
	if err != nil {
		return nil, err
	}
	r.queues.Put(q)

	r.mu.Lock()
	r.count++
	n := r.count
	r.mu.Unlock()
	r.progress("  [%3d] %-10s %-10s bloat=%5.2f hit=%4.1f%% hitlat=%4.0f ipc=%5.2f\n",
		n, wlName, sys.Design, res.L4.BloatFactor(), 100*res.L4.HitRate(),
		res.L4.AvgHitLatency(), res.IPC())
	return res, nil
}

// cores is the core count every workload is generated for:
// config.Default's, which no unit overrides.
func cores(p Params) int { return config.Default(p.Scale).Core.Count }

// collect starts every unit on the worker pool, waits for all of them,
// and returns their runs for an experiment's render, or the first failure
// in units order.
func (r *Runner) collect(id string, units []UnitSpec) (Results, error) {
	keys := make([]UnitSpec, len(units))
	tasks := make([]*task, len(units))
	for i, u := range units {
		key, sys, err := u.build(r.p)
		if err != nil {
			tasks[i] = failed(err)
			continue
		}
		keys[i], tasks[i] = key, r.start(key, sys, nil)
	}
	res := Results{exp: id, runs: make(map[UnitSpec]*stats.Run, len(units))}
	var first error
	for i, t := range tasks {
		<-t.done
		if t.err != nil {
			if first == nil {
				first = t.err
			}
			continue
		}
		res.runs[keys[i]] = t.res
	}
	return res, first
}

// on returns the unit with its workload set to name.
func (u UnitSpec) on(name string) UnitSpec {
	u.Workload = name
	return u
}

// mixName names mixed workload m in the Runner's vocabulary.
func mixName(m int) string { return fmt.Sprintf("MIX%d", m) }

// mixBenchs lists mixed workload m's benchmarks, one per core. A mix that
// cannot be built lists none; its own MIX unit then fails the experiment
// before anything renders.
func mixBenchs(p Params, m int) []trace.Benchmark {
	wl, err := trace.Mix(m, cores(p), p.Scale, p.Seed)
	if err != nil {
		return nil
	}
	return wl.Benchs
}

// rateUnits runs each spec on each named rate workload.
func rateUnits(names []string, specs ...UnitSpec) []UnitSpec {
	var units []UnitSpec
	for _, s := range specs {
		for _, name := range names {
			units = append(units, s.on(name))
		}
	}
	return units
}

// mixUnits runs each spec on the first p.Mixes mixed workloads.
func mixUnits(p Params, specs ...UnitSpec) []UnitSpec {
	var units []UnitSpec
	for _, s := range specs {
		for m := 1; m <= p.Mixes; m++ {
			units = append(units, s.on(mixName(m)))
		}
	}
	return units
}

// mixWSUnits adds to mixUnits the single-program runs Equation 2 needs for
// the mixes' weighted speedups.
func mixWSUnits(p Params, specs ...UnitSpec) []UnitSpec {
	units := mixUnits(p, specs...)
	for m := 1; m <= p.Mixes; m++ {
		for _, b := range mixBenchs(p, m) {
			for _, s := range specs {
				units = append(units, s.on(b.Name+"@single"))
			}
		}
	}
	return units
}

// allUnits is every unit allGeomean reads for each spec.
func allUnits(p Params, specs ...UnitSpec) []UnitSpec {
	return append(rateUnits(trace.RateNames(), specs...), mixWSUnits(p, specs...)...)
}

// addL4 folds src's counters into the byte-weighted aggregate a.
func addL4(a, src *stats.L4) {
	for i := range a.Bytes {
		a.Bytes[i] += src.Bytes[i]
	}
	a.ReadHits += src.ReadHits
	a.ReadMisses += src.ReadMisses
	a.WBHits += src.WBHits
	a.WBMisses += src.WBMisses
	a.HitLatSum += src.HitLatSum
	a.MissLatSum += src.MissLatSum
	a.Fills += src.Fills
	a.Bypasses += src.Bypasses
}

// aggRate byte-weight-aggregates the named rate workloads under one unit,
// folded in names order.
func aggRate(res Results, s UnitSpec, names []string) stats.L4 {
	var a stats.L4
	for _, name := range names {
		addL4(&a, &res.Get(s.on(name)).L4)
	}
	return a
}

// aggMix aggregates the first p.Mixes mixes.
func aggMix(p Params, res Results, s UnitSpec) stats.L4 {
	var a stats.L4
	for m := 1; m <= p.Mixes; m++ {
		addL4(&a, &res.Get(s.on(mixName(m))).L4)
	}
	return a
}

// rateSpeedups returns the speedups of s over base on the named rate
// workloads, plus their geometric mean folded in names order.
func rateSpeedups(res Results, s, base UnitSpec, names []string) (map[string]float64, float64) {
	per := map[string]float64{}
	var all []float64
	for _, name := range names {
		sp := res.Get(s.on(name)).Speedup(res.Get(base.on(name)))
		per[name] = sp
		all = append(all, sp)
	}
	return per, stats.GeoMean(all)
}

// mixNormWS returns normalized weighted speedups of s over base for the
// first p.Mixes mixes, plus the geometric mean. Weighted speedup uses
// Equation 2 with single-program IPCs measured per design.
func mixNormWS(p Params, res Results, s, base UnitSpec) (map[string]float64, float64) {
	singles := func(sp UnitSpec, benchs []trace.Benchmark) []float64 {
		out := make([]float64, len(benchs))
		for i, b := range benchs {
			out[i] = res.Get(sp.on(b.Name + "@single")).CoreIPC[0]
		}
		return out
	}
	per := map[string]float64{}
	var all []float64
	for m := 1; m <= p.Mixes; m++ {
		benchs := mixBenchs(p, m)
		bWS := res.Get(base.on(mixName(m))).WeightedSpeedup(singles(base, benchs))
		vWS := res.Get(s.on(mixName(m))).WeightedSpeedup(singles(s, benchs))
		if bWS <= 0 {
			continue
		}
		norm := vWS / bWS
		per[mixName(m)] = norm
		all = append(all, norm)
	}
	return per, stats.GeoMean(all)
}

// allGeomean merges rate and mix relative performance into the paper's
// RATE / MIX / ALL triple.
func allGeomean(p Params, res Results, s, base UnitSpec) (rate, mix, all float64) {
	perRate, rate := rateSpeedups(res, s, base, trace.RateNames())
	perMix, mix := mixNormWS(p, res, s, base)
	// Fold in a fixed order (not map order): GeoMean sums logs, and
	// float addition order must not depend on map iteration for runs to
	// be byte-identical.
	var xs []float64
	for _, name := range trace.RateNames() {
		if v, ok := perRate[name]; ok {
			xs = append(xs, v)
		}
	}
	for m := 1; m <= p.Mixes; m++ {
		if v, ok := perMix[mixName(m)]; ok {
			xs = append(xs, v)
		}
	}
	return rate, mix, stats.GeoMean(xs)
}
