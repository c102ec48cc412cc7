// Package exp implements the paper's evaluation: one registered experiment
// per table and figure, each regenerating the corresponding rows from live
// simulations. cmd/bearbench and the repository's bench harness drive this
// registry.
//
// Every simulation is independent and deterministic (seeded RNG, totally
// ordered event queue), so the Runner executes them on a bounded worker
// pool: experiments launch futures for the units they need and collect
// results in a fixed order, which makes parallel and serial sweeps
// byte-identical.
package exp

import (
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
	Run      func(p Params, w io.Writer, r *Runner) error
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

	// cores is the core count every workload is generated for:
	// config.Default's, which no unit overrides.
	cores int

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
		cores:    config.Default(p.Scale).Core.Count,
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

// future starts (or joins) one of the experiments' own units. They
// are valid by construction, so a build error — a bad Params.Scale —
// fails the future rather than the call.
func (r *Runner) future(u UnitSpec) Future {
	f, err := r.UnitAsync(u)
	if err != nil {
		return Future{failed(err)}
	}
	return f
}

// RateAsync starts (or joins) the rate-mode simulation of a benchmark
// under u and returns a future for its result.
func (r *Runner) RateAsync(u UnitSpec, bench string) Future {
	u.Workload = bench
	return r.future(u)
}

// MixAsync starts (or joins) mixed workload n and returns a future.
func (r *Runner) MixAsync(u UnitSpec, n int) Future {
	u.Workload = fmt.Sprintf("MIX%d", n)
	return r.future(u)
}

// SingleAsync starts (or joins) a benchmark alone on one core, for
// Equation 2's single-program IPC denominators.
func (r *Runner) SingleAsync(u UnitSpec, bench string) Future {
	u.Workload = bench + "@single"
	return r.future(u)
}

// Rate runs (or recalls) the rate-mode workload for a benchmark.
func (r *Runner) Rate(u UnitSpec, bench string) (*stats.Run, error) {
	return r.RateAsync(u, bench).Wait()
}

// Mix runs (or recalls) mixed workload n.
func (r *Runner) Mix(u UnitSpec, n int) (*stats.Run, error) {
	return r.MixAsync(u, n).Wait()
}

// Single runs (or recalls) a benchmark alone on one core.
func (r *Runner) Single(u UnitSpec, bench string) (*stats.Run, error) {
	return r.SingleAsync(u, bench).Wait()
}

// PrefetchRate fans the full (unit, workload) cross product out to the
// worker pool without waiting. Experiments call it up front so that the
// sequential result-collection loops that follow find every simulation
// already running (or memoised).
func (r *Runner) PrefetchRate(units []UnitSpec, names []string) {
	for _, u := range units {
		for _, name := range names {
			r.RateAsync(u, name)
		}
	}
}

// PrefetchMix fans the first n mixed workloads out for each unit.
func (r *Runner) PrefetchMix(units []UnitSpec, n int) {
	for _, u := range units {
		for m := 1; m <= n; m++ {
			r.MixAsync(u, m)
		}
	}
}

// PrefetchMixWS additionally starts the single-program runs Equation 2
// needs for weighted speedups of the first n mixes.
func (r *Runner) PrefetchMixWS(units []UnitSpec, n int) {
	r.PrefetchMix(units, n)
	for m := 1; m <= n; m++ {
		wl, err := trace.Mix(m, r.cores, r.p.Scale, r.p.Seed)
		if err != nil {
			continue // surfaced by the collection phase
		}
		for _, u := range units {
			for _, b := range wl.Benchs {
				r.SingleAsync(u, b.Name)
			}
		}
	}
}

// aggregate combines runs byte-weighted for bandwidth metrics.
type aggregate struct {
	l4 stats.L4
}

func (a *aggregate) add(r *stats.Run) {
	src := &r.L4
	for i := range a.l4.Bytes {
		a.l4.Bytes[i] += src.Bytes[i]
	}
	a.l4.ReadHits += src.ReadHits
	a.l4.ReadMisses += src.ReadMisses
	a.l4.WBHits += src.WBHits
	a.l4.WBMisses += src.WBMisses
	a.l4.HitLatSum += src.HitLatSum
	a.l4.MissLatSum += src.MissLatSum
	a.l4.Fills += src.Fills
	a.l4.Bypasses += src.Bypasses
}

// rateSpeedups returns the speedups of s over base on the named rate
// workloads, plus their geometric mean. Both sweeps run concurrently;
// results are folded in names order so the output is independent of
// Parallel.
func (r *Runner) rateSpeedups(s, base UnitSpec, names []string) (map[string]float64, float64, error) {
	bases := make([]Future, len(names))
	vs := make([]Future, len(names))
	for i, name := range names {
		bases[i] = r.RateAsync(base, name)
		vs[i] = r.RateAsync(s, name)
	}
	per := map[string]float64{}
	var all []float64
	for i, name := range names {
		b, err := bases[i].Wait()
		if err != nil {
			return nil, 0, err
		}
		v, err := vs[i].Wait()
		if err != nil {
			return nil, 0, err
		}
		sp := v.Speedup(b)
		per[name] = sp
		all = append(all, sp)
	}
	return per, stats.GeoMean(all), nil
}

// mixNormWS returns normalized weighted speedups of s over base for the
// first n mixes, plus the geometric mean. Weighted speedup uses Equation 2
// with single-program IPCs measured per design.
func (r *Runner) mixNormWS(s, base UnitSpec, n int) (map[string]float64, float64, error) {
	r.PrefetchMixWS([]UnitSpec{base, s}, n)
	singles := func(sp UnitSpec, benchs []trace.Benchmark) ([]float64, error) {
		out := make([]float64, len(benchs))
		for i, b := range benchs {
			run, err := r.Single(sp, b.Name)
			if err != nil {
				return nil, err
			}
			out[i] = run.CoreIPC[0]
		}
		return out, nil
	}
	per := map[string]float64{}
	var all []float64
	for m := 1; m <= n; m++ {
		wl, err := trace.Mix(m, r.cores, r.p.Scale, r.p.Seed)
		if err != nil {
			return nil, 0, err
		}
		bRun, err := r.Mix(base, m)
		if err != nil {
			return nil, 0, err
		}
		vRun, err := r.Mix(s, m)
		if err != nil {
			return nil, 0, err
		}
		bSingles, err := singles(base, wl.Benchs)
		if err != nil {
			return nil, 0, err
		}
		vSingles, err := singles(s, wl.Benchs)
		if err != nil {
			return nil, 0, err
		}
		bWS := bRun.WeightedSpeedup(bSingles)
		vWS := vRun.WeightedSpeedup(vSingles)
		if bWS <= 0 {
			continue
		}
		norm := vWS / bWS
		per[wl.Name] = norm
		all = append(all, norm)
	}
	return per, stats.GeoMean(all), nil
}

// allGeomean merges rate and mix relative performance into the paper's
// RATE / MIX / ALL triple.
func (r *Runner) allGeomean(s, base UnitSpec) (rate, mix, all float64, err error) {
	// Start the mix/single sweep before blocking on the rate sweep.
	r.PrefetchMixWS([]UnitSpec{base, s}, r.p.Mixes)
	perRate, rateG, err := r.rateSpeedups(s, base, trace.RateNames())
	if err != nil {
		return 0, 0, 0, err
	}
	perMix, mixG, err := r.mixNormWS(s, base, r.p.Mixes)
	if err != nil {
		return 0, 0, 0, err
	}
	// Fold in a fixed order (not map order): GeoMean sums logs, and
	// float addition order must not depend on map iteration for runs to
	// be byte-identical.
	var xs []float64
	for _, name := range trace.RateNames() {
		if v, ok := perRate[name]; ok {
			xs = append(xs, v)
		}
	}
	for m := 1; m <= r.p.Mixes; m++ {
		if v, ok := perMix[fmt.Sprintf("MIX%d", m)]; ok {
			xs = append(xs, v)
		}
	}
	return rateG, mixG, stats.GeoMean(xs), nil
}
