package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bear/internal/config"
	"bear/internal/exp"
	"bear/internal/hier"
	"bear/internal/trace"
)

// goldenIDs are the experiments whose exp.Quick output is pinned under
// internal/exp/testdata.
var goldenIDs = []string{"fig12", "fig13", "tab4", "xgran"}

// setupReps is how often set-up is measured per run; the median is reported.
const setupReps = 5

// runSweep measures sweep-golden: the golden experiments at exp.Quick on one
// fresh exp.Runner per sweep, repeated while the budget allows. The seed
// only orders the experiments — the goldens pin simulation seed 1 — and
// every output must equal its golden byte for byte.
func runSweep(o options, rep *report) error {
	ids := o.experiments
	if ids == nil {
		ids = goldenIDs
	}
	ids = permute(ids, o.seed)
	dir := o.goldenDir
	if dir == "" {
		dir = filepath.Join(o.root, "internal", "exp", "testdata")
	}
	var exps []exp.Experiment
	want := map[string][]byte{}
	for _, id := range ids {
		e, err := exp.ByID(id)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(filepath.Join(dir, id+".golden"))
		if err != nil {
			return err
		}
		exps = append(exps, e)
		want[id] = b
	}
	p := exp.Quick()
	sample := sampleUnits(o.w.bench, p)
	if o.trace {
		tr := newTracer()
		root := tr.begin(o.w.name, 0)
		prof := startProfile()
		sp := tr.begin("sweep", root)
		s := sweepOnce(exps, p, want, rep, tr, sp)
		tr.end(sp)
		if prof != nil {
			setShares(rep, prof.stop())
		}
		rep.set("exp.sims", float64(s.sims), "count")
		rep.set("exp.busy_frac", s.cpu/(s.wall*float64(s.workers)), "ratio")
		for _, e := range exps {
			rep.extra("exp."+e.ID+"_s", s.expSec[e.ID], "s")
		}
		sp = tr.begin("sample units", root)
		layerPasses(sample, rep, tr, sp, false, 0)
		tr.end(sp)
		tr.end(root)
		rep.Spans = tr.spans
		return nil
	}

	var setup []float64
	for i := 0; i < setupReps; i++ {
		t, err := setUp(sample)
		if err != nil {
			return err
		}
		setup = append(setup, t)
	}
	var simsPerS, minstr []float64
	expSec := map[string][]float64{}
	start := time.Now()
	for {
		s := sweepOnce(exps, p, want, rep, nil, 0)
		simsPerS = append(simsPerS, float64(s.sims)/s.wall)
		minstr = append(minstr, float64(s.instr)/s.wall/1e6)
		for _, e := range exps {
			expSec[e.ID] = append(expSec[e.ID], s.expSec[e.ID])
		}
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(simsPerS)) > o.seconds {
			break
		}
	}
	rep.set("sims_per_s", median(simsPerS), "sim/s")
	rep.set("minstr_per_s", median(minstr), "Minstr/s")
	rep.set("setup_s", median(setup), "s")
	rep.extra("sweeps", float64(len(simsPerS)), "count")
	for _, e := range exps {
		rep.extra("exp."+e.ID+"_s", median(expSec[e.ID]), "s")
	}
	return nil
}

// sampleUnits are sweep units — every design on one rate benchmark at the
// sweep's parameters — that the sweep's set-up and per-layer figures are
// measured on. exp.Runner gives no access to its own units.
func sampleUnits(bench string, p exp.Params) []unit {
	var us []unit
	for _, d := range designs {
		us = append(us, unit{design: d, bench: bench, scale: p.Scale, seed: p.Seed, warm: p.Warm, meas: p.Meas})
	}
	return us
}

// setUp returns the host seconds every unit spends, as exp.Runner runs it,
// before its measured phase: trace.Rate, hier.NewSim with its L4 prewarm,
// and the warm-up phase (Sim.RunWarm).
func setUp(units []unit) (float64, error) {
	runtime.GC()
	start := time.Now()
	for _, u := range units {
		wl, err := trace.Rate(u.bench, u.system().Core.Count, u.scale, u.seed)
		if err != nil {
			return 0, err
		}
		sim, err := hier.NewSim(u.system(), wl, u.warm, u.meas)
		if err != nil {
			return 0, err
		}
		sim.RunWarm()
	}
	return time.Since(start).Seconds(), nil
}

// sweepStats is what one sweep cost.
type sweepStats struct {
	wall    float64 // host seconds of the e.Run calls
	cpu     float64 // process CPU seconds over the same span
	workers int
	sims    int    // simulations executed (Runner.Count)
	instr   uint64 // measured-phase instructions of those simulations
	expSec  map[string]float64
}

// sweepOnce runs exps in order on a fresh Runner and checks every output
// against its golden. Each simulation and each experiment output is one
// attempted check.
func sweepOnce(exps []exp.Experiment, p exp.Params, want map[string][]byte, rep *report, tr *tracer, root int) sweepStats {
	r := exp.NewRunner(p)
	r.Parallel = runtime.NumCPU()
	log := &simLog{cores: config.Default(p.Scale).Core.Count, meas: p.Meas}
	r.Log = log
	s := sweepStats{workers: r.Parallel, expSec: map[string]float64{}}
	cpu0, start := cpuSeconds(), time.Now()
	for _, e := range exps {
		sp := tr.begin(e.ID, root)
		t0 := time.Now()
		var buf bytes.Buffer
		err := e.Run(p, &buf, r)
		s.expSec[e.ID] = time.Since(t0).Seconds()
		tr.end(sp)
		switch {
		case err != nil:
			rep.fail("%s: %v", e.ID, err)
		case !bytes.Equal(buf.Bytes(), want[e.ID]):
			rep.fail("%s: output differs from %s.golden: %s", e.ID, e.ID, firstDiff(want[e.ID], buf.Bytes()))
		}
	}
	s.wall = time.Since(start).Seconds()
	s.cpu = cpuSeconds() - cpu0
	s.sims = r.Count()
	s.instr = log.instr
	for _, f := range r.Failures() {
		rep.fail("simulation %s/%s: %v", f.Design, f.Workload, f.Err)
	}
	if log.sims != s.sims {
		rep.fail("runner logged %d simulations but counted %d", log.sims, s.sims)
	}
	rep.attempt(s.sims + len(exps))
	return s
}

// simLog reads the Runner's one-line-per-simulation progress log
// ("  [  n] <workload> <design> ...") to total the measured instructions:
// every core of a simulation retires exactly Meas measured instructions,
// and "<bench>@single" workloads run on one core. The Runner serialises
// its log writes.
type simLog struct {
	cores int
	meas  uint64
	sims  int
	instr uint64
}

func (l *simLog) Write(b []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		_, rest, ok := strings.Cut(line, "]")
		f := strings.Fields(rest)
		if !ok || len(f) == 0 {
			continue
		}
		cores := l.cores
		if strings.HasSuffix(f[0], "@single") {
			cores = 1
		}
		l.sims++
		l.instr += uint64(cores) * l.meas
	}
	return len(b), nil
}

// permute returns ids in the ((seed-1) mod n!)-th lexicographic order of
// their positions; seed 1 keeps the given order.
func permute(ids []string, seed uint64) []string {
	fact := uint64(1)
	for i := 2; i <= len(ids); i++ {
		fact *= uint64(i)
	}
	k := (seed - 1) % fact
	rest := append([]string(nil), ids...)
	var out []string
	for n := len(rest); n > 0; n-- {
		fact /= uint64(n)
		i := k / fact
		k %= fact
		out = append(out, rest[i])
		rest = append(rest[:i], rest[i+1:]...)
	}
	return out
}

// firstDiff describes the first line where got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("want %d lines, got %d", len(wl), len(gl))
}
