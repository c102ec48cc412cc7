package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"bear/internal/config"
	"bear/internal/dram"
	"bear/internal/hier"
	"bear/internal/stats"
	"bear/internal/trace"
)

// designs is every L4 design, in a fixed order.
var designs = []config.Design{
	config.NoL4, config.Alloy, config.BEAR, config.BWOpt, config.LohHill,
	config.MostlyClean, config.InclAlloy, config.TIS, config.Sector,
	config.Banshee, config.TicToc,
}

// unit is one simulation: a design running a rate workload.
type unit struct {
	design     config.Design
	bench      string
	scale      int
	seed       uint64
	warm, meas uint64
}

func (u unit) system() config.System {
	cfg := config.Default(u.scale).WithDesign(u.design)
	cfg.Seed = u.seed
	return cfg
}

// simResult is what one simulation produced and cost.
type simResult struct {
	run     *stats.Run
	setup   float64 // host seconds in trace.Rate + hier.NewSim + Sim.RunWarm
	runSec  float64 // host seconds in Sim.Run
	hier    hier.Counters
	l4      *dram.Stats // nil without a DRAM cache
	mem     dram.Stats
	mallocs uint64 // heap allocations inside Sim.Run (memStats only)
	heap    uint64 // peak sampled in-use heap bytes (memStats only)
}

// simOpts selects what a simulation records besides its result.
type simOpts struct {
	check    bool    // run under hier.Watchdog.Check
	memStats bool    // sample runtime.MemStats around the phases
	layers   *layers // attach the timing decorators
	tr       *tracer // record design and phase spans
	parent   int     // span to nest under
}

// simulate builds, warms and runs one unit: trace.Rate, hier.NewSim (which
// builds the dramcache bundle and prewarms the L4), Sim.RunWarm, Sim.Run.
func simulate(u unit, o simOpts) (simResult, error) {
	var r simResult
	var ms runtime.MemStats
	sampleHeap := func() {
		if o.memStats {
			runtime.ReadMemStats(&ms)
			r.heap = max(r.heap, ms.HeapInuse)
		}
	}
	// Collect the previous simulation's garbage first, so peak RSS and the
	// timings below belong to this simulation alone.
	runtime.GC()
	sp := o.tr.begin(u.design.String(), o.parent)
	defer o.tr.end(sp)
	cfg := u.system()

	start := time.Now()
	ph := o.tr.begin("build", sp)
	wl, err := trace.Rate(u.bench, cfg.Core.Count, u.scale, u.seed)
	if err != nil {
		return r, err
	}
	if o.layers != nil {
		o.layers.wrapSources(&wl, o.tr, sp)
	}
	o.tr.end(ph)

	ph = o.tr.begin("newsim", sp)
	sim, err := hier.NewSim(cfg, wl, u.warm, u.meas)
	if err != nil {
		return r, err
	}
	if o.layers != nil {
		sim.Hier.AttachL4(o.layers.wrapCache(sim.Bundle.Cache, o.tr, sp))
	}
	o.tr.end(ph)
	sampleHeap()

	ph = o.tr.begin("warm", sp)
	sim.RunWarm()
	o.tr.end(ph)
	sampleHeap()
	r.setup = time.Since(start).Seconds()

	sim.Watchdog.Check = o.check
	mallocs := ms.Mallocs
	ph = o.tr.begin("run", sp)
	runStart := time.Now()
	res, err := sim.Run()
	r.runSec = time.Since(runStart).Seconds()
	o.tr.end(ph)
	if err != nil {
		return r, err
	}
	sampleHeap()
	r.mallocs = ms.Mallocs - mallocs
	r.run = res
	r.hier = sim.Hier.Counters
	r.mem = sim.Bundle.MemDRAM.Stats
	if sim.Bundle.L4DRAM != nil {
		st := sim.Bundle.L4DRAM.Stats
		r.l4 = &st
	}
	return r, nil
}

// pass is one simulation of every design on the same input.
type pass struct {
	sims   []simResult
	failed int
}

// runPass simulates every design of units. A failed simulation leaves a nil
// run in its slot and is recorded against rep.
func runPass(units []unit, o simOpts, rep *report, what string) pass {
	var p pass
	for _, u := range units {
		r, err := simulate(u, o)
		if err != nil {
			rep.fail("%s %s/%s: %v", what, u.design, u.bench, err)
			p.failed++
			r.run = nil
		}
		p.sims = append(p.sims, r)
	}
	rep.attempt(len(units))
	return p
}

func (p pass) instructions() (n uint64) {
	for _, s := range p.sims {
		if s.run != nil {
			n += s.run.Instructions
		}
	}
	return n
}

func (p pass) runSeconds() (t float64) {
	for _, s := range p.sims {
		t += s.runSec
	}
	return t
}

func (p pass) setupSeconds() (t float64) {
	for _, s := range p.sims {
		t += s.setup
	}
	return t
}

// minstrPerS is measured-phase instructions per host second inside Sim.Run.
func (p pass) minstrPerS() float64 { return float64(p.instructions()) / p.runSeconds() / 1e6 }

// simsPerS is simulations completed per host second, set-up included.
func (p pass) simsPerS() float64 {
	return float64(len(p.sims)) / (p.setupSeconds() + p.runSeconds())
}

// matchPass checks that every simulation of got produced exactly the
// stats.Run of the same simulation in want. Each mismatch is a failure.
func matchPass(want, got pass, rep *report, what string) {
	for i := range got.sims {
		w, g := want.sims[i].run, got.sims[i].run
		if w == nil || g == nil {
			continue // already counted as failed
		}
		if !reflect.DeepEqual(w, g) {
			rep.fail("%s: %s/%s stats.Run differs from the first pass", what, g.Design, g.Workload)
		}
	}
}

func steadyUnits(w workload, seed uint64) []unit {
	var us []unit
	for _, d := range designs {
		us = append(us, unit{design: d, bench: w.bench, scale: scale, seed: seed, warm: w.warm, meas: w.meas})
	}
	return us
}

// runSteady measures a steady workload: repeated passes over the eleven
// designs for o.seconds, then one untimed pass under the invariant watchdog.
// Every pass must reproduce the first pass's stats.Run exactly.
func runSteady(o options, rep *report) error {
	units := steadyUnits(o.w, o.seed)
	if o.trace {
		return traceSteady(o, units, rep)
	}
	var passes []pass
	start := time.Now()
	for {
		p := runPass(units, simOpts{}, rep, fmt.Sprintf("pass %d", len(passes)))
		if len(passes) > 0 {
			matchPass(passes[0], p, rep, fmt.Sprintf("pass %d", len(passes)))
		}
		passes = append(passes, p)
		// Start another pass only if it fits in the budget.
		elapsed := time.Since(start).Seconds()
		if elapsed+elapsed/float64(len(passes)) > o.seconds {
			break
		}
	}
	check := runPass(units, simOpts{check: true}, rep, "watchdog check")
	matchPass(passes[0], check, rep, "watchdog check")

	var ok []pass
	var minstr []float64
	for _, p := range passes {
		if p.failed == 0 {
			ok = append(ok, p)
			minstr = append(minstr, p.minstrPerS())
		}
	}
	if len(ok) == 0 {
		return nil // every pass failed: no timing to report
	}
	m := medianPass(ok)
	rep.set("minstr_per_s", m.minstrPerS(), "Minstr/s")
	rep.set("setup_s", m.setupSeconds(), "s")
	rep.set("sims_per_s", m.simsPerS(), "sim/s")
	rep.extra("passes", float64(len(passes)), "count")
	rep.extra("minstr_per_s.pass_spread", spread(minstr), "ratio")
	return nil
}

// medianPass returns a pass whose every simulation costs the median, over
// passes, of that simulation's set-up and run seconds. A burst of host
// noise then moves the figures only if it hits most passes of a design.
func medianPass(passes []pass) pass {
	m := pass{sims: append([]simResult(nil), passes[0].sims...)}
	for i := range m.sims {
		var setup, run []float64
		for _, p := range passes {
			setup = append(setup, p.sims[i].setup)
			run = append(run, p.sims[i].runSec)
		}
		m.sims[i].setup, m.sims[i].runSec = median(setup), median(run)
	}
	return m
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spread returns (max - min) / median of xs.
func spread(xs []float64) float64 {
	m := median(xs)
	return (xs[len(xs)-1] - xs[0]) / m
}

// traceSteady is the traced run of a steady workload.
func traceSteady(o options, units []unit, rep *report) error {
	tr := newTracer()
	root := tr.begin(o.w.name, 0)
	layerPasses(units, rep, tr, root, true, o.seconds/2)
	tr.end(root)
	rep.Spans = tr.spans
	return nil
}
