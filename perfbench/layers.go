package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"syscall"
	"time"

	"bear/internal/config"
	"bear/internal/core"
	"bear/internal/dramcache"
	"bear/internal/trace"
)

// Sampling periods of the timing decorators: one call in every N is timed,
// and one timed call in every spanEvery is also kept as a span.
const (
	nextEvery  = 16
	cacheEvery = 4
	spanEvery  = 4096
)

// callTimer times a sample of the calls into one layer.
type callTimer struct {
	name    string
	every   uint64
	calls   uint64
	sampled uint64
	ns      int64
	tr      *tracer
	parent  int
}

// start counts a call and reports whether it is timed.
func (c *callTimer) start() (time.Time, bool) {
	c.calls++
	if c.calls%c.every != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (c *callTimer) stop(t0 time.Time) {
	t1 := time.Now()
	c.sampled++
	c.ns += t1.Sub(t0).Nanoseconds()
	if c.sampled%spanEvery == 0 {
		c.tr.add(c.name, c.parent, t0, t1)
	}
}

// meanNs is the mean duration of a timed call net of the cost of reading
// the clock around it.
func (c *callTimer) meanNs(clockNs float64) float64 {
	if c.sampled == 0 {
		return 0
	}
	return math.Max(float64(c.ns)/float64(c.sampled)-clockNs, 0)
}

// layers holds the timing decorators of one traced pass.
type layers struct {
	next, read, wb callTimer
}

func newLayers() *layers {
	return &layers{
		next: callTimer{name: "trace.Next", every: nextEvery},
		read: callTimer{name: "dramcache.Read", every: cacheEvery},
		wb:   callTimer{name: "dramcache.Writeback", every: cacheEvery},
	}
}

// wrapSources times Source.Next on every core of wl.
func (l *layers) wrapSources(wl *trace.Workload, tr *tracer, parent int) {
	l.next.tr, l.next.parent = tr, parent
	for i, s := range wl.Sources {
		wl.Sources[i] = &timedSource{src: s, t: &l.next}
	}
}

// wrapCache returns c with its synchronous Read and Writeback calls timed.
func (l *layers) wrapCache(c dramcache.Cache, tr *tracer, parent int) dramcache.Cache {
	l.read.tr, l.read.parent = tr, parent
	l.wb.tr, l.wb.parent = tr, parent
	return &timedCache{Cache: c, read: &l.read, wb: &l.wb}
}

// timedSource is a trace.Source decorator. It forwards trace.Prewarmer:
// hier.NewSim type-asserts it to prewarm the L4, and a wrapper that hid it
// would silently skip the prewarm and change every result.
type timedSource struct {
	src trace.Source
	t   *callTimer
}

func (s *timedSource) Next(op *trace.Op) {
	t0, ok := s.t.start()
	s.src.Next(op)
	if ok {
		s.t.stop(t0)
	}
}

func (s *timedSource) Prewarm(limit uint64, visit func(line uint64)) {
	if p, ok := s.src.(trace.Prewarmer); ok {
		p.Prewarm(limit, visit)
	}
}

// timedCache is a dramcache.Cache decorator timing the synchronous part of
// Read and Writeback (the engine's synchronous work, not the simulated latency).
type timedCache struct {
	dramcache.Cache
	read, wb *callTimer
}

func (c *timedCache) Read(now uint64, coreID int, line, pc uint64, done func(uint64, dramcache.ReadResult)) {
	t0, ok := c.read.start()
	c.Cache.Read(now, coreID, line, pc, done)
	if ok {
		c.read.stop(t0)
	}
}

func (c *timedCache) Writeback(now uint64, coreID int, line uint64, pres core.Presence) {
	t0, ok := c.wb.start()
	c.Cache.Writeback(now, coreID, line, pres)
	if ok {
		c.wb.stop(t0)
	}
}

// clockNs is the cost of one timed empty region: the overhead included in
// every sampled call.
func clockNs() float64 {
	const n = 1 << 16
	var total int64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		total += time.Since(t0).Nanoseconds()
	}
	return float64(total) / n
}

// cpuSeconds is this process's user + system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcCPU reads the runtime's cumulative GC and user-code CPU estimates.
func gcCPU() (gc, user float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// layerPasses runs the per-layer measurement over units: an untraced pass
// for the exact counts, per-design costs and Go runtime figures, then a pass
// with every decorator attached whose results must equal the untraced ones,
// then the isolated layer replays. With profile set the untraced pass is
// CPU-profiled and repeated until profileFor seconds have passed, so the
// profile has enough samples; the repeats must reproduce the first pass.
func layerPasses(units []unit, rep *report, tr *tracer, root int, profile bool, profileFor float64) {
	clock := clockNs()
	var prof *cpuProfile
	if profile {
		prof = startProfile()
	}
	gc0, user0 := gcCPU()
	cpu0, wall0 := cpuSeconds(), time.Now()
	plain := runPass(units, simOpts{memStats: true}, rep, "untraced pass")
	for n := 1; time.Since(wall0).Seconds() < profileFor; n++ {
		matchPass(plain, runPass(units, simOpts{}, rep, "profiled pass"), rep, fmt.Sprintf("profiled pass %d", n))
	}
	busy := (cpuSeconds() - cpu0) / time.Since(wall0).Seconds()
	gc1, user1 := gcCPU()
	if prof != nil {
		setShares(rep, prof.stop())
		rep.set("exp.sims", 0, "count")
		rep.set("exp.busy_frac", busy, "ratio")
	}

	l := newLayers()
	span := tr.begin("traced pass", root)
	traced := runPass(units, simOpts{layers: l, tr: tr, parent: span}, rep, "traced pass")
	tr.end(span)
	matchPass(plain, traced, rep, "traced pass")

	rep.set("trace.next_ns", l.next.meanNs(clock), "ns")
	rep.set("dramcache.read_ns", l.read.meanNs(clock), "ns")
	rep.set("dramcache.writeback_ns", l.wb.meanNs(clock), "ns")
	rep.extra("clock_ns", clock, "ns")
	if plain.failed == 0 && traced.failed == 0 {
		rep.set("trace.overhead", plain.minstrPerS()/traced.minstrPerS()-1, "ratio")
		rep.extra("untraced.minstr_per_s", plain.minstrPerS(), "Minstr/s")
		rep.extra("traced.minstr_per_s", traced.minstrPerS(), "Minstr/s")
	}
	exactMetrics(units, plain, rep)

	var mallocs, heap uint64
	for _, s := range plain.sims {
		mallocs += s.mallocs
		heap = max(heap, s.heap)
	}
	rep.set("go.allocs_pki", ratio(1000*float64(mallocs), float64(plain.instructions())), "1/kinstr")
	rep.set("go.heap_peak_mb", float64(heap)/(1<<20), "MB")
	if d := (gc1 - gc0) + (user1 - user0); d > 0 {
		rep.set("go.gc_cpu_frac", (gc1-gc0)/d, "ratio")
	}
	for i, u := range units {
		if s := plain.sims[i]; s.run != nil && s.run.Instructions > 0 {
			rep.set("design."+u.design.String()+".ns_per_instr", 1e9*s.runSec/float64(s.run.Instructions), "ns")
		}
	}
	replayLayers(units[0], rep, tr, root)
}

// exactMetrics derives the simulated per-layer counts of a pass. They are
// deterministic: a change that only makes the simulator faster must leave
// every one of them identical.
func exactMetrics(units []unit, p pass, rep *report) {
	var instr, coreCycles float64
	var l1, l2, l3, l3wb, merges, backInv float64
	var l4Instr, reads, hits, wbs, bytes, useful, bypass, dcp, ntc float64
	var l4Row, l4RowAll, l4Q, l4Reads, l4Busy, l4Span float64
	var memRow, memRowAll, memQ, memReads, memBusy, memSpan float64
	var gap, bus float64
	maxWQ := 0
	for i, s := range p.sims {
		if s.run == nil {
			continue
		}
		cfg := units[i].system()
		r := s.run
		n, cyc := float64(r.Instructions), float64(r.Cycles)
		instr += n
		coreCycles += cyc * float64(len(r.CoreInstr))
		l1 += float64(s.hier.L1Misses)
		l2 += float64(s.hier.L2Misses)
		l3 += float64(s.hier.L3Misses)
		l3wb += float64(s.hier.L3Writebacks)
		merges += float64(s.hier.MSHRMerges)
		backInv += float64(s.hier.BackInvalidates)

		memRow += float64(s.mem.RowHits)
		memRowAll += float64(s.mem.RowHits + s.mem.RowMisses)
		memQ += float64(s.mem.ReadQDelay)
		memReads += float64(s.mem.Reads)
		memBusy += float64(s.mem.BusBusy)
		memSpan += cyc * float64(cfg.Mem.Channels)

		if units[i].design == config.NoL4 {
			continue
		}
		l4Instr += n
		reads += float64(r.L4.Reads())
		hits += float64(r.L4.ReadHits)
		wbs += float64(r.L4.WBHits + r.L4.WBMisses)
		bytes += float64(r.L4.TotalBytes())
		useful += float64(r.L4.UsefulBytes())
		bypass += float64(r.L4.Bypasses)
		dcp += float64(r.L4.DCPProbesSaved)
		ntc += float64(r.L4.NTCProbesSaved)
		if st := s.l4; st != nil {
			l4Row += float64(st.RowHits)
			l4RowAll += float64(st.RowHits + st.RowMisses)
			l4Q += float64(st.ReadQDelay)
			l4Reads += float64(st.Reads)
			l4Busy += float64(st.BusBusy)
			l4Span += cyc * float64(cfg.L4.Channels)
			maxWQ = max(maxWQ, st.MaxWriteQLen)
			onBus := float64(st.ReadBytes + st.WriteBytes)
			gap += math.Abs(float64(r.L4.TotalBytes()) - onBus)
			bus += onBus
		}
	}
	pki := func(x, n float64) float64 { return ratio(1000*x, n) }
	rep.set("cpu.ipc", ratio(instr, coreCycles), "instr/cycle")
	rep.set("hier.l1_mpki", pki(l1, instr), "1/kinstr")
	rep.set("hier.l2_mpki", pki(l2, instr), "1/kinstr")
	rep.set("hier.l3_mpki", pki(l3, instr), "1/kinstr")
	rep.set("hier.l3_wb_pki", pki(l3wb, instr), "1/kinstr")
	rep.set("hier.mshr_merge_pki", pki(merges, instr), "1/kinstr")
	rep.set("hier.back_inval_pki", pki(backInv, instr), "1/kinstr")
	rep.set("dramcache.reads_pki", pki(reads, l4Instr), "1/kinstr")
	rep.set("dramcache.writebacks_pki", pki(wbs, l4Instr), "1/kinstr")
	rep.set("dramcache.hit_rate", ratio(hits, reads), "ratio")
	rep.set("dramcache.bloat", ratio(bytes, useful), "ratio")
	rep.set("core.bypass_pki", pki(bypass, l4Instr), "1/kinstr")
	rep.set("core.dcp_saved_pki", pki(dcp, l4Instr), "1/kinstr")
	rep.set("core.ntc_saved_pki", pki(ntc, l4Instr), "1/kinstr")
	rep.set("dram.l4_row_hit", ratio(l4Row, l4RowAll), "ratio")
	rep.set("dram.l4_read_q_cycles", ratio(l4Q, l4Reads), "cycles")
	rep.set("dram.l4_bus_util", ratio(l4Busy, l4Span), "ratio")
	rep.set("dram.mem_row_hit", ratio(memRow, memRowAll), "ratio")
	rep.set("dram.mem_read_q_cycles", ratio(memQ, memReads), "cycles")
	rep.set("dram.mem_bus_util", ratio(memBusy, memSpan), "ratio")
	rep.set("dram.max_write_q", float64(maxWQ), "count")
	rep.set("dram.l4_ledger_gap_ppm", 1e6*ratio(gap, bus), "ppm")
}

func ratio(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}
