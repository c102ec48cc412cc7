package main

import (
	"time"

	"bear/internal/config"
	"bear/internal/dram"
	"bear/internal/event"
	"bear/internal/sram"
	"bear/internal/trace"
)

// Isolated layer replays: each feeds the workload's own trace stream
// through one layer's public API, with no other layer in the loop, and
// reports host ns per operation (the median of replayReps runs).
const (
	replayOps  = 1 << 19
	replayReps = 5
	dramDepth  = 48 // queued requests kept in flight by the dram replay
)

// feed returns the first replayOps operations of u's trace, interleaving
// the cores round-robin as they execute in the simulation.
func feed(u unit) ([]trace.Op, error) {
	wl, err := trace.Rate(u.bench, u.system().Core.Count, u.scale, u.seed)
	if err != nil {
		return nil, err
	}
	ops := make([]trace.Op, replayOps)
	for i := range ops {
		wl.Sources[i%len(wl.Sources)].Next(&ops[i])
	}
	return ops, nil
}

// replayLayers replays u's trace stream through the event, sram and dram
// layers alone, and records the stream's memory-operation density.
func replayLayers(u unit, rep *report, tr *tracer, root int) {
	ops, err := feed(u)
	if err != nil {
		rep.fail("replay feed: %v", err)
		return
	}
	var instr float64
	for _, op := range ops {
		instr += float64(op.NonMem) + 1
	}
	rep.set("trace.ops_pki", 1000*float64(len(ops))/instr, "1/kinstr")
	cfg := u.system()
	cores := cfg.Core.Count
	rep.set("event.step_ns", timeReplay(tr, root, "replay event", func() { replayEvent(ops) }), "ns")
	rep.set("sram.access_ns", timeReplay(tr, root, "replay sram", func() { replaySRAM(ops, cfg.L1, cores) }), "ns")
	rep.set("dram.host_ns_per_req", timeReplay(tr, root, "replay dram", func() { replayDRAM(ops, cfg.L4) }), "ns")
}

// timeReplay returns the median ns per operation of replayReps runs of f.
func timeReplay(tr *tracer, root int, name string, f func()) float64 {
	sp := tr.begin(name, root)
	defer tr.end(sp)
	var ns []float64
	for i := 0; i < replayReps; i++ {
		start := time.Now()
		f()
		ns = append(ns, float64(time.Since(start).Nanoseconds())/replayOps)
	}
	return median(ns)
}

// replayEvent keeps a window of pending events, and for every operation pops
// the earliest and schedules one NonMem+1 cycles after it: Queue.Step and
// Queue.At on the simulator's core-slice pattern.
func replayEvent(ops []trace.Op) {
	var q event.Queue
	fn := event.Func(func(uint64) {})
	for i := 0; i < 256; i++ {
		q.At(uint64(ops[i].NonMem), fn)
	}
	for i := range ops {
		q.Step()
		q.At(q.Now()+uint64(ops[i].NonMem)+1, fn)
	}
}

// replaySRAM replays each core's operations into its own L1 tag store:
// Cache.Access, and Cache.Fill on a miss.
func replaySRAM(ops []trace.Op, geo config.Cache, cores int) {
	l1 := make([]*sram.Cache, cores)
	for i := range l1 {
		l1[i] = sram.New(uint64(geo.Sets()), geo.Ways)
	}
	for i, op := range ops {
		c := l1[i%cores]
		if !c.Access(op.Line, op.Store) {
			c.Fill(op.Line, op.Store, 0)
		}
	}
}

// replayDRAM sends every operation as a 64 B read or write to a DRAM model
// with the L4's geometry (channel-interleaved lines, rows of consecutive
// lines), stepping the event queue whenever dramDepth requests are queued.
func replayDRAM(ops []trace.Op, cfg config.DRAM) {
	var q event.Queue
	m := dram.New("l4", cfg, &q)
	done := event.Func(func(uint64) {})
	channels, banks := uint64(cfg.Channels), uint64(cfg.Banks)
	lineRow := uint64(cfg.RowBytes / config.LineBytes)
	for _, op := range ops {
		ch := int(op.Line % channels)
		unit := op.Line / channels / lineRow
		bk, row := int(unit%banks), unit/banks
		if op.Store {
			m.Write(q.Now(), ch, bk, row, config.LineBytes)
		} else {
			m.Read(q.Now(), ch, bk, row, config.LineBytes, done)
		}
		for m.Pending() >= dramDepth && q.Step() {
		}
	}
	for q.Step() {
	}
}
