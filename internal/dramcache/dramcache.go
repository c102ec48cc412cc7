// Package dramcache implements the gigascale DRAM-cache (L4) architectures
// the paper evaluates: the Alloy cache baseline (with the MAP-I predictor),
// the BEAR-enhanced Alloy cache, the idealised Bandwidth-Optimized cache,
// the inclusive Alloy variant, the Loh-Hill and Mostly-Clean tags-in-DRAM
// designs, and the Tags-In-SRAM and Sector-Cache alternatives of Section 8.
//
// Designs are functional-at-issue: tag state, replacement and policy
// decisions update synchronously when a request is handed to the design,
// while all bandwidth and latency effects are modelled through timed
// transactions on the internal/dram subsystems. This keeps the functional
// state single-threaded and deterministic while the timing model carries
// the contention the paper studies.
package dramcache

import (
	"math/bits"

	"bear/internal/core"
	"bear/internal/dram"
	"bear/internal/event"
	"bear/internal/stats"
)

// ReadResult is delivered to the hierarchy when an L4 read completes.
type ReadResult struct {
	// FromL4 reports whether the line was serviced by the DRAM cache.
	FromL4 bool
	// InL4 reports whether the line is resident in the DRAM cache after
	// the access (it was a hit, or the miss filled it). The hierarchy uses
	// this to set the DCP bit on the LLC fill.
	InL4 bool
}

// Hooks are upcalls from the L4 design into the on-chip hierarchy.
type Hooks struct {
	// OnEvict fires when a line leaves the DRAM cache; the hierarchy
	// clears the line's DCP bit (the paper's "conveyed like inclusive
	// flow, but updates the bit instead of invalidating"). It is nil
	// unless the system runs DCP, so every design must nil-check it and
	// skip any per-line eviction work that only feeds it.
	OnEvict func(line uint64)
	// OnBackInvalidate fires for inclusive designs when a line leaves the
	// DRAM cache; the hierarchy must invalidate every on-chip copy and
	// report whether one of them was dirty (so the design can forward the
	// data to main memory).
	OnBackInvalidate func(line uint64) (wasDirty bool)
}

// Cache is an L4 DRAM-cache design.
type Cache interface {
	Name() string
	// Read services an LLC read miss for a line address. done is invoked
	// exactly once, from the event queue, when data is available.
	Read(now uint64, coreID int, line, pc uint64, done func(now uint64, res ReadResult))
	// Writeback services a dirty LLC eviction. pres carries the DCP
	// answer when the hierarchy maintains one (PresUnknown otherwise).
	Writeback(now uint64, coreID int, line uint64, pres core.Presence)
	// Contains reports functional residency (tests, invariant checks).
	Contains(line uint64) bool
	// Install functionally pre-loads a clean line, consuming no bandwidth
	// and no simulated time. Simulations use it to pre-warm the gigascale
	// cache to steady-state residency before timing begins (the SimPoint
	// functional-warming step of the paper's methodology).
	Install(line uint64)
	Stats() *stats.L4
	// OutstandingTxns reports in-flight transactions; it must return zero
	// once the event queue has drained (the pool-leak invariant).
	OutstandingTxns() int
}

// MainMemory adapts the DDR dram.Memory to line-address granularity with
// channel-interleaved mapping: consecutive lines alternate channels, and
// consecutive lines within a channel share rows (stream locality).
type MainMemory struct {
	D *dram.Memory

	channels    uint64
	banks       uint64
	linesPerRow uint64

	fwdFree *victimFwd // recycled victim-forwarding callbacks
}

// victimFwd is a pooled "read the victim's data, then write it to main
// memory" completion callback. Every design that recovers dirty victims from
// the DRAM-cache array (Loh-Hill, TIS, Sector, the MissMap's forced
// evictions, the page-grained designs' partial-page writebacks) uses one of
// these instead of a capturing closure, keeping the eviction path
// allocation-free.
type victimFwd struct {
	m    *MainMemory
	line uint64
	mask uint64     // dirty sub-block bits relative to line; 0 = line itself
	fn   event.Func // pre-bound f.complete
	next *victimFwd
}

func (f *victimFwd) complete(t uint64) {
	m, line, mask := f.m, f.line, f.mask
	m.putFwd(f)
	if mask == 0 {
		m.WriteLine(t, line)
		return
	}
	// Partial-block forward: one write per dirty sub-block, in ascending
	// line order (deterministic event sequence).
	for mask != 0 {
		off := uint64(bits.TrailingZeros64(mask))
		mask &^= 1 << off
		m.WriteLine(t, line+off)
	}
}

// VictimFwd returns a completion callback that writes a victim to main
// memory when its DRAM-cache recovery read finishes. mask == 0 forwards the
// single line at line; otherwise bit i of mask forwards line+i (a
// sub-blocked victim's dirty lines). The callback must be invoked exactly
// once (dram read completions guarantee this); it recycles itself.
func (m *MainMemory) VictimFwd(line, mask uint64) event.Func {
	f := m.fwdFree
	if f == nil {
		f = &victimFwd{m: m}
		f.fn = f.complete
	} else {
		m.fwdFree = f.next
		f.next = nil
	}
	f.line, f.mask = line, mask
	return f.fn
}

func (m *MainMemory) putFwd(f *victimFwd) {
	f.next = m.fwdFree
	m.fwdFree = f
}

// NewMainMemory wraps d (which must be the DDR main memory).
func NewMainMemory(d *dram.Memory) *MainMemory {
	cfg := d.Config()
	return &MainMemory{
		D:           d,
		channels:    uint64(cfg.Channels),
		banks:       uint64(cfg.Banks),
		linesPerRow: uint64(cfg.RowBytes / 64),
	}
}

func (m *MainMemory) locate(line uint64) (ch, bk int, row uint64) {
	ch = int(line % m.channels)
	rest := line / m.channels
	rowUnit := rest / m.linesPerRow
	bk = int(rowUnit % m.banks)
	row = rowUnit / m.banks
	return ch, bk, row
}

// ReadLine fetches one 64 B line; done may be nil for discarded (wasted
// parallel-access) reads.
func (m *MainMemory) ReadLine(now uint64, line uint64, done event.Func) {
	ch, bk, row := m.locate(line)
	m.D.Read(now, ch, bk, row, 64, done)
}

// WriteLine posts one 64 B line write.
func (m *MainMemory) WriteLine(now uint64, line uint64) {
	ch, bk, row := m.locate(line)
	m.D.Write(now, ch, bk, row, 64)
}

// ReadTail posts the background portion of a multi-line (page) fill: the
// sub-blocks beyond the demand line, bytes in total, streamed from the
// demand line's row. It has no completion — the demand line's own ReadLine
// gates the transaction; the tail only occupies main-memory bandwidth,
// which is exactly the fill bloat page-grained designs trade for.
func (m *MainMemory) ReadTail(now uint64, line uint64, bytes int) {
	ch, bk, row := m.locate(line)
	m.D.Read(now, ch, bk, row, bytes, nil)
}

// NoL4 is the "no DRAM cache" memory system: every LLC miss goes to main
// memory. It is the normalisation baseline of Figures 3 and 17, and the
// degenerate composition of the layered controller: no tag store, so every
// read passes through and every writeback forwards.
type NoL4 = Controller

// NewNoL4 builds the pass-through design.
func NewNoL4(mem *MainMemory) *NoL4 { return &Controller{name: "NoL4", mem: mem} }
