package sram

import (
	"testing"
	"testing/quick"
)

func TestFillLookup(t *testing.T) {
	c := New(4, 2)
	if _, ok := c.Lookup(5); ok {
		t.Fatal("empty cache reported a hit")
	}
	ev := c.Fill(5, false, 7)
	if ev.Valid {
		t.Fatal("fill into empty set evicted something")
	}
	ln, ok := c.Lookup(5)
	if !ok || ln.Addr != 5 || ln.Dirty || ln.Aux != 7 {
		t.Fatalf("lookup after fill = %+v, %v", ln, ok)
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Fill(10, false, 0)
	c.Fill(20, false, 0)
	// Touch 10 so 20 becomes LRU.
	if !c.Access(10, false) {
		t.Fatal("lost line 10")
	}
	ev := c.Fill(30, false, 0)
	if !ev.Valid || ev.Addr != 20 {
		t.Fatalf("evicted %+v, want line 20", ev)
	}
	if _, ok := c.Lookup(10); !ok {
		t.Fatal("MRU line 10 was evicted")
	}
}

func TestDirtyPropagation(t *testing.T) {
	c := New(1, 1)
	c.Fill(1, false, 0)
	if !c.Access(1, true) {
		t.Fatal("access miss")
	}
	ev := c.Fill(2, false, 0)
	if !ev.Valid || !ev.Dirty || ev.Addr != 1 {
		t.Fatalf("dirty eviction = %+v", ev)
	}
}

func TestFillDirty(t *testing.T) {
	c := New(2, 1)
	c.Fill(4, true, 0)
	ln, _ := c.Lookup(4)
	if !ln.Dirty {
		t.Fatal("fill with dirty=true lost the dirty bit")
	}
}

func TestSetIndexMapping(t *testing.T) {
	c := New(8, 1)
	// Addresses 8 apart collide; others don't.
	c.Fill(3, false, 0)
	c.Fill(11, false, 0) // same set, 1 way -> evicts 3
	if _, ok := c.Lookup(3); ok {
		t.Fatal("conflicting line survived in a direct-mapped set")
	}
	if _, ok := c.Lookup(11); !ok {
		t.Fatal("newly filled line missing")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4, 2)
	c.Fill(9, false, 0)
	c.Access(9, true)
	ln, ok := c.Invalidate(9)
	if !ok || !ln.Dirty || ln.Addr != 9 {
		t.Fatalf("invalidate = %+v, %v", ln, ok)
	}
	if _, ok := c.Lookup(9); ok {
		t.Fatal("line still present after invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double invalidate reported a line")
	}
}

func TestAux(t *testing.T) {
	c := New(4, 2)
	c.Fill(6, false, 0)
	if !c.SetAux(6, 3) {
		t.Fatal("SetAux missed present line")
	}
	ln, _ := c.Lookup(6)
	if ln.Aux != 3 {
		t.Fatalf("aux = %d, want 3", ln.Aux)
	}
	if c.SetAux(999, 1) {
		t.Fatal("SetAux on absent line returned true")
	}
}

func TestSetDirty(t *testing.T) {
	c := New(4, 2)
	c.Fill(6, false, 0)
	if !c.SetDirty(6) {
		t.Fatal("SetDirty missed present line")
	}
	ln, _ := c.Lookup(6)
	if !ln.Dirty {
		t.Fatal("dirty bit not set")
	}
	if c.SetDirty(999) {
		t.Fatal("SetDirty on absent line returned true")
	}
}

func TestWayOfAndVictimWay(t *testing.T) {
	c := New(2, 4)
	addrs := []uint64{0, 2, 4, 6} // all set 0
	for _, a := range addrs {
		// VictimWay must predict where Fill lands.
		want := c.VictimWay(a)
		c.Fill(a, false, 0)
		got, ok := c.WayOf(a)
		if !ok || got != want {
			t.Fatalf("fill of %d landed in way %d, VictimWay predicted %d", a, got, want)
		}
	}
	// Set full: victim is LRU (addr 0), and VictimWay must match Fill.
	c.Access(0, false) // make 0 MRU; LRU is now 2
	want := c.VictimWay(8)
	ev := c.Fill(8, false, 0)
	got, _ := c.WayOf(8)
	if got != want {
		t.Fatalf("full-set fill landed in way %d, VictimWay said %d", got, want)
	}
	if ev.Addr != 2 {
		t.Fatalf("evicted %d, want LRU line 2", ev.Addr)
	}
}

func TestVictimPreview(t *testing.T) {
	c := New(1, 2)
	if v := c.Victim(0); v.Valid {
		t.Fatal("victim in empty set should be invalid")
	}
	c.Fill(1, false, 0)
	c.Fill(2, true, 0)
	c.Access(1, false)
	v := c.Victim(3)
	if !v.Valid || v.Addr != 2 || !v.Dirty {
		t.Fatalf("victim preview = %+v, want dirty line 2", v)
	}
	// Preview must not modify state.
	if _, ok := c.Lookup(2); !ok {
		t.Fatal("Victim() modified the cache")
	}
}

func TestDoubleFillPanics(t *testing.T) {
	c := New(2, 2)
	c.Fill(4, false, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate fill did not panic")
		}
	}()
	c.Fill(4, false, 0)
}

func TestRangeAndCount(t *testing.T) {
	c := New(8, 2)
	for i := uint64(0); i < 10; i++ {
		c.Fill(i, false, 0)
	}
	if c.Count() != 10 {
		t.Fatalf("count = %d", c.Count())
	}
	n := 0
	c.Range(func(Line) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("Range early exit broke: %d", n)
	}
}

func TestRescale(t *testing.T) {
	c := New(1, 2)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	c.clock = ^uint32(0) - 1 // force stamp overflow soon
	c.Access(1, false)       // uses last stamp
	c.Access(2, false)       // triggers rescale
	// Order must survive: 1 older than 2.
	ev := c.Fill(3, false, 0)
	if ev.Addr != 1 {
		t.Fatalf("after rescale evicted %d, want 1", ev.Addr)
	}
}

// TestRescaleWraparound drives the stamp clock to its wraparound point mid-
// scan and asserts that every set's full LRU order — established by touches
// issued both before and after the rescale — is preserved exactly. The
// renumbering must be invisible: eviction order afterwards equals the touch
// order, across all sets, including sets the overflow-triggering touch never
// visited.
func TestRescaleWraparound(t *testing.T) {
	const sets, ways = 4, 8
	c := New(sets, ways)
	// Fill every set; touch order within set s is addr s, s+sets, s+2*sets...
	for w := 0; w < ways; w++ {
		for s := uint64(0); s < sets; s++ {
			c.Fill(s+uint64(w)*sets, false, 0)
		}
	}
	// Establish a distinctive recency order per set: promote odd ways, so
	// LRU order becomes even ways in fill order, then odd ways.
	for w := 1; w < ways; w += 2 {
		for s := uint64(0); s < sets; s++ {
			c.Access(s+uint64(w)*sets, false)
		}
	}
	// Park the clock so the very next touch hits the wraparound guard.
	c.clock = ^uint32(0)
	c.Access(0, false) // triggers rescale, then re-touches line 0 (set 0)
	if c.clock == ^uint32(0) || c.clock < uint32(ways) {
		t.Fatalf("clock = %d after rescale, want compacted stamps", c.clock)
	}
	// Touches after the rescale must compose with the preserved order.
	c.Access(1+2*sets, false) // set 1, way 2 (an even way) becomes MRU
	wantOrder := map[uint64][]uint64{
		0: {2 * sets, 4 * sets, 6 * sets, sets, 3 * sets, 5 * sets, 7 * sets, 0},
		1: {1, 1 + 4*sets, 1 + 6*sets, 1 + sets, 1 + 3*sets, 1 + 5*sets, 1 + 7*sets, 1 + 2*sets},
		2: {2, 2 + 2*sets, 2 + 4*sets, 2 + 6*sets, 2 + sets, 2 + 3*sets, 2 + 5*sets, 2 + 7*sets},
		3: {3, 3 + 2*sets, 3 + 4*sets, 3 + 6*sets, 3 + sets, 3 + 3*sets, 3 + 5*sets, 3 + 7*sets},
	}
	for s := uint64(0); s < sets; s++ {
		for i, want := range wantOrder[s] {
			ev := c.Fill(s+uint64(ways+i)*sets, false, 0)
			if !ev.Valid || ev.Addr != want {
				t.Fatalf("set %d eviction %d: got %#x want %#x", s, i, ev.Addr, want)
			}
		}
	}
}

// Model-based property test: the cache agrees with a reference model — per
// set, a recency list plus each line's dirty bit and aux byte — under random
// demand accesses, fills, FillIfAbsent, FillOrDirty, Invalidate, SetAux and
// Lookup. No operation probes first, so each one reaches the hint with
// whatever earlier operations left there (stale, aliased or trained), and
// both geometries alias lines onto shared hint slots.
func TestModelEquivalence(t *testing.T) {
	type state struct {
		dirty bool
		aux   uint8
	}
	type modelSet struct {
		order []uint64 // LRU order, front = LRU
	}
	for _, g := range []struct {
		sets  uint64
		ways  int
		space uint64
	}{
		{4, 3, 64},
		{8, 8, 256},
	} {
		cfg := &quick.Config{MaxCount: 200}
		if err := quick.Check(func(ops []uint16) bool {
			c := New(g.sets, g.ways)
			model := make([]modelSet, g.sets)
			lines := map[uint64]state{}

			remove := func(m *modelSet, addr uint64) {
				for i, a := range m.order {
					if a == addr {
						m.order = append(m.order[:i], m.order[i+1:]...)
						return
					}
				}
			}
			// fill checks a cache fill's eviction against the model and
			// installs addr as MRU.
			fill := func(m *modelSet, addr uint64, ev Eviction, st state) bool {
				if len(m.order) == g.ways {
					want := m.order[0]
					if !ev.Valid || ev.Addr != want || ev.Dirty != lines[want].dirty || ev.Aux != lines[want].aux {
						return false
					}
					m.order = m.order[1:]
					delete(lines, want)
				} else if ev.Valid {
					return false
				}
				m.order = append(m.order, addr)
				lines[addr] = st
				return true
			}
			for _, op := range ops {
				addr := uint64(op) % g.space
				aux := uint8(op>>8) & 0xF
				write := op&0x1000 != 0
				m := &model[addr%g.sets]
				st, present := lines[addr]
				switch op >> 13 {
				case 3:
					ev, filled := c.FillIfAbsent(addr, write, aux)
					if filled == present {
						return false
					}
					if !present && !fill(m, addr, ev, state{write, aux}) {
						return false
					}
				case 4:
					ev, filled := c.FillOrDirty(addr, aux)
					if filled == present {
						return false
					}
					if present {
						lines[addr] = state{true, st.aux}
					} else if !fill(m, addr, ev, state{true, aux}) {
						return false
					}
				case 5:
					ln, ok := c.Invalidate(addr)
					if ok != present || ok && (ln.Addr != addr || ln.Dirty != st.dirty || ln.Aux != st.aux) {
						return false
					}
					remove(m, addr)
					delete(lines, addr)
				case 6:
					if c.SetAux(addr, aux) != present {
						return false
					}
					if present {
						lines[addr] = state{st.dirty, aux}
					}
				case 7:
					ln, ok := c.Lookup(addr)
					if ok != present || ok && (ln.Addr != addr || ln.Dirty != st.dirty || ln.Aux != st.aux) {
						return false
					}
				default:
					if c.Access(addr, write) != present {
						return false
					}
					if present {
						remove(m, addr)
						m.order = append(m.order, addr)
						lines[addr] = state{st.dirty || write, st.aux}
						continue
					}
					if !fill(m, addr, c.Fill(addr, false, aux), state{false, aux}) {
						return false
					}
				}
			}
			return c.Count() == len(lines)
		}, cfg); err != nil {
			t.Fatalf("%d sets x %d ways: %v", g.sets, g.ways, err)
		}
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,0) did not panic")
		}
	}()
	New(0, 0)
}

func TestFillLRU(t *testing.T) {
	c := New(1, 3)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	// LRU-inserted line is the next victim even though it arrived last.
	c.FillLRU(3, false, 0)
	ev := c.Fill(4, false, 0)
	if ev.Addr != 3 {
		t.Fatalf("evicted %d, want the LRU-inserted 3", ev.Addr)
	}
	// A hit promotes an LRU-inserted line like any other.
	c2 := New(1, 2)
	c2.Fill(1, false, 0)
	c2.FillLRU(2, false, 0)
	c2.Access(2, false) // promote
	ev = c2.Fill(3, false, 0)
	if ev.Addr != 1 {
		t.Fatalf("evicted %d, want 1 after promotion of 2", ev.Addr)
	}
}

func TestFillLRUIntoEmptySet(t *testing.T) {
	c := New(1, 2)
	c.FillLRU(7, true, 3)
	ln, ok := c.Lookup(7)
	if !ok || !ln.Dirty || ln.Aux != 3 {
		t.Fatalf("FillLRU into empty set lost metadata: %+v %v", ln, ok)
	}
}

func TestFillLRUStampCollision(t *testing.T) {
	// Two successive LRU-inserts without intervening promotions drive the
	// set's minimum stamp to 0; the second insert must still land strictly
	// below the first (clamping both to 0 would tie them and evict the
	// older insert by way-index accident).
	c := New(1, 4)
	c.Fill(1, false, 0)
	c.Fill(2, false, 0)
	c.FillLRU(3, false, 0) // stamp 0
	c.FillLRU(4, false, 0) // min other stamp is already 0: renumber
	if ev := c.Victim(4); ev.Addr != 4 {
		t.Fatalf("next victim is %d, want the most recent LRU-insert 4", ev.Addr)
	}
	ev := c.Fill(5, false, 0)
	if ev.Addr != 4 {
		t.Fatalf("evicted %d, want 4", ev.Addr)
	}
	// Strict ordering must survive the renumbering for the rest of the set:
	// 3 (older LRU-insert) goes next, then 1 and 2 in fill order.
	for _, want := range []uint64{3, 1, 2} {
		if ev := c.Fill(want+100, false, 0); ev.Addr != want {
			t.Fatalf("evicted %d, want %d", ev.Addr, want)
		}
	}
}

// TestWayHint pins the way-hint contract: the hint is only an accelerator.
// A stale hint may cost a full sweep but can never change which way an
// operation selects or fabricate a hit; Access hits and fills retrain it.
// (With one set, hint entries — slab indices keyed by the line address's
// low bits — coincide with way numbers. New(1,4) has four slots, so lines
// 10 and 30 share slot 2, and 20 and 40 share slot 0.)
func TestWayHint(t *testing.T) {
	c := New(1, 4)
	hint := func(addr uint64) int { return int(c.hint[addr&c.hintMask]) }
	c.Fill(10, false, 0)
	c.Fill(20, false, 0)
	c.Fill(30, false, 0)
	if got := hint(30); got != 2 {
		t.Fatalf("hint after third fill = %d, want 2", got)
	}
	if !c.Access(10, false) {
		t.Fatal("lost line 10")
	}
	if got := hint(10); got != 0 {
		t.Fatalf("hint after re-hit on way 0 = %d, want 0", got)
	}
	// Invalidate the hinted line: the stale hint must neither resurrect it
	// nor misdirect lookups for the set's other lines, including the one
	// sharing its slot.
	c.Invalidate(10)
	if _, ok := c.Lookup(10); ok {
		t.Fatal("invalidated line still hits through the hint")
	}
	if !c.Access(30, false) {
		t.Fatal("stale hint broke an unrelated lookup")
	}
	// A fill hints the way it installed into.
	c.Fill(40, false, 0)
	w, ok := c.WayOf(40)
	if !ok {
		t.Fatal("lost line 40")
	}
	if got := hint(40); got != w {
		t.Fatalf("hint = %d after install into way %d", got, w)
	}
	// FillIfAbsent / FillOrDirty on a present line served via the hint must
	// not install, and FillOrDirty must still set the dirty bit.
	if _, filled := c.FillIfAbsent(40, false, 0); filled {
		t.Fatal("FillIfAbsent re-installed a hinted present line")
	}
	if _, filled := c.FillOrDirty(40, 0); filled {
		t.Fatal("FillOrDirty re-installed a hinted present line")
	}
	if ln, _ := c.Lookup(40); !ln.Dirty {
		t.Fatal("FillOrDirty through the hint lost the dirty bit")
	}
	// Lookup hits train the hint too: line 20's slot points at 40, so the
	// probe misses, and the sweep hit records 20's way for the next probe.
	if _, ok := c.Lookup(20); !ok {
		t.Fatal("lost line 20")
	}
	if w, _ := c.WayOf(20); hint(20) != w {
		t.Fatalf("hint = %d after Lookup hit on way %d", hint(20), w)
	}
}

// TestWayHintLineKeyed pins the table size and the keying: one slot per
// line (a power of two, capped at maxHintSlots but never below one per
// set), keyed by line-address bits above the set index too, so the ways
// of one set hold distinct hints at once.
func TestWayHintLineKeyed(t *testing.T) {
	for _, g := range []struct{ sets, ways, want uint64 }{
		{32, 8, 256},
		{3, 2, 4},
		{1, 1, 1},
		{1000, 3, 2048},
		{1 << 14, 16, 1 << 16},
		{1 << 17, 1, 1 << 17},
	} {
		if got := hintSlots(g.sets, g.sets*g.ways); got != g.want {
			t.Errorf("hintSlots(%d sets, %d ways) = %d, want %d", g.sets, g.ways, got, g.want)
		}
	}
	const sets, ways = 32, 8
	c := New(sets, ways)
	for w := uint64(0); w < ways; w++ {
		c.Fill(5+w*sets, false, 0) // all in set 5
	}
	for w := uint64(0); w < ways; w++ {
		addr := 5 + w*sets
		i, ok := c.find(addr)
		if !ok || uint64(c.hint[addr&c.hintMask]) != i {
			t.Fatalf("line %d (way %d) is not served by its own hint slot", addr, w)
		}
	}
}

// BenchmarkAccessRepeatHit is the path the way-hint serves: back-to-back
// hits on one line touch a single tag word instead of sweeping the set.
func BenchmarkAccessRepeatHit(b *testing.B) {
	c := New(1024, 8)
	for i := uint64(0); i < 8*1024; i++ {
		c.Fill(i, false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(5, false) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAccessWaySweep defeats the hint on every access (round-robin
// over a set's ways), timing the full-sweep fallback for contrast. The
// stride is sets×ways, the hint table's size, so all eight lines share one
// set and one hint slot.
func BenchmarkAccessWaySweep(b *testing.B) {
	const sets, ways = 1024, 8
	c := New(sets, ways)
	for w := uint64(0); w < ways; w++ {
		c.Fill(w*sets*ways+5, false, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(uint64(i%ways)*sets*ways+5, false) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkAccessNearReuse is the L1 pattern of trace.Gen's near-reuse
// component: uniform hits over 64 recently used lines in a 32×8 cache,
// two lines per set.
func BenchmarkAccessNearReuse(b *testing.B) {
	c := New(32, 8)
	var lines [64]uint64
	r := uint64(0x9e3779b97f4a7c15)
	for i := range lines {
		for {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			a := r % (1 << 20)
			if c.Victim(a).Valid {
				continue // set full: keep every line resident
			}
			if _, filled := c.FillIfAbsent(a, false, 0); filled {
				lines[i] = a
				break
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !c.Access(lines[(uint64(i)*0x9e3779b97f4a7c15)>>58], false) {
			b.Fatal("miss")
		}
	}
}

// TestWayHintAliasing pins the masked-hint invariant: hint entries are
// keyed by the line address's low bits, so under a non-power-of-two
// geometry lines of different sets share a slot — a hint trained by one
// set is consulted by another. Tag
// verification must turn every alias into a clean sweep fall-through,
// never a wrong-way hit or a fabricated one.
func TestWayHintAliasing(t *testing.T) {
	c := New(3, 2)      // hintMask = 3: lines 6 and 2 share slot 2
	c.Fill(6, false, 0) // set 0
	c.Fill(2, false, 0) // set 2; retrains the shared slot
	if !c.Access(6, false) {
		t.Fatal("aliased hint broke a set-0 access")
	}
	if !c.Access(2, false) {
		t.Fatal("retraining ping-pong lost the set-2 line")
	}
	if _, ok := c.Lookup(8); ok { // set 2, never filled
		t.Fatal("aliased hint fabricated a hit")
	}
}
