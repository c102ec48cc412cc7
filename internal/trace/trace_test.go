package trace

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCatalogSane(t *testing.T) {
	if len(Catalog) != 16 {
		t.Fatalf("catalog has %d benchmarks, want 16 (Table 2)", len(Catalog))
	}
	high, medium := 0, 0
	for _, b := range Catalog {
		if b.MPKI <= 1 {
			t.Errorf("%s: MPKI %v <= 1 (paper only keeps MPKI > 1)", b.Name, b.MPKI)
		}
		if b.FootprintMB <= 0 {
			t.Errorf("%s: footprint %d", b.Name, b.FootprintMB)
		}
		if b.SeqFrac+b.HotFrac > 1 {
			t.Errorf("%s: SeqFrac+HotFrac = %v > 1", b.Name, b.SeqFrac+b.HotFrac)
		}
		if b.StoreFrac < 0 || b.StoreFrac > 1 {
			t.Errorf("%s: StoreFrac %v", b.Name, b.StoreFrac)
		}
		if b.APKI <= b.MPKI {
			t.Errorf("%s: APKI %v <= MPKI %v", b.Name, b.APKI, b.MPKI)
		}
		if b.HighIntensive() {
			high++
		} else {
			medium++
		}
	}
	// 8 high-intensive, 8 medium (sphinx3 counts as medium; see
	// Benchmark.HighIntensive).
	if high != 8 || medium != 8 {
		t.Errorf("intensity split = %dH/%dM, want 8H/8M", high, medium)
	}
}

func TestByName(t *testing.T) {
	b, err := ByName("mcf")
	if err != nil || b.MPKI != 74.6 {
		t.Fatalf("ByName(mcf) = %+v, %v", b, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown name did not error")
	}
}

func TestDetailedMixesMatchTable3(t *testing.T) {
	if len(detailedMixes) != 8 {
		t.Fatalf("%d detailed mixes, want 8", len(detailedMixes))
	}
	wantClass := []string{"8H", "6H+2M", "6H+2M", "4H+4M", "4H+4M", "2H+6M", "2H+6M", "8M"}
	for i := range detailedMixes {
		w, err := Mix(i+1, 8, 64, 1)
		if err != nil {
			t.Fatalf("Mix(%d): %v", i+1, err)
		}
		if got := MixClass(w); got != wantClass[i] {
			t.Errorf("MIX%d class = %s, want %s", i+1, got, wantClass[i])
		}
		if len(w.Sources) != 8 {
			t.Errorf("MIX%d has %d sources", i+1, len(w.Sources))
		}
	}
}

func TestGeneratedMixes(t *testing.T) {
	for n := 9; n <= 38; n++ {
		w, err := Mix(n, 8, 64, 1)
		if err != nil {
			t.Fatalf("Mix(%d): %v", n, err)
		}
		if len(w.Benchs) != 8 {
			t.Fatalf("Mix(%d) has %d benchmarks", n, len(w.Benchs))
		}
		// Deterministic: same n gives same composition.
		w2, _ := Mix(n, 8, 64, 1)
		for i := range w.Benchs {
			if w.Benchs[i].Name != w2.Benchs[i].Name {
				t.Fatalf("Mix(%d) not deterministic", n)
			}
		}
	}
	if _, err := Mix(0, 8, 64, 1); err == nil {
		t.Fatal("Mix(0) should error")
	}
	if _, err := Mix(39, 8, 64, 1); err == nil {
		t.Fatal("Mix(39) should error")
	}
}

func TestRateWorkload(t *testing.T) {
	w, err := Rate("lbm", 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 8 || w.IsMix {
		t.Fatalf("rate workload malformed: %+v", w)
	}
	if _, err := Rate("bogus", 8, 64, 1); err == nil {
		t.Fatal("unknown rate workload did not error")
	}
}

func TestSingleWorkload(t *testing.T) {
	w, err := Single("gcc", 8, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Sources) != 1 {
		t.Fatalf("single workload has %d sources, want 1", len(w.Sources))
	}
}

func TestGenDeterminism(t *testing.T) {
	b, _ := ByName("soplex")
	a := NewGen(b, 2, 64, 7)
	c := NewGen(b, 2, 64, 7)
	var oa, oc Op
	for i := 0; i < 10000; i++ {
		a.Next(&oa)
		c.Next(&oc)
		if oa != oc {
			t.Fatalf("generators diverged at op %d: %+v vs %+v", i, oa, oc)
		}
	}
}

func TestCoreRegionsDisjoint(t *testing.T) {
	b, _ := ByName("mcf") // largest footprint
	gens := make([]*Gen, 8)
	for c := range gens {
		gens[c] = NewGen(b, c, 1, 1) // full scale: worst case
	}
	for c := 1; c < 8; c++ {
		loEnd := gens[c-1].base + gens[c-1].footLines
		if gens[c].base < loEnd {
			t.Fatalf("core %d region overlaps core %d (base %d < end %d)",
				c, c-1, gens[c].base, loEnd)
		}
	}
}

func TestAddressesWithinRegion(t *testing.T) {
	for _, name := range []string{"mcf", "libq", "xalanc"} {
		b, _ := ByName(name)
		g := NewGen(b, 3, 64, 5)
		lo, hi := g.base, g.base+g.footLines
		var op Op
		for i := 0; i < 50000; i++ {
			g.Next(&op)
			if op.Line < lo || op.Line >= hi {
				t.Fatalf("%s: address %d outside region [%d,%d)", name, op.Line, lo, hi)
			}
		}
	}
}

func TestMissFractionMatchesMPKI(t *testing.T) {
	// The far-access rate per kilo-instruction should approximate the
	// benchmark's MPKI (far accesses are the ones that reach the L3/L4).
	for _, name := range []string{"mcf", "libq", "wrf"} {
		b, _ := ByName(name)
		g := NewGen(b, 0, 64, 3)
		var op Op
		far := 0
		instr := uint64(0)
		const ops = 300000
		seen := map[uint64]bool{}
		for i := 0; i < ops; i++ {
			g.Next(&op)
			instr += uint64(op.NonMem) + 1
			if op.PC >= pcHot { // far-access PC pools
				far++
			}
			seen[op.Line] = true
		}
		gotMPKI := 1000 * float64(far) / float64(instr)
		if gotMPKI < b.MPKI*0.8 || gotMPKI > b.MPKI*1.25 {
			t.Errorf("%s: far-access KPKI = %.1f, want about %.1f", name, gotMPKI, b.MPKI)
		}
	}
}

func TestStoreFraction(t *testing.T) {
	b, _ := ByName("lbm")
	g := NewGen(b, 0, 64, 9)
	var op Op
	stores := 0
	const n = 100000
	for i := 0; i < n; i++ {
		g.Next(&op)
		if op.Store {
			stores++
		}
	}
	got := float64(stores) / n
	if got < b.StoreFrac-0.02 || got > b.StoreFrac+0.02 {
		t.Errorf("store fraction = %.3f, want about %.2f", got, b.StoreFrac)
	}
}

func TestFootprintScaling(t *testing.T) {
	b, _ := ByName("milc")
	full := NewGen(b, 0, 1, 1).FootprintLines()
	scaled := NewGen(b, 0, 8, 1).FootprintLines()
	if scaled != full/8 {
		t.Errorf("scale 8 footprint = %d, want %d", scaled, full/8)
	}
	// Footprint floor.
	tiny := NewGen(b, 0, 1<<30, 1).FootprintLines()
	if tiny < 1024 {
		t.Errorf("footprint fell below floor: %d", tiny)
	}
}

func TestPrewarm(t *testing.T) {
	b, _ := ByName("Gems")
	g := NewGen(b, 1, 64, 1)
	var lines []uint64
	g.Prewarm(5000, func(l uint64) { lines = append(lines, l) })
	if uint64(len(lines)) > 5000 {
		t.Fatalf("prewarm exceeded limit: %d", len(lines))
	}
	seen := map[uint64]bool{}
	for _, l := range lines {
		if l < g.base || l >= g.base+g.footLines {
			t.Fatalf("prewarm line %d outside footprint", l)
		}
		if seen[l] {
			t.Fatalf("prewarm visited %d twice", l)
		}
		seen[l] = true
	}
	// Hot set comes first.
	if g.hotLines > 0 && lines[0] != g.hotBase {
		t.Errorf("prewarm did not start with the hot set")
	}
}

func TestPrewarmProperty(t *testing.T) {
	b, _ := ByName("bzip2")
	if err := quick.Check(func(limit uint16) bool {
		g := NewGen(b, 0, 64, 2)
		count := uint64(0)
		g.Prewarm(uint64(limit), func(uint64) { count++ })
		want := uint64(limit)
		if max := g.footLines; want > max {
			want = max
		}
		return count == want
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRateNames(t *testing.T) {
	names := RateNames()
	if len(names) != 16 {
		t.Fatalf("%d rate names", len(names))
	}
	if names[0] != "mcf" {
		t.Errorf("first rate name = %s", names[0])
	}
}

func TestDescribe(t *testing.T) {
	d := Describe()
	for _, want := range []string{"mcf", "74.6", "High", "Medium", "xalanc"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() missing %q", want)
		}
	}
}

func TestNonMemAveragesToAPKI(t *testing.T) {
	b, _ := ByName("cactus")
	g := NewGen(b, 0, 64, 4)
	var op Op
	var instr uint64
	const ops = 200000
	for i := 0; i < ops; i++ {
		g.Next(&op)
		instr += uint64(op.NonMem) + 1
	}
	apki := 1000 * float64(ops) / float64(instr)
	if apki < b.APKI*0.97 || apki > b.APKI*1.03 {
		t.Errorf("measured APKI = %.1f, want about %.0f", apki, b.APKI)
	}
}

// refStoreLine and refNext are Gen's float-compare draw logic as it was
// before the integer thresholds: Bool(MPKI/APKI) for near reuse, a
// Float64 against HotFrac and HotFrac+SeqFrac for the far component, and a
// float store fraction per line. TestGenMatchesFloatReference holds the
// integer version to them op for op.
func refStoreLine(g *Gen, line uint64) bool {
	x := line * 0x9e3779b97f4a7c15
	x ^= x >> 29
	return float64(x&0xFFFF)/0x10000 < g.b.StoreFrac
}

func refNext(g *Gen, op *Op) {
	g.nonMemQ += g.gapPerOp
	nm := uint32(g.nonMemQ)
	g.nonMemQ -= float64(nm)
	op.NonMem = nm

	if g.recentLen > 0 && !g.r.Bool(g.b.MPKI/g.b.APKI) {
		op.Line = g.recent[g.r.Intn(g.recentLen)]
		op.PC = pcNear + uint64(g.r.Intn(8))*4
		op.Store = refStoreLine(g, op.Line)
		return
	}
	x := g.r.Float64()
	switch {
	case x < g.b.HotFrac && g.hotLines > 0:
		op.Line = g.hotBase + g.r.Uint64n(g.hotLines)
		op.PC = pcHot + uint64(g.r.Intn(8))*4
	case x < g.b.HotFrac+g.b.SeqFrac:
		op.Line = g.seqCursor
		g.seqCursor++
		if g.seqCursor >= g.base+g.footLines {
			g.seqCursor = g.base
		}
		op.PC = pcSeq + uint64(g.r.Intn(8))*4
	default:
		op.Line = g.base + g.r.Uint64n(g.footLines)
		op.PC = pcRand + uint64(g.r.Intn(8))*4
	}
	op.Store = refStoreLine(g, op.Line)
	g.remember(op.Line)
}

// TestGenMatchesFloatReference proves the integer thresholds exact: every
// catalog benchmark, on two cores and two seeds, emits the same ops as the
// float reference.
func TestGenMatchesFloatReference(t *testing.T) {
	const ops = 200000
	for _, b := range Catalog {
		for _, core := range []int{0, 5} {
			for _, seed := range []uint64{1, 0xdecafbad} {
				g, ref := NewGen(b, core, 256, seed), NewGen(b, core, 256, seed)
				var got, want Op
				for i := 0; i < ops; i++ {
					g.Next(&got)
					refNext(ref, &want)
					if got != want {
						t.Fatalf("%s core %d seed %#x op %d: got %+v, float reference %+v", b.Name, core, seed, i, got, want)
					}
				}
			}
		}
	}
}

// TestThresh53Boundaries checks the threshold at its edge: for every
// probability the generator compares against (plus 0, 1 and a tiny one),
// v = T-1 passes the float compare and v = T fails it.
func TestThresh53Boundaries(t *testing.T) {
	ps := []float64{0, 1, 0x1p-60}
	for _, b := range Catalog {
		ps = append(ps, b.MPKI/b.APKI, b.HotFrac, b.HotFrac+b.SeqFrac, b.StoreFrac)
	}
	for _, p := range ps {
		for _, k := range []uint{53, 16} {
			T := thresh(p, k)
			below := func(v uint64) bool { return float64(v)/float64(uint64(1)<<k) < p }
			if T > 0 && !below(T-1) {
				t.Errorf("p=%v k=%d: v=T-1=%d fails the float compare", p, k, T-1)
			}
			if T < 1<<k && below(T) {
				t.Errorf("p=%v k=%d: v=T=%d passes the float compare", p, k, T)
			}
		}
	}
}
