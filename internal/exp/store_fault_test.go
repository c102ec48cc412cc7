package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"bear/internal/config"
	"bear/internal/faultpoint"
	"bear/internal/stats"
)

// runForUnit derives a distinguishable result per key so cross-unit mixups
// would be caught, not just corruption.
func runForUnit(i int) *stats.Run {
	r := sampleRun()
	r.Cycles = uint64(1_000_000 + i)
	r.Workload = fmt.Sprintf("wl%d", i)
	return r
}

// TestStoreConcurrentWriters hammers one store from many goroutines —
// including two writers racing on the same key — and then verifies every
// load returns an intact, correctly attributed result. The store's
// write-to-temp-then-rename discipline must make racing writers
// last-writer-wins at whole-entry granularity, never a spliced file.
func TestStoreConcurrentWriters(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	const units = 32
	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("unit-%d", i%16) // i>=16 re-writes a key
			st.Save(key, runForUnit(i%16))
		}()
	}
	wg.Wait()
	if st.SaveErrors() != 0 {
		t.Fatalf("SaveErrors = %d", st.SaveErrors())
	}
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("unit-%d", i)
		got, ok := st.Load(key)
		if !ok {
			t.Fatalf("%s not loadable after concurrent writes", key)
		}
		if want := runForUnit(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s corrupted by concurrent writers:\n  want %+v\n  got  %+v", key, want, got)
		}
	}
}

// TestStoreInjectedWriteFaults arms each write-path fault in turn and pins
// the containment contract: the fault lands in the deterministic fired
// table, and a subsequent Load either serves the intact pre-fault entry or
// reports a miss — never corrupt data.
func TestStoreInjectedWriteFaults(t *testing.T) {
	cases := []struct {
		plan string
		// saveErr: the faulted Save must count a save error (the write
		// itself failed); otherwise the damage is latent until Load.
		saveErr bool
	}{
		{"enospc@store.save/unit-a", true},
		{"torn-write@store.save/unit-a", false},
		{"corrupt-checksum@store.save/unit-a", false},
		{"kill-worker@store.rename/unit-a", true},
	}
	for _, c := range cases {
		t.Run(c.plan, func(t *testing.T) {
			defer faultpoint.Disarm()
			st, err := OpenStore(t.TempDir(), "fp1")
			if err != nil {
				t.Fatal(err)
			}
			plan, err := faultpoint.ParsePlan(c.plan)
			if err != nil {
				t.Fatal(err)
			}
			faultpoint.Arm(plan)
			st.Save("unit-a", sampleRun())
			fired := faultpoint.Fired()
			if len(fired) != 1 || fired[0].String() != c.plan+"#1" {
				t.Fatalf("fired table = %v, want exactly %s#1", fired, c.plan)
			}
			if gotErr := st.SaveErrors() > 0; gotErr != c.saveErr {
				t.Errorf("SaveErrors = %d, want >0: %v", st.SaveErrors(), c.saveErr)
			}
			if res, ok := st.Load("unit-a"); ok {
				// Only a structurally intact entry may load; verify bytes.
				if !reflect.DeepEqual(res, sampleRun()) {
					t.Fatalf("Load served damaged data: %+v", res)
				}
			}
			// The retry (the fault fires exactly once) must repair the
			// entry and resume byte-identically.
			st.Save("unit-a", sampleRun())
			res, ok := st.Load("unit-a")
			if !ok || !reflect.DeepEqual(res, sampleRun()) {
				t.Fatalf("retry after %s did not restore the entry (ok=%v)", c.plan, ok)
			}
		})
	}
}

// TestStoreCrashMidRename proves the crash-window story end to end: a
// write that dies between the temp write and the rename leaves a .tmp
// stray and no entry; a resume neither trusts the stray nor trips over it,
// and after the re-run the store is byte-identical to one that never
// crashed.
func TestStoreCrashMidRename(t *testing.T) {
	defer faultpoint.Disarm()
	cleanDir, crashDir := t.TempDir(), t.TempDir()

	clean, err := OpenStore(cleanDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	clean.Save("unit-a", sampleRun())

	crashed, err := OpenStore(crashDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultpoint.ParsePlan("kill-worker@store.rename/unit-a")
	if err != nil {
		t.Fatal(err)
	}
	faultpoint.Arm(plan)
	crashed.Save("unit-a", sampleRun())
	faultpoint.Disarm()

	if _, ok := crashed.Load("unit-a"); ok {
		t.Fatal("entry visible despite crash before rename")
	}
	tmps, err := filepath.Glob(filepath.Join(crashDir, "*.tmp"))
	if err != nil || len(tmps) != 1 {
		t.Fatalf("crash left %d stray temp files (err=%v), want 1", len(tmps), err)
	}

	// The resume path: a fresh store over the same dir re-runs the unit.
	resumed, err := OpenStore(crashDir, "fp1")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := resumed.Load("unit-a"); ok {
		t.Fatal("fresh store trusted the stray temp file")
	}
	resumed.Save("unit-a", sampleRun())

	// Byte-identical to the never-crashed store, stray temp aside.
	wantRaw, err := os.ReadFile(clean.path("unit-a"))
	if err != nil {
		t.Fatal(err)
	}
	gotRaw, err := os.ReadFile(resumed.path("unit-a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotRaw) != string(wantRaw) {
		t.Fatal("resumed entry differs from the uninjected run's bytes")
	}
}

// TestStoreIngest covers the worker-envelope path bearserve relies on:
// a frame produced by EncodeEnvelope round-trips through Ingest into a
// loadable entry, while damaged, foreign-fingerprint, or garbage frames
// are refused with nothing persisted.
func TestStoreIngest(t *testing.T) {
	st, err := OpenStore(t.TempDir(), "fp1")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := EncodeEnvelope("fp1", "unit-a", sampleRun())
	if err != nil {
		t.Fatal(err)
	}
	key, err := st.Ingest(raw)
	if err != nil || key != "unit-a" {
		t.Fatalf("Ingest = (%q, %v)", key, err)
	}
	got, ok := st.Load("unit-a")
	if !ok || !reflect.DeepEqual(got, sampleRun()) {
		t.Fatalf("ingested entry not loadable intact (ok=%v)", ok)
	}

	bad := [][]byte{
		[]byte("garbage"),
		raw[:len(raw)/2],
	}
	if foreign, err := EncodeEnvelope("fp-other", "unit-b", sampleRun()); err == nil {
		bad = append(bad, foreign)
	}
	mangled := append([]byte(nil), raw...)
	for i := range mangled {
		// Flip a byte inside the result payload, not the envelope framing.
		if i > len(mangled)/2 && mangled[i] >= '1' && mangled[i] <= '8' {
			mangled[i]++
			break
		}
	}
	bad = append(bad, mangled)
	for i, frame := range bad {
		if key, err := st.Ingest(frame); err == nil {
			t.Errorf("bad frame %d ingested as %q", i, key)
		}
	}
	if _, ok := st.Load("unit-b"); ok {
		t.Error("refused frame persisted an entry")
	}
}

// TestUnitSpecKeysMatchRunner pins the interoperability contract: the key
// a UnitSpec computes is the key the Runner's own store writes, so a
// bearserve-populated store resumes a bearbench (or bearsim) sweep. Every
// design alias resolves, and the pinned keys are the exact keys stores
// have always held (captured before UnitSpec became the memo key), so no
// existing store is re-keyed.
func TestUnitSpecKeysMatchRunner(t *testing.T) {
	const alloyKey = "{design:1 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|soplex"
	for _, tc := range []struct {
		u          UnitSpec
		design     config.Design
		overridden bool   // the key must differ from the plain design's
		key        string // pinned store key; empty = not pinned
	}{
		{UnitSpec{Design: "Alloy", Workload: "soplex"}, config.Alloy, false, alloyKey},
		{UnitSpec{Design: "Alloy", Workload: "soplex", BypassProb: 0.9}, config.Alloy, false, alloyKey},
		{UnitSpec{Design: "bear", Workload: "MIX3"}, config.BEAR, false, ""},
		{UnitSpec{Design: "BEAR", Workload: "soplex@single"}, config.BEAR, false, ""},
		{UnitSpec{Design: "bwopt", Workload: "mcf"}, config.BWOpt, false, ""},
		{UnitSpec{Design: "BWOpt", Workload: "mcf"}, config.BWOpt, false, ""},
		{UnitSpec{Design: "lohhill", Workload: "mcf"}, config.LohHill, false, ""},
		{UnitSpec{Design: "incl", Workload: "mcf"}, config.InclAlloy, false, ""},
		{UnitSpec{Design: "Alloy", Workload: "mcf", Bypass: config.BandwidthAware, DCP: true}, config.Alloy, true, ""},
		{UnitSpec{Design: "SC", Workload: "mcf", L4Channels: 2, CapacityMB: 512}, config.Sector, true, ""},
		{UnitSpec{Design: "NoL4", Workload: "mcf"}, config.NoL4, false, "{design:0 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Alloy", Workload: "mcf"}, config.Alloy, false, "{design:1 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "BEAR", Workload: "mcf"}, config.BEAR, false, "{design:2 bypass:2 prob:0.9 dcp:true ntc:true channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "BW-Opt", Workload: "mcf"}, config.BWOpt, false, "{design:3 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "LH", Workload: "mcf"}, config.LohHill, false, "{design:4 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "MC", Workload: "mcf"}, config.MostlyClean, false, "{design:5 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Incl-Alloy", Workload: "mcf"}, config.InclAlloy, false, "{design:6 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "TIS", Workload: "mcf"}, config.TIS, false, "{design:7 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "SC", Workload: "mcf"}, config.Sector, false, "{design:8 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Banshee", Workload: "mcf"}, config.Banshee, false, "{design:9 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "TicToc", Workload: "mcf"}, config.TicToc, false, "{design:10 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "BEAR", Workload: "mcf", NTCEntries: 16}, config.BEAR, true, "{design:2 bypass:2 prob:0.9 dcp:true ntc:true channels:0 banks:0 capacityMB:0 ntcEntries:16 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Alloy", Workload: "mcf", Pred: config.PredPerfect}, config.Alloy, true, "{design:1 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:1 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Alloy", Workload: "mcf", WBAllocate: true}, config.Alloy, true, "{design:1 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:true ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "Alloy", Workload: "mcf", TTC: true}, config.Alloy, true, "{design:1 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:true lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "LH", Workload: "mcf", LHDIP: true}, config.LohHill, true, "{design:4 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:true tisDIP:false}|mcf"},
		{UnitSpec{Design: "TIS", Workload: "mcf", TISDIP: true}, config.TIS, true, "{design:7 bypass:0 prob:0.9 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:true}|mcf"},
		{UnitSpec{Design: "Alloy", Workload: "MIX2", Bypass: config.ProbBypass, BypassProb: 0.5}, config.Alloy, true, "{design:1 bypass:1 prob:0.5 dcp:false ntc:false channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|MIX2"},
		{UnitSpec{Design: "SC", Workload: "mcf", L4Channels: 2, L4Banks: 32, CapacityMB: 512}, config.Sector, true, "{design:8 bypass:0 prob:0.9 dcp:false ntc:false channels:2 banks:32 capacityMB:512 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|mcf"},
		{UnitSpec{Design: "alloy", Workload: "lbm@single", Bypass: config.ProbBypass, BypassProb: 0.75, DCP: true, NTC: true}, config.Alloy, true, "{design:1 bypass:1 prob:0.75 dcp:true ntc:true channels:0 banks:0 capacityMB:0 ntcEntries:0 pred:0 wbAllocate:false ttc:false lhDIP:false tisDIP:false}|lbm@single"},
	} {
		u := tc.u
		key, err := u.Key()
		if err != nil {
			t.Fatalf("%s: %v", u, err)
		}
		canon, err := u.resolve()
		if err != nil {
			t.Fatal(err)
		}
		if canon.Design != tc.design.String() {
			t.Errorf("%s resolved to %s, want %s", u, canon.Design, tc.design)
		}
		if want := canon.storeKey(); key != want {
			t.Errorf("%s: Key=%q, runner uses %q", u, key, want)
		}
		if tc.key != "" && key != tc.key {
			t.Errorf("%s: Key=%q, want the pinned %q", u, key, tc.key)
		}
		plain, err := UnitSpec{Design: tc.design.String(), Workload: u.Workload}.Key()
		if err != nil {
			t.Fatal(err)
		}
		if (key != plain) != tc.overridden {
			t.Errorf("%s: Key=%q against the plain design's %q, want overridden=%v", u, key, plain, tc.overridden)
		}
	}
	// The new fields are omitempty: a unit that sets none of them keeps
	// the wire form it always had.
	if b, err := json.Marshal(UnitSpec{Design: "Alloy", Workload: "soplex"}); err != nil || string(b) != `{"design":"Alloy","workload":"soplex"}` {
		t.Errorf("plain unit marshals to %s (%v)", b, err)
	}
	for alias := range unitDesigns {
		if err := (UnitSpec{Design: alias, Workload: "mcf"}).Validate(); err != nil {
			t.Errorf("alias %q: %v", alias, err)
		}
	}
	if names := UnitDesignNames(); len(names) != 11 {
		t.Errorf("UnitDesignNames() = %v, want the 11 designs once each", names)
	}
	if _, err := (UnitSpec{Design: "nope", Workload: "x"}).Key(); err == nil {
		t.Error("unknown design accepted")
	}
	if err := (UnitSpec{Design: "Alloy"}).Validate(); err == nil {
		t.Error("empty workload accepted")
	}
	// Each override is rejected on every design whose dramcache.Build path
	// ignores it.
	for _, tc := range []struct {
		u        UnitSpec
		override string
	}{
		{UnitSpec{Design: "BW-Opt", Workload: "mcf", DCP: true}, "dcp"},
		{UnitSpec{Design: "BEAR", Workload: "mcf", Bypass: config.ProbBypass}, "bypass"},
		{UnitSpec{Design: "Banshee", Workload: "mcf", NTC: true}, "ntc"},
		{UnitSpec{Design: "TIS", Workload: "mcf", LHDIP: true}, "lh_dip"},
		{UnitSpec{Design: "MC", Workload: "mcf", LHDIP: true}, "lh_dip"},
		{UnitSpec{Design: "LH", Workload: "mcf", TISDIP: true}, "tis_dip"},
		{UnitSpec{Design: "SC", Workload: "mcf", TISDIP: true}, "tis_dip"},
		{UnitSpec{Design: "BW-Opt", Workload: "mcf", Pred: config.PredPerfect}, "pred"},
		{UnitSpec{Design: "LH", Workload: "mcf", Pred: config.PredAlwaysHit}, "pred"},
		{UnitSpec{Design: "BW-Opt", Workload: "mcf", WBAllocate: true}, "wb_allocate"},
		{UnitSpec{Design: "TicToc", Workload: "mcf", WBAllocate: true}, "wb_allocate"},
		{UnitSpec{Design: "BW-Opt", Workload: "mcf", TTC: true}, "ttc"},
		{UnitSpec{Design: "Banshee", Workload: "mcf", TTC: true}, "ttc"},
		{UnitSpec{Design: "Alloy", Workload: "mcf", NTCEntries: 16}, "ntc_entries"},
		{UnitSpec{Design: "NoL4", Workload: "mcf", NTCEntries: 16}, "ntc_entries"},
	} {
		var oe *OverrideError
		if err := tc.u.Validate(); !errors.As(err, &oe) || oe.Override != tc.override {
			t.Errorf("%+v: err = %v, want *OverrideError for %s", tc.u, err, tc.override)
		}
	}
}

// TestInterruptRefusesQueuedUnits: a unit already requested but still
// waiting for a worker slot when Interrupt comes never starts; it fails
// with ErrInterrupted, and the refusal is not memoised.
func TestInterruptRefusesQueuedUnits(t *testing.T) {
	r := NewRunner(tinyParams())
	r.sem = make(chan struct{}, 1)
	r.sem <- struct{}{} // the only slot is busy
	f, err := r.UnitAsync(specAlloy.on("soplex"))
	if err != nil {
		t.Fatal(err)
	}
	r.Interrupt()
	<-r.sem
	if _, err := f.Wait(); err != ErrInterrupted {
		t.Fatalf("queued unit error = %v, want ErrInterrupted", err)
	}
	if r.Count() != 0 || len(r.Failures()) != 0 {
		t.Fatalf("queued unit ran or failed: Count=%d Failures=%v", r.Count(), r.Failures())
	}
	r.mu.Lock()
	n := len(r.memo)
	r.mu.Unlock()
	if n != 0 {
		t.Fatalf("refusal memoised (%d memo entries)", n)
	}
}

// TestRunnerInterrupt: in-flight and completed units persist; units
// requested after Interrupt fail fast with ErrInterrupted and stay out of
// the failure table.
func TestRunnerInterrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real simulation; skipped with -short")
	}
	p := tinyParams()
	st, err := OpenStore(t.TempDir(), p.Fingerprint("test-build"))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(p)
	r.Store = st
	if _, err := r.RunUnit(specAlloy.on("soplex")); err != nil {
		t.Fatal(err)
	}
	r.Interrupt()
	if !r.Interrupted() {
		t.Fatal("Interrupted() false after Interrupt")
	}
	if _, err := r.RunUnit(specAlloy.on("libq")); err != ErrInterrupted {
		t.Fatalf("post-interrupt unit error = %v, want ErrInterrupted", err)
	}
	// The pre-interrupt unit is already memoised and still served.
	if _, err := r.RunUnit(specAlloy.on("soplex")); err != nil {
		t.Fatalf("memoised unit unavailable after interrupt: %v", err)
	}
	if n := len(r.Failures()); n != 0 {
		t.Fatalf("interrupt polluted the failure table: %v", r.Failures())
	}
	// And it was checkpointed: a fresh runner restores it from the store.
	r2 := NewRunner(p)
	r2.Store = st
	if _, err := r2.RunUnit(specAlloy.on("soplex")); err != nil {
		t.Fatal(err)
	}
	if r2.Restored() != 1 || r2.Count() != 0 {
		t.Fatalf("resume after interrupt: Restored=%d Count=%d, want 1/0", r2.Restored(), r2.Count())
	}
}
