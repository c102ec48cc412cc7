package exp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"bear/internal/config"
	"bear/internal/stats"
	"bear/internal/trace"
)

// UnitSpec is one sweep unit: a design by name, a workload, and optional
// overrides of the design's paper-default system. It is the only form of
// a unit in this package. Experiments name their variants as UnitSpecs,
// its resolved (canonical) form is the Runner's memo key, and that key
// renders the result-store key. It is also the wire form: the unit of
// fault isolation in bearserve — the server serializes UnitSpecs to
// worker subprocesses (bearbench -worker) and each worker simulates
// exactly one before reporting back — the unit of resume in bearbench and
// bearsim, whose store entries the server's share keys with (see Key),
// and the unit the bear facade runs.
//
// Workload naming follows the Runner's vocabulary (see Runner.load): a
// rate benchmark name ("soplex"), "MIX<n>" for mixed workload n, or
// "<bench>@single" for a single-program run.
//
// Every override's zero value means "paper default", so a unit without
// overrides resolves to exactly the unit (and store key) the experiments
// use for its design.
type UnitSpec struct {
	Design   string `json:"design"`
	Workload string `json:"workload"`

	// Bypass, DCP and NTC enable BEAR's components one by one on an
	// Alloy-family baseline (Figures 7/9/11); other designs reject them.
	Bypass     config.BypassPolicy `json:"bypass,omitempty"`
	BypassProb float64             `json:"bypass_prob,omitempty"`
	DCP        bool                `json:"dcp,omitempty"`
	NTC        bool                `json:"ntc,omitempty"`

	// Sensitivity-study geometry: L4 channels, banks per channel, and the
	// full-scale capacity in MB.
	L4Channels int   `json:"l4_channels,omitempty"`
	L4Banks    int   `json:"l4_banks,omitempty"`
	CapacityMB int64 `json:"capacity_mb,omitempty"`

	// Ablation knobs (ablations.go): NTC entries per bank, the miss
	// predictor, writeback-allocate and the temporal tag cache on the
	// Alloy line (Alloy, BEAR, Incl-Alloy), and DIP insertion on LH or
	// TIS. Each is rejected on designs that do not read it.
	NTCEntries int             `json:"ntc_entries,omitempty"`
	Pred       config.PredMode `json:"pred,omitempty"`
	WBAllocate bool            `json:"wb_allocate,omitempty"`
	TTC        bool            `json:"ttc,omitempty"`
	LHDIP      bool            `json:"lh_dip,omitempty"`
	TISDIP     bool            `json:"tis_dip,omitempty"`
}

func (u UnitSpec) String() string { return u.Design + "/" + u.Workload }

// unitDesigns maps design names and their aliases (case-insensitively) to
// designs. It is the one design-name table every command parses with.
var unitDesigns = map[string]config.Design{
	"nol4": config.NoL4, "alloy": config.Alloy, "bear": config.BEAR,
	"bw-opt": config.BWOpt, "bwopt": config.BWOpt,
	"lh": config.LohHill, "lohhill": config.LohHill, "mc": config.MostlyClean,
	"incl-alloy": config.InclAlloy, "incl": config.InclAlloy,
	"tis": config.TIS, "sc": config.Sector,
	"banshee": config.Banshee, "tictoc": config.TicToc,
}

func lookupDesign(name string) (config.Design, bool) {
	d, ok := unitDesigns[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// UnitDesignNames lists the designs UnitSpec accepts, sorted, once each
// in their canonical (Design.String) casing.
func UnitDesignNames() []string {
	var names []string
	for _, d := range unitDesigns {
		names = append(names, d.String())
	}
	sort.Strings(names)
	return slices.Compact(names)
}

// OverrideError reports a unit override its design never reads: running
// such a unit would silently return the plain design's numbers.
type OverrideError struct {
	Design   string
	Override string // the override's JSON name, e.g. "dcp" or "lh_dip"
	Takers   string // the units that do read it
}

func (e *OverrideError) Error() string {
	return fmt.Sprintf("exp: design %s does not take the %s override (only %s do)",
		e.Design, e.Override, e.Takers)
}

// ScaleError reports a Params.Scale below 1. The scale divides every
// capacity, so no system can be built from it.
type ScaleError struct{ Scale int }

func (e *ScaleError) Error() string {
	return fmt.Sprintf("exp: scale %d: must be at least 1", e.Scale)
}

// build is the one builder of a config.System in this package: the
// design's paper defaults (config.Default(p.Scale).WithDesign) with the
// unit's overrides applied. It also returns the unit's canonical form —
// the design's canonical name and its resolved Bypass, BypassProb, DCP
// and NTC — which is the Runner's memo key. The canonical form is a key,
// not an input: it is never built again.
func (u UnitSpec) build(p Params) (UnitSpec, config.System, error) {
	if p.Scale < 1 {
		return UnitSpec{}, config.System{}, &ScaleError{Scale: p.Scale}
	}
	d, ok := lookupDesign(u.Design)
	if !ok {
		return UnitSpec{}, config.System{}, fmt.Errorf("exp: unknown design %q (have %s)",
			u.Design, strings.Join(UnitDesignNames(), ", "))
	}
	if strings.TrimSpace(u.Workload) == "" {
		return UnitSpec{}, config.System{}, fmt.Errorf("exp: unit %s: empty workload", u)
	}
	alloy := d == config.Alloy || d == config.InclAlloy
	// BW-Opt shares the Alloy engine but idealises its predictor, write
	// policy and probe filters away.
	alloyLine := alloy || d == config.BEAR
	tagCache := u.NTC || u.TTC || d == config.BEAR
	for _, o := range []struct {
		name    string
		set, ok bool
		takers  string
	}{
		{"bypass", u.Bypass != config.FillAlways, alloy, "Alloy and Incl-Alloy"},
		{"dcp", u.DCP, alloy, "Alloy and Incl-Alloy"},
		{"ntc", u.NTC, alloy, "Alloy and Incl-Alloy"},
		{"ntc_entries", u.NTCEntries != 0, alloyLine && tagCache, "Alloy-line units with an NTC or TTC"},
		{"pred", u.Pred != config.PredMAPI, alloyLine, "Alloy, BEAR and Incl-Alloy"},
		{"wb_allocate", u.WBAllocate, alloyLine, "Alloy, BEAR and Incl-Alloy"},
		{"ttc", u.TTC, alloyLine, "Alloy, BEAR and Incl-Alloy"},
		{"lh_dip", u.LHDIP, d == config.LohHill, "LH units"},
		{"tis_dip", u.TISDIP, d == config.TIS, "TIS units"},
	} {
		if o.set && !o.ok {
			return UnitSpec{}, config.System{}, &OverrideError{Design: d.String(), Override: o.name, Takers: o.takers}
		}
	}

	sys := config.Default(p.Scale).WithDesign(d)
	if u.Bypass != config.FillAlways {
		sys.Bypass = u.Bypass
	}
	if u.BypassProb > 0 {
		sys.BypassProb = u.BypassProb
	}
	sys.UseDCP = sys.UseDCP || u.DCP
	sys.UseNTC = sys.UseNTC || u.NTC
	if u.L4Channels > 0 {
		sys.L4.Channels = u.L4Channels
	}
	if u.L4Banks > 0 {
		sys.L4.Banks = u.L4Banks
	}
	if u.CapacityMB > 0 {
		sys.CacheBytes = u.CapacityMB << 20 / int64(p.Scale)
	}
	if u.NTCEntries > 0 {
		sys.NTCEntriesPerBank = u.NTCEntries
	}
	sys.Pred = u.Pred
	sys.WBAllocate = u.WBAllocate
	sys.UseTTC = u.TTC
	sys.LHUseDIP = u.LHDIP
	sys.TISUseDIP = u.TISDIP
	sys.Seed = p.Seed

	key := u
	key.Design = d.String()
	key.Bypass, key.BypassProb = sys.Bypass, sys.BypassProb
	key.DCP, key.NTC = sys.UseDCP, sys.UseNTC
	return key, sys, nil
}

// resolve returns the unit's canonical form. The key does not depend on
// the Runner's parameters, so any valid Params will do.
func (u UnitSpec) resolve() (UnitSpec, error) {
	key, _, err := u.build(Params{Scale: 1})
	return key, err
}

// Validate reports whether the unit names a known design, sets only
// overrides that design takes, and has a non-empty workload (workload
// existence is checked at run time, when the trace catalog is consulted).
func (u UnitSpec) Validate() error {
	_, err := u.resolve()
	return err
}

// Key returns the unit's result-store key — identical to the key the
// Runner uses when it simulates the same (design, workload) itself, so a
// store populated by bearserve workers resumes a bearbench sweep and vice
// versa.
func (u UnitSpec) Key() (string, error) {
	key, err := u.resolve()
	if err != nil {
		return "", err
	}
	return key.storeKey(), nil
}

// storeKey renders a canonical unit as its result-store key. The format
// is the one every store has held since before UnitSpec existed: the
// resolved system as flat name:value pairs, with the design, bypass
// policy and predictor printed as integers, then the workload. It is
// spelled out rather than derived from the struct so that no change to
// UnitSpec can silently re-key a store.
func (u UnitSpec) storeKey() string {
	d, _ := lookupDesign(u.Design)
	return fmt.Sprintf("{design:%d bypass:%d prob:%v dcp:%t ntc:%t channels:%d banks:%d capacityMB:%d "+
		"ntcEntries:%d pred:%d wbAllocate:%t ttc:%t lhDIP:%t tisDIP:%t}|%s",
		int(d), int(u.Bypass), u.BypassProb, u.DCP, u.NTC, u.L4Channels, u.L4Banks, u.CapacityMB,
		u.NTCEntries, int(u.Pred), u.WBAllocate, u.TTC, u.LHDIP, u.TISDIP, u.Workload)
}

// load maps a workload name in the Runner's vocabulary to its workload:
// "MIX<n>" is mixed workload n, "<bench>@single" runs the benchmark alone
// on one core, and any other name is a rate benchmark. It is the one
// place that naming convention is parsed.
func (r *Runner) load(name string) (trace.Workload, error) {
	if rest, ok := strings.CutPrefix(name, "MIX"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return trace.Workload{}, fmt.Errorf("exp: workload %s: bad mix number %q", name, rest)
		}
		return trace.Mix(n, r.cores, r.p.Scale, r.p.Seed)
	}
	if bench, ok := strings.CutSuffix(name, "@single"); ok {
		return trace.Single(bench, r.cores, r.p.Scale, r.p.Seed)
	}
	return trace.Rate(name, r.cores, r.p.Scale, r.p.Seed)
}

// async starts (or joins) the unit's simulation and returns a future. The
// simulation runs on wl when it is given, else on the workload u names.
func (r *Runner) async(u UnitSpec, wl *trace.Workload) (Future, error) {
	key, sys, err := u.build(r.p)
	if err != nil {
		return Future{}, err
	}
	return Future{r.start(key, sys, wl)}, nil
}

// UnitAsync starts (or joins) the unit's simulation and returns a future.
func (r *Runner) UnitAsync(u UnitSpec) (Future, error) { return r.async(u, nil) }

// RunUnit simulates the unit to completion on the calling goroutine's
// behalf — the whole job of a bearbench -worker process.
func (r *Runner) RunUnit(u UnitSpec) (*stats.Run, error) {
	f, err := r.UnitAsync(u)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// RunWorkload simulates the unit's design on an already-loaded workload
// (a trace-file replay), memoised under u.Workload like any other unit.
func (r *Runner) RunWorkload(u UnitSpec, wl trace.Workload) (*stats.Run, error) {
	f, err := r.async(u, &wl)
	if err != nil {
		return nil, err
	}
	return f.Wait()
}

// ErrInterrupted is returned by units refused because the Runner was
// interrupted. It marks orderly shutdown, not a simulation fault, so it
// never enters the failure table.
var ErrInterrupted = errors.New("exp: runner interrupted")

// Interrupt puts the Runner into drain mode: units already executing run
// to completion (and, with a Store attached, persist their results as
// usual), while any unit not yet started fails fast with ErrInterrupted.
// This is the SIGINT/SIGTERM path — everything finished is checkpointed,
// nothing new begins — and it is safe to call more than once.
func (r *Runner) Interrupt() {
	r.mu.Lock()
	r.interrupted = true
	r.mu.Unlock()
}

// Interrupted reports whether Interrupt has been called.
func (r *Runner) Interrupted() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.interrupted
}
