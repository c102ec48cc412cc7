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

// UnitSpec is the wire form of one sweep unit: a design by name, a
// workload, and optional overrides of the design's paper-default system.
// It is the unit of fault isolation in bearserve — the server serializes
// UnitSpecs to worker subprocesses (bearbench -worker) and each worker
// simulates exactly one before reporting back — the unit of resume in
// bearbench and bearsim, whose store entries the server's share keys
// with (see Key), and the unit the bear facade runs.
//
// Workload naming follows the Runner's memo vocabulary: a rate benchmark
// name ("soplex"), "MIX<n>" for mixed workload n, or "<bench>@single" for
// a single-program run.
//
// Every override's zero value means "paper default", so a unit without
// overrides resolves to exactly the spec (and store key) the experiments
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

// OverrideError reports a unit override its design never reads: only the
// Alloy family (Alloy, Incl-Alloy) takes Bypass, DCP and NTC. Running
// such a unit would silently return the plain design's numbers.
type OverrideError struct {
	Design   string
	Override string // "bypass", "dcp" or "ntc"
}

func (e *OverrideError) Error() string {
	return fmt.Sprintf("exp: design %s does not take the %s override (only Alloy and Incl-Alloy do)",
		e.Design, e.Override)
}

// resolve maps the unit onto the Runner's memo coordinates: the spec for
// its design with the unit's overrides applied, which the memo (and
// therefore the result store) keys together with the workload name.
func (u UnitSpec) resolve() (spec, error) {
	d, ok := unitDesigns[strings.ToLower(strings.TrimSpace(u.Design))]
	if !ok {
		return spec{}, fmt.Errorf("exp: unknown design %q (have %s)",
			u.Design, strings.Join(UnitDesignNames(), ", "))
	}
	if strings.TrimSpace(u.Workload) == "" {
		return spec{}, fmt.Errorf("exp: unit %s: empty workload", u)
	}
	s := baseSpec(d)
	switch {
	case d == config.Alloy || d == config.InclAlloy:
		s.bypass, s.dcp, s.ntc = u.Bypass, u.DCP, u.NTC
	case u.Bypass != config.FillAlways:
		return spec{}, &OverrideError{Design: d.String(), Override: "bypass"}
	case u.DCP:
		return spec{}, &OverrideError{Design: d.String(), Override: "dcp"}
	case u.NTC:
		return spec{}, &OverrideError{Design: d.String(), Override: "ntc"}
	}
	if u.BypassProb > 0 {
		s.prob = u.BypassProb
	}
	s.channels, s.banks, s.capacityMB = u.L4Channels, u.L4Banks, u.CapacityMB
	return s, nil
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
	s, err := u.resolve()
	if err != nil {
		return "", err
	}
	return storeKey(memoKey{s: s, wl: u.Workload}), nil
}

// UnitAsync starts (or joins) the unit's simulation and returns a future,
// dispatching on the workload naming convention: "MIX<n>", "<b>@single",
// or a rate benchmark name.
func (r *Runner) UnitAsync(u UnitSpec) (Future, error) {
	s, err := u.resolve()
	if err != nil {
		return Future{}, err
	}
	if rest, ok := strings.CutPrefix(u.Workload, "MIX"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			// A workload that fails to load, like an unknown benchmark:
			// the unit fails through its future and the failure table.
			return Future{r.start(s, u.Workload, func() (trace.Workload, error) {
				return trace.Workload{}, fmt.Errorf("exp: unit %s: bad mix number %q", u, rest)
			})}, nil
		}
		return r.MixAsync(s, n), nil
	}
	if bench, ok := strings.CutSuffix(u.Workload, "@single"); ok {
		return r.SingleAsync(s, bench), nil
	}
	return r.RateAsync(s, u.Workload), nil
}

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
	s, err := u.resolve()
	if err != nil {
		return nil, err
	}
	return Future{r.start(s, u.Workload, func() (trace.Workload, error) { return wl, nil })}.Wait()
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
