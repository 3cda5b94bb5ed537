// Package guard is the flow's runtime physics-invariant layer: declarative
// checks on the numbers crossing every stage boundary — probabilities stay
// in [0,1], nothing NaN or infinite escapes a solver, deposited charge is
// conserved into the circuit injection, POF does not rise with Vdd across
// a sweep, FIT rates are finite and non-negative.
//
// A Guard carries an enforcement mode:
//
//   - Off: every check is a single nil/enum comparison and returns nil —
//     the zero-cost production default, same idiom as internal/obs.
//   - Warn: violations are counted on the attached obs.Registry
//     (guard/violations and guard/violations/<invariant>) and logged once
//     per (invariant, stage) pair; the flow continues on the raw values.
//   - Strict: violations additionally fail the stage with a typed
//     *InvariantError naming the invariant, the stage, and the offending
//     value, so corrupt inputs are stopped before they reach the SER
//     numbers.
//
// A nil *Guard behaves like Off, so instrumented code needs no "is the
// guard on?" branches.
package guard

import (
	"fmt"
	"math"
	"sync"

	"finser/internal/obs"
)

// Mode is the enforcement level of a Guard.
type Mode int

const (
	// Off disables every check (the zero value).
	Off Mode = iota
	// Warn counts and logs violations but lets the flow continue.
	Warn
	// Strict fails the stage with a typed *InvariantError.
	Strict
)

// String renders the mode as its flag spelling.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Warn:
		return "warn"
	case Strict:
		return "strict"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode parses the -guard flag spelling.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "":
		return Off, nil
	case "warn":
		return Warn, nil
	case "strict":
		return Strict, nil
	default:
		return Off, fmt.Errorf("guard: unknown mode %q (want off|warn|strict)", s)
	}
}

// InvariantError reports a physics-invariant violation in strict mode. It
// names what was violated and where, so a failed stage is diagnosable
// without rerunning: "guard: invariant pof-range violated at core.strike:
// cell POF = NaN".
type InvariantError struct {
	// Invariant is the violated invariant's name, e.g. "pof-range",
	// "finite", "charge-conservation", "pof-vdd-monotone", "nonneg-finite".
	Invariant string
	// Stage is the flow stage the violation was caught in.
	Stage string
	// Value is the offending value (NaN/Inf preserved).
	Value float64
	// Detail names the quantity and any context (index, axis, tolerance).
	Detail string
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("guard: invariant %s violated at %s: %s = %g",
		e.Invariant, e.Stage, e.Detail, e.Value)
}

// Logf is the warn-mode log sink signature (log.Printf-compatible).
type Logf func(format string, args ...any)

// Guard is a set of armed invariant checks at one enforcement mode.
// Construct with New; share one Guard across a whole flow. All methods are
// safe for concurrent use and nil-receiver no-ops.
type Guard struct {
	mode Mode
	reg  *obs.Registry
	logf Logf

	mu     sync.Mutex
	logged map[string]struct{} // (invariant|stage) pairs already logged
	notify func(Violation)     // optional live violation hook (SetNotify)
}

// Violation is the notification payload delivered to a SetNotify hook: the
// same facts an *InvariantError carries, but emitted on every violation in
// every armed mode — warn-mode violations are otherwise only visible as
// registry counters, which a live event stream cannot attribute to a
// specific invariant occurrence.
type Violation struct {
	Invariant string
	Stage     string
	Value     float64
	Detail    string
}

// SetNotify installs fn as the violation hook; every recorded violation
// (warn and strict alike) invokes it synchronously after counting and
// logging. fn runs on the violating goroutine — keep it non-blocking.
// Passing nil uninstalls the hook; no-op on a nil receiver (an Off guard
// records no violations).
func (g *Guard) SetNotify(fn func(Violation)) {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.notify = fn
	g.mu.Unlock()
}

// New builds a Guard. A nil registry disables counting (checks still
// enforce); logf nil discards warn-mode logs. New returns nil for Off so
// the caller holds the cheapest possible representation.
func New(mode Mode, reg *obs.Registry, logf Logf) *Guard {
	if mode == Off {
		return nil
	}
	return &Guard{mode: mode, reg: reg, logf: logf, logged: map[string]struct{}{}}
}

// Enabled reports whether any checking is armed. The hot loops use it to
// skip assembling check inputs entirely when the guard is off.
func (g *Guard) Enabled() bool { return g != nil && g.mode != Off }

// Mode returns the enforcement mode (Off on a nil receiver).
func (g *Guard) Mode() Mode {
	if g == nil {
		return Off
	}
	return g.mode
}

// violate records one violation and returns the typed error in strict mode.
func (g *Guard) violate(invariant, stage string, value float64, detail string) error {
	g.reg.Counter("guard/violations").Inc()
	g.reg.Counter("guard/violations/" + invariant).Inc()
	g.mu.Lock()
	notify := g.notify
	g.mu.Unlock()
	if notify != nil {
		notify(Violation{Invariant: invariant, Stage: stage, Value: value, Detail: detail})
	}
	if g.logf != nil {
		key := invariant + "|" + stage
		g.mu.Lock()
		_, seen := g.logged[key]
		if !seen {
			g.logged[key] = struct{}{}
		}
		g.mu.Unlock()
		if !seen {
			g.logf("guard: invariant %s violated at %s: %s = %g (further violations counted, not logged)",
				invariant, stage, detail, value)
		}
	}
	if g.mode == Strict {
		return &InvariantError{Invariant: invariant, Stage: stage, Value: value, Detail: detail}
	}
	return nil
}

// Violations returns the total violation count seen by the attached
// registry (0 with no registry or a nil receiver) — test and ops
// introspection.
func (g *Guard) Violations() int64 {
	if g == nil {
		return 0
	}
	return g.reg.Counter("guard/violations").Value()
}

// Probability checks p ∈ [0,1] and finite — the POF-range invariant at
// every boundary where a flip probability crosses stages.
func (g *Guard) Probability(stage, name string, p float64) error {
	if !g.Enabled() {
		return nil
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return g.violate("pof-range", stage, p, name)
	}
	return nil
}

// Finite checks v is neither NaN nor ±Inf — the solver-escape tripwire.
func (g *Guard) Finite(stage, name string, v float64) error {
	if !g.Enabled() {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return g.violate("finite", stage, v, name)
	}
	return nil
}

// NonNegativeFinite checks v ≥ 0 and finite — the invariant FIT rates and
// transport deposits share.
func (g *Guard) NonNegativeFinite(stage, name string, v float64) error {
	if !g.Enabled() {
		return nil
	}
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return g.violate("nonneg-finite", stage, v, name)
	}
	return nil
}

// Conserved checks got against want to the relative tolerance relTol
// (absolute below absFloor) — the charge-conservation invariant between
// transport deposits and circuit injection.
func (g *Guard) Conserved(stage, name string, got, want, relTol, absFloor float64) error {
	if !g.Enabled() {
		return nil
	}
	diff := math.Abs(got - want)
	if math.IsNaN(diff) {
		return g.violate("charge-conservation", stage, got, name+" (NaN)")
	}
	scale := math.Max(math.Abs(want), absFloor)
	if diff > relTol*scale {
		return g.violate("charge-conservation", stage, got,
			fmt.Sprintf("%s (want %g within rel %g)", name, want, relTol))
	}
	return nil
}

// MonotoneNonIncreasing checks ys is non-increasing (within tol slack per
// step) along its index — POF versus supply voltage: a higher Vdd must not
// make the cell easier to flip. NaN anywhere is a violation.
func (g *Guard) MonotoneNonIncreasing(stage, name string, ys []float64, tol float64) error {
	if !g.Enabled() {
		return nil
	}
	for i, y := range ys {
		if math.IsNaN(y) {
			return g.violate("pof-vdd-monotone", stage, y, fmt.Sprintf("%s[%d] (NaN)", name, i))
		}
		if i > 0 && y > ys[i-1]+tol {
			return g.violate("pof-vdd-monotone", stage, y,
				fmt.Sprintf("%s[%d] increases from %g (tol %g)", name, i, ys[i-1], tol))
		}
	}
	return nil
}
