// Package sram implements the paper's circuit level (§4): a 6T SOI FinFET
// SRAM cell built on the MNA solver, single-event strike simulation,
// critical-charge extraction by bisection, and probability-of-failure (POF)
// characterization under threshold-voltage process variation — the data the
// paper stores in POF LUTs.
//
// Characterization cost. Every strike on a cell starts from one saved
// transient state at the strike's start instead of solving the quiet
// prefix before it again. A strike transient from a finite pulse stops
// once both storage nodes have settled near a stable state instead of
// running the whole window. Characterization bisects I1 once and reuses it
// for I3, whose transient is the same circuit, and guides every variation
// sample's bisection with a guess: a linear model of Qcrit in the six Vth
// shifts once one is fitted (qcritfit.go), else sample 0's critical
// charges. None of this changes a critical charge: a bisected Qcrit
// depends only on the sequence of flip/no-flip outcomes, and each shortcut
// keeps that sequence.
//
// Sensitive transistors. In hold mode with Q = 0 / QB = 1, three devices
// are OFF with |Vds| = Vdd and therefore collect radiation charge (the
// paper's Fig. 5a):
//
//	I1 — the pull-up PMOS on the "0" node (strike pulls Q up),
//	I2 — the pull-down NMOS on the "1" node (strike pulls QB down),
//	I3 — the pass-gate NMOS on the "0" node (strike pulls Q up from BL).
//
// POF model. For a single struck transistor, the flip threshold under
// process variation is the empirical distribution of its critical charge.
// For multi-transistor strikes, the package uses a linear flip surface
// Σ qᵢ/aᵢ ≥ 1 per variation sample (aᵢ = that sample's per-axis critical
// charges), validated against direct simulation by ValidateFlipSurface.
package sram

import (
	"fmt"
	"math"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// Role names the six transistors of the cell. "L" is the Q side, "R" the
// QB side.
type Role int

const (
	// PUL is the left (Q-side) pull-up PMOS.
	PUL Role = iota
	// PUR is the right (QB-side) pull-up PMOS.
	PUR
	// PDL is the left pull-down NMOS.
	PDL
	// PDR is the right pull-down NMOS.
	PDR
	// PGL is the left pass-gate NMOS.
	PGL
	// PGR is the right pass-gate NMOS.
	PGR
	// NumRoles is the number of transistor roles in a 6T cell.
	NumRoles
)

var roleNames = [NumRoles]string{"pu_l", "pu_r", "pd_l", "pd_r", "pg_l", "pg_r"}

// String implements fmt.Stringer.
func (r Role) String() string {
	if r >= 0 && r < NumRoles {
		return roleNames[r]
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Axis indexes the paper's three sensitive strike currents for the
// canonical hold state Q = 0.
type Axis int

const (
	// AxisI1 is a strike on the Q-side pull-up (PUL).
	AxisI1 Axis = iota
	// AxisI2 is a strike on the QB-side pull-down (PDR).
	AxisI2
	// AxisI3 is a strike on the Q-side pass-gate (PGL).
	AxisI3
	// NumAxes is the number of sensitive strike currents.
	NumAxes
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisI1:
		return "I1(pu)"
	case AxisI2:
		return "I2(pd)"
	case AxisI3:
		return "I3(pg)"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// SensitiveRole maps a strike axis to the struck transistor for a cell
// holding Q = 0. (The Q = 1 state is the mirror image; the layout level
// performs that mirroring.)
func (a Axis) SensitiveRole() Role {
	switch a {
	case AxisI1:
		return PUL
	case AxisI2:
		return PDR
	case AxisI3:
		return PGL
	default:
		panic("sram: bad axis")
	}
}

// SensitiveAxisForRole returns the strike axis a struck transistor maps to
// for a given stored bit, and ok=false when the transistor is not
// radiation-sensitive in that state. bit=false means Q = 0 (the canonical
// characterized state).
func SensitiveAxisForRole(r Role, bit bool) (Axis, bool) {
	if bit {
		// Q = 1: mirror the cell left-right.
		switch r {
		case PUR:
			return AxisI1, true
		case PDL:
			return AxisI2, true
		case PGR:
			return AxisI3, true
		default:
			return 0, false
		}
	}
	switch r {
	case PUL:
		return AxisI1, true
	case PDR:
		return AxisI2, true
	case PGL:
		return AxisI3, true
	default:
		return 0, false
	}
}

// PulseShape selects the injected current waveform for strike simulation.
type PulseShape int

const (
	// ShapeRect is the paper's rectangular drift-current pulse.
	ShapeRect PulseShape = iota
	// ShapeTriangle is the triangular pulse of the shape-sensitivity study.
	ShapeTriangle
	// ShapeDoubleExp is the classic double-exponential SEU model.
	ShapeDoubleExp
)

// Cell is a 6T SRAM cell instance ready for strike simulation. Build one
// per (technology, Vdd, per-transistor Vth) combination; strike simulations
// reuse it.
type Cell struct {
	Tech finfet.Technology
	Vdd  float64

	ckt     *circuit.Circuit
	q, qb   circuit.Node
	vddNode circuit.Node
	blNode  circuit.Node
	init    circuit.Solution
	// mirror is the stable DC state with the stored bit flipped (Q high),
	// nil when buildCell found none. With it, SimulateStrike can stop a
	// transient once the cell has settled. Only its Q and QB entries are
	// read, so an 8T cell shares its 6T core's.
	mirror circuit.Solution
	// start is the transient's state at strikeStart, which every strike
	// on the cell starts from (see strike). It is solved on the cell's
	// first strike, once init is final; X is nil until then.
	start   circuit.State
	strikes [NumAxes]*settableWaveform
	metrics *Metrics // nil = uninstrumented (see SetMetrics)
}

// settableWaveform lets strike sources be re-armed between simulations
// without rebuilding the netlist.
type settableWaveform struct{ w circuit.Waveform }

// Value implements circuit.Waveform.
func (s *settableWaveform) Value(t float64) float64 {
	if s.w == nil {
		return 0
	}
	return s.w.Value(t)
}

// AppendBreakpoints implements circuit.Waveform.
func (s *settableWaveform) AppendBreakpoints(dst []float64) []float64 {
	if s.w == nil {
		return dst
	}
	return s.w.AppendBreakpoints(dst)
}

// VthShifts holds per-role threshold shifts (added to the nominal Vth) for
// one process-variation sample. The zero value is the nominal cell.
type VthShifts [NumRoles]float64

// NewCell builds the hold-mode 6T cell netlist (WL = 0, BL = BLB = Vdd) and
// solves its DC state with Q = 0, QB = Vdd.
func NewCell(tech finfet.Technology, vdd float64, shifts VthShifts) (*Cell, error) {
	if vdd <= 0 {
		return nil, fmt.Errorf("sram: non-positive vdd %g", vdd)
	}
	cell, err := buildCell(tech, vdd, shifts, 0)
	if err != nil {
		return nil, err
	}
	// Sanity: the intended hold state must actually be the converged one.
	if q, qb := cell.HoldVoltages(); q > 0.1*vdd || qb < 0.9*vdd {
		return nil, fmt.Errorf("sram: hold state not bistable: q=%.3g qb=%.3g", q, qb)
	}
	return cell, nil
}

// buildCell constructs the netlist with the given word-line voltage and
// solves the DC state with Q low, QB high.
func buildCell(tech finfet.Technology, vdd float64, shifts VthShifts, wlVoltage float64) (*Cell, error) {
	c := circuit.New()
	cell := &Cell{Tech: tech, Vdd: vdd, ckt: c}

	cell.q = c.Node("q")
	cell.qb = c.Node("qb")
	cell.vddNode = c.Node("vdd")
	cell.blNode = c.Node("bl")
	blb := c.Node("blb")
	wl := c.Node("wl")

	c.AddVSource("vdd", cell.vddNode, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vbl", cell.blNode, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vblb", blb, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vwl", wl, circuit.Ground, circuit.DC(wlVoltage))

	addCore(c, tech, shifts, cell.q, cell.qb, cell.qb, cell.q, cell.vddNode, cell.blNode, blb, wl)
	// Storage-node capacitance.
	c.AddCapacitor("cq", cell.q, circuit.Ground, tech.NodeCapF)
	c.AddCapacitor("cqb", cell.qb, circuit.Ground, tech.NodeCapF)

	// Strike sources for the three sensitive axes (armed per simulation).
	for a := AxisI1; a < NumAxes; a++ {
		cell.strikes[a] = &settableWaveform{}
	}
	// I1: from Vdd into Q (through the struck PUL).
	c.AddISource("i1", cell.vddNode, cell.q, cell.strikes[AxisI1])
	// I2: from QB into ground (through the struck PDR).
	c.AddISource("i2", cell.qb, circuit.Ground, cell.strikes[AxisI2])
	// I3: from BL into Q (through the struck PGL).
	c.AddISource("i3", cell.blNode, cell.q, cell.strikes[AxisI3])

	nodeset := map[circuit.Node]float64{
		cell.q:       0,
		cell.qb:      vdd,
		cell.vddNode: vdd,
		cell.blNode:  vdd,
		blb:          vdd,
	}
	sol, err := c.OperatingPoint(nodeset)
	if err != nil {
		return nil, fmt.Errorf("sram: cell DC failed: %w", err)
	}
	cell.init = sol
	// The mirrored state. A solve that fails or lands anywhere but a
	// flipped state (a read-unstable mirror, the metastable saddle) leaves
	// it unset, and strikes then run the full window.
	nodeset[cell.q], nodeset[cell.qb] = vdd, 0
	if m, err := c.OperatingPoint(nodeset); err == nil && m[cell.q]-m[cell.qb] > vdd/2 {
		cell.mirror = m
	}
	return cell, nil
}

// addCore adds the six transistors of a 6T core to c: the cross-coupled
// inverters driving q from gate qbIn and qb from gate qIn, and the pass
// gates from bl to q and from blb to qb under wl. The gates are qb and q
// themselves except in the SNM netlist, which puts noise sources between.
// Every 6T netlist in the package adds its core here, in this order, so
// their MNA stamps sum alike.
func addCore(c *circuit.Circuit, tech finfet.Technology, shifts VthShifts, q, qb, qbIn, qIn, vdd, bl, blb, wl circuit.Node) {
	params := func(role Role) finfet.Params {
		var p finfet.Params
		switch role {
		case PUL, PUR:
			p = finfet.ParamsFor(tech, finfet.PChannel, tech.PUFins())
		case PDL, PDR:
			p = finfet.ParamsFor(tech, finfet.NChannel, tech.PDFins())
		default:
			p = finfet.ParamsFor(tech, finfet.NChannel, tech.PGFins())
		}
		p.Vth += shifts[role]
		return p
	}
	c.AddDevice(finfet.NewTransistor("pu_l", params(PUL), q, qbIn, vdd))
	c.AddDevice(finfet.NewTransistor("pd_l", params(PDL), q, qbIn, circuit.Ground))
	c.AddDevice(finfet.NewTransistor("pu_r", params(PUR), qb, qIn, vdd))
	c.AddDevice(finfet.NewTransistor("pd_r", params(PDR), qb, qIn, circuit.Ground))
	c.AddDevice(finfet.NewTransistor("pg_l", params(PGL), bl, wl, q))
	c.AddDevice(finfet.NewTransistor("pg_r", params(PGR), blb, wl, qb))
}

// HoldVoltages returns the DC hold voltages (q, qb).
func (c *Cell) HoldVoltages() (q, qb float64) {
	return c.init[c.q], c.init[c.qb]
}

// StrikeResult reports one simulated strike. QFinal and QBFinal are the
// storage-node voltages where the transient ended: at the end of the
// window, or once the cell had settled (see SimulateStrike).
type StrikeResult struct {
	Flipped bool
	QFinal  float64
	QBFinal float64
}

// simWindow is the post-strike settling window in seconds; the cell's
// feedback resolves within a few ps, so 200 ps is decisively settled.
const simWindow = 200e-12

// settleTol is how close to a stable state, as a fraction of Vdd, both
// storage nodes must be for a finished strike to count as settled.
const settleTol = 0.02

// strikeStart is when the pulse begins, leaving a clean pre-strike
// baseline.
const strikeStart = 1e-12

// SimulateStrike injects the given charges (coulombs, indexed by axis) as
// pulses of the given shape and reports whether the cell flipped. A zero
// charge disables that axis. The pulse width is the paper's transit time
// τ = L²/(µe·Vdd).
//
// A rectangular or triangular pulse ends, after which the cell is
// autonomous. The transient then stops as soon as both storage nodes are
// within settleTol·Vdd of the held or the mirrored stable state, which
// decides the outcome. A double-exponential pulse never ends and runs the
// full window, as does every strike on a cell without a mirrored state (a
// cell from a SPICE deck, or one whose flipped state is not stable).
func (c *Cell) SimulateStrike(charges [NumAxes]float64, shape PulseShape) (StrikeResult, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	for a := AxisI1; a < NumAxes; a++ {
		c.strikes[a].w = buildPulse(shape, charges[a], tau)
	}
	defer func() {
		for a := AxisI1; a < NumAxes; a++ {
			c.strikes[a].w = nil
		}
	}()

	var settled func(float64, circuit.Solution) bool
	if c.mirror != nil && shape != ShapeDoubleExp {
		settled = c.settled
	}
	out, err := c.strike(settled)
	if err != nil {
		return StrikeResult{}, fmt.Errorf("sram: strike transient: %w", err)
	}
	if m := c.metrics; m != nil {
		m.FlipSims.Inc()
		if out.Flipped {
			m.Flips.Inc()
		}
	}
	return out, nil
}

// strike runs the transient of the strike armed on the cell, ending early
// once settled (when non-nil) says the cell has settled. Every strike
// waveform is exactly 0 before strikeStart, and current sources are
// sampled at each step's midpoint, so up to the step that lands on
// strikeStart no strike injects anything: the state there is the same for
// every strike on the cell, whatever its shape, axes or charge. The first
// strike solves that prefix once, from init with strikeStart as a
// breakpoint, over the netlist's own breakpoints too; every strike then
// starts from the saved state and takes exactly the steps a run from t = 0
// would take after it.
func (c *Cell) strike(settled func(float64, circuit.Solution) bool) (StrikeResult, error) {
	spec := circuit.TransientSpec{
		TStop:    simWindow,
		InitStep: c.Tech.TransitTime(c.Vdd) / 8,
		MaxStep:  simWindow / 40,
		OnStep:   settled,
	}
	if c.start.X == nil {
		s, err := c.ckt.StateAt(c.init, spec, strikeStart)
		if err != nil {
			return StrikeResult{}, err
		}
		c.start = s
	}
	end, err := c.ckt.Transient(c.start, spec)
	if err != nil {
		return StrikeResult{}, err
	}
	q, qb := end.X[c.q], end.X[c.qb]
	return StrikeResult{Flipped: q > qb, QFinal: q, QBFinal: qb}, nil
}

// settled reports whether both storage nodes of x are within settleTol·Vdd
// of the held or the mirrored stable state. In the netlists buildCell
// makes, the charge on Q and QB is all that drives them: the transistors
// hold none, and an 8T read stack sees QB only through a gate. So a cell
// that close to a stable state relaxes into it. Asking instead whether the
// state has stopped moving would be wrong: a near-critical strike lingers
// at the metastable saddle, far from both stable states, before it
// resolves.
func (c *Cell) settled(_ float64, x circuit.Solution) bool {
	tol := settleTol * c.Vdd
	near := func(s circuit.Solution) bool {
		return math.Abs(x[c.q]-s[c.q]) <= tol && math.Abs(x[c.qb]-s[c.qb]) <= tol
	}
	return near(c.init) || near(c.mirror)
}

// buildPulse constructs a charge-carrying pulse of the requested shape.
func buildPulse(shape PulseShape, charge, tau float64) circuit.Waveform {
	if charge <= 0 {
		return nil
	}
	switch shape {
	case ShapeRect:
		return circuit.RectPulse{T0: strikeStart, Width: tau, Amp: charge / tau}
	case ShapeTriangle:
		return circuit.TriPulse{T0: strikeStart, Width: 2 * tau, Amp: charge / tau}
	case ShapeDoubleExp:
		return circuit.DoubleExpWithCharge(strikeStart, tau/5, 2*tau, charge)
	default:
		panic("sram: unknown pulse shape")
	}
}

// CriticalCharge finds, by bisection in log-charge, the smallest charge on
// the given axis that flips the cell. It returns +Inf when even hi cannot
// flip the cell, and lo when lo already flips it.
func (c *Cell) CriticalCharge(axis Axis, lo, hi float64, shape PulseShape) (float64, error) {
	return c.criticalCharge(axis, lo, hi, shape, guess{})
}

// guessStep is the ratio of the first probe outward from a bisection's
// guess; each further probe squares it (×/÷1.1, 1.21, 1.46, …).
const guessStep = 1.1

// A guess is where a critical-charge bisection starts probing: a charge q,
// and whether it is a model's prediction (onGrid), probed at the ends of
// the bisection's final interval around it, or another sample's critical
// charge, probed outward from itself. The zero guess has none.
type guess struct {
	q      float64
	onGrid bool
}

// logBisect halves (lo, hi] in log charge, keeping the half whose upper
// end flips, until it is 1% wide, and returns that final interval. A
// replay from a guess runs this same loop, so its midpoints are the
// bisection's own floats.
func logBisect(lo, hi float64, flips func(q float64) (bool, error)) (float64, float64, error) {
	for math.Log(hi/lo) > 0.01 {
		mid := math.Sqrt(lo * hi)
		f, err := flips(mid)
		if err != nil {
			return 0, 0, err
		}
		if f {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo, hi, nil
}

// criticalCharge is CriticalCharge's log-bisection, optionally replayed
// from a guess. Its flip oracle remembers the largest charge simulated
// without a flip and the smallest simulated with one, and simulates only
// charges between the two: flip is monotone in charge, which bisection
// assumes anyway. The bisection's probes, and so its result, are the same
// whatever the oracle learned before it.
//
// A guess inside (lo, hi) brackets the answer before the bisection runs,
// so most bisection probes are answered without a simulation:
//   - a guess on the grid stands in for the critical charge in a replay of
//     the bisection, and the two ends of the final interval it ends in are
//     simulated. When the guess lies in the true final interval, those are
//     the only simulations, and they are the plain bisection's own probes.
//     When an end misses, the far end of the next interval past it is
//     simulated, and should that miss too, probes go outward from there;
//   - any other guess is simulated itself, and probes go outward from it
//     until the outcome changes.
//
// A guess outside (lo, hi), or NaN, makes exactly the plain bisection's
// simulations.
func (c *Cell) criticalCharge(axis Axis, lo, hi float64, shape PulseShape, g guess) (float64, error) {
	if lo <= 0 || hi <= lo {
		return 0, fmt.Errorf("sram: need 0 < lo < hi, got %g, %g", lo, hi)
	}
	noFlip, flip := 0.0, math.Inf(1)
	flipAt := func(q float64) (bool, error) {
		if q <= noFlip {
			return false, nil
		}
		if q >= flip {
			return true, nil
		}
		if m := c.metrics; m != nil {
			m.BisectionSteps.Inc()
		}
		var ch [NumAxes]float64
		ch[axis] = q
		r, err := c.SimulateStrike(ch, shape)
		if err != nil {
			return false, err
		}
		if r.Flipped {
			flip = q
		} else {
			noFlip = q
		}
		return r.Flipped, nil
	}
	// outward probes from charge q, whose outcome flipped is known, until
	// the outcome changes or a probe reaches the window's edge.
	outward := func(q float64, flipped bool) error {
		for step := guessStep; ; step *= step {
			p := math.Min(q*step, hi)
			if flipped {
				p = math.Max(q/step, lo)
			}
			f, err := flipAt(p)
			if err != nil || f != flipped || p == lo || p == hi {
				return err
			}
		}
	}
	switch {
	case !(g.q > lo && g.q < hi):
	case g.onGrid:
		// final is the bisection's final interval (l, h] when the critical
		// charge is q.
		final := func(q float64) (l, h float64) {
			l, h, _ = logBisect(lo, hi, func(mid float64) (bool, error) { return mid >= q, nil })
			return l, h
		}
		l, h := final(g.q)
		hFlips, err := flipAt(h)
		if err != nil {
			return 0, err
		}
		lFlips, err := flipAt(l) // simulates nothing when h did not flip
		if err != nil {
			return 0, err
		}
		// A guess that misses mostly misses by one interval: simulate the
		// far end of the next interval past the end that missed, and probe
		// outward from it if it misses too.
		settle := func(q float64, want bool) error {
			f, err := flipAt(q)
			if err == nil && f != want {
				err = outward(q, f)
			}
			return err
		}
		switch {
		case !hFlips:
			_, next := final(math.Nextafter(h, hi))
			err = settle(next, true)
		case lFlips:
			next, _ := final(l)
			err = settle(next, false)
		}
		if err != nil {
			return 0, err
		}
	default:
		f, err := flipAt(g.q)
		if err == nil {
			err = outward(g.q, f)
		}
		if err != nil {
			return 0, err
		}
	}
	hiFlips, err := flipAt(hi)
	if err != nil {
		return 0, err
	}
	if !hiFlips {
		return math.Inf(1), nil
	}
	loFlips, err := flipAt(lo)
	if err != nil {
		return 0, err
	}
	if loFlips {
		return lo, nil
	}
	if lo, hi, err = logBisect(lo, hi, flipAt); err != nil {
		return 0, err
	}
	return math.Sqrt(lo * hi), nil
}
