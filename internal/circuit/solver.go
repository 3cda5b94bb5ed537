package circuit

import (
	"fmt"
	"math"
	"sort"
)

// Solution is a solved operating point: node voltages and branch currents.
type Solution []float64

// OperatingPoint computes the DC solution with Newton–Raphson. nodeset
// provides initial-guess voltages for selected nodes — essential for
// bistable circuits such as SRAM cells, where it selects which stable state
// Newton converges to. It may be nil.
func (c *Circuit) OperatingPoint(nodeset map[Node]float64) (Solution, error) {
	c.assignBranches()
	n := c.unknowns()
	x := make([]float64, n)
	for node, v := range nodeset {
		if node != Ground {
			x[node] = v
		}
	}
	if _, err := c.newtonSolve(x, x, 0, 0); err != nil {
		return nil, fmt.Errorf("circuit: DC operating point: %w", err)
	}
	return x, nil
}

// TransientSpec configures a transient analysis.
type TransientSpec struct {
	TStop    float64 // end time, s
	InitStep float64 // first step and post-breakpoint step, s
	MaxStep  float64 // ceiling for the growing step, s
	// Settled, when non-nil, may end the analysis before TStop. Once every
	// breakpoint is behind the stepper, it is asked after each accepted
	// step whether the solution x at time t has reached its final state,
	// and the analysis ends at the first step where it answers true. x is
	// valid only during the call. Nil runs to TStop.
	Settled func(t float64, x Solution) bool
}

// growth is the stepper's per-step expansion factor between breakpoints.
const growth = 1.3

// TransientStats aggregates solver diagnostics over one transient run —
// the quantities a caller needs to judge how hard the solve was and where
// the time went, instead of the opaque pass/fail the stepper used to give.
type TransientStats struct {
	// Steps is the number of accepted time steps.
	Steps int
	// NewtonIters is the total Newton iterations over all attempts
	// (== dense-LU solves).
	NewtonIters int
	// StepHalvings counts retries where Newton failed and the step was
	// halved.
	StepHalvings int
	// MinStep is the smallest accepted step, s (0 when no step accepted).
	MinStep float64
}

// TransientResult holds the sampled trajectory of a transient analysis.
type TransientResult struct {
	Times  []float64
	Values []Solution // one solution vector per time point
	// Stats carries the per-run convergence diagnostics.
	Stats TransientStats
}

// Final returns the node voltage at the last time point.
func (r *TransientResult) Final(n Node) float64 {
	if n == Ground {
		return 0
	}
	return r.Values[len(r.Values)-1][n]
}

// At returns the node voltage at time t by linear interpolation.
func (r *TransientResult) At(n Node, t float64) float64 {
	if n == Ground {
		return 0
	}
	ts := r.Times
	if t <= ts[0] {
		return r.Values[0][n]
	}
	if t >= ts[len(ts)-1] {
		return r.Final(n)
	}
	i := sort.SearchFloat64s(ts, t)
	if ts[i] == t {
		return r.Values[i][n]
	}
	f := (t - ts[i-1]) / (ts[i] - ts[i-1])
	return r.Values[i-1][n] + f*(r.Values[i][n]-r.Values[i-1][n])
}

// MaxAbs returns the maximum |V(n)| over the trajectory.
func (r *TransientResult) MaxAbs(n Node) float64 {
	if n == Ground {
		return 0
	}
	m := 0.0
	for _, v := range r.Values {
		if a := math.Abs(v[n]); a > m {
			m = a
		}
	}
	return m
}

// Transient runs a backward-Euler transient analysis from the given initial
// condition (typically a DC operating point). The stepper grows the step
// geometrically, lands exactly on waveform breakpoints, retries with a
// halved step when Newton fails to converge, and ends early when
// spec.Settled says the trajectory has settled.
func (c *Circuit) Transient(initial Solution, spec TransientSpec) (*TransientResult, error) {
	c.assignBranches()
	n := c.unknowns()
	if len(initial) != n {
		return nil, fmt.Errorf("circuit: initial condition has %d entries, want %d", len(initial), n)
	}
	if spec.TStop <= 0 || spec.InitStep <= 0 {
		return nil, fmt.Errorf("circuit: transient needs positive TStop and InitStep")
	}
	if spec.MaxStep <= 0 {
		spec.MaxStep = spec.TStop / 50
	}

	bps := c.collectBreakpoints(spec)

	ws := &c.ws
	ws.ensure(n)
	est := estimateSteps(spec, len(bps))
	res := &TransientResult{
		Times:  make([]float64, 0, est),
		Values: make([]Solution, 0, est),
	}
	// The trajectory ping-pongs between the two workspace buffers: the trial
	// solve runs on xNew, and an accepted step swaps the roles instead of
	// copying. Stored points are arena snapshots, so neither buffer escapes.
	x, xNew := ws.xCur, ws.xNext
	copy(x, initial)
	res.Times = append(res.Times, 0)
	res.Values = append(res.Values, ws.snapshot(x))

	t := 0.0
	dt := spec.InitStep
	bpIdx := 0
	for bpIdx < len(bps) && bps[bpIdx] <= 0 {
		bpIdx++
	}
	const minStepFrac = 1e-7
	for t < spec.TStop {
		// Land exactly on the next breakpoint; reset the step after it so
		// sharp pulse edges are resolved.
		target := t + dt
		hitBreak := false
		if bpIdx < len(bps) && target >= bps[bpIdx]-1e-21 {
			target = bps[bpIdx]
			hitBreak = true
		}
		if target > spec.TStop {
			target = spec.TStop
		}
		step := target - t
		if step <= 0 {
			// Degenerate breakpoint at/behind current time.
			bpIdx++
			continue
		}

		copy(xNew, x)
		iters, err := c.newtonSolve(xNew, x, target, step)
		res.Stats.NewtonIters += iters
		if err != nil {
			// Retry with a halved step.
			res.Stats.StepHalvings++
			if m := c.Metrics; m != nil {
				m.StepHalvings.Inc()
			}
			dt = step / 2
			if dt < spec.InitStep*minStepFrac {
				return nil, fmt.Errorf("circuit: transient stalled at t=%g after %d step halvings: %w",
					t, res.Stats.StepHalvings, err)
			}
			continue
		}
		if g := c.Guard; g.Enabled() {
			for i, v := range xNew {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					if err := g.Finite("circuit.transient", fmt.Sprintf("unknown %d at t=%g", i, target), v); err != nil {
						return nil, err
					}
				}
			}
		}
		res.Stats.Steps++
		if res.Stats.MinStep == 0 || step < res.Stats.MinStep {
			res.Stats.MinStep = step
		}
		if m := c.Metrics; m != nil {
			m.TransientSteps.Inc()
		}
		t = target
		x, xNew = xNew, x
		res.Times = append(res.Times, t)
		res.Values = append(res.Values, ws.snapshot(x))
		if hitBreak {
			bpIdx++
			dt = spec.InitStep
		} else {
			dt = math.Min(dt*growth, spec.MaxStep)
		}
		if spec.Settled != nil && bpIdx >= len(bps) && spec.Settled(t, x) {
			break
		}
	}
	return res, nil
}

// collectBreakpoints gathers, sorts, and dedupes the waveform breakpoints
// once per analysis, reusing the workspace buffer so repeated transients on
// the same circuit do not re-allocate the list.
func (c *Circuit) collectBreakpoints(spec TransientSpec) []float64 {
	bps := c.ws.bps[:0]
	for _, d := range c.devices {
		switch dev := d.(type) {
		case *VSource:
			bps = append(bps, dev.W.Breakpoints()...)
		case *ISource:
			bps = append(bps, dev.W.Breakpoints()...)
		}
	}
	c.ws.bps = bps[:0]
	sort.Float64s(bps)
	// Deduplicate and drop points outside (0, TStop).
	out := bps[:0]
	for _, b := range bps {
		if b <= 0 || b >= spec.TStop {
			continue
		}
		if len(out) > 0 && b-out[len(out)-1] < 1e-21 {
			continue
		}
		out = append(out, b)
	}
	return out
}

// estimateSteps predicts the number of trajectory points a transient will
// produce — the cruise steps at MaxStep, the geometric ramp-up after t=0
// and each breakpoint, the breakpoints themselves, and the endpoints — so
// TransientResult storage is sized once instead of growing by append-copy.
func estimateSteps(spec TransientSpec, nBreaks int) int {
	cruise := int(spec.TStop/spec.MaxStep) + 1
	ramp := 1
	for s := spec.InitStep; s < spec.MaxStep && ramp < 64; s *= growth {
		ramp++
	}
	est := cruise + (nBreaks+1)*ramp + nBreaks + 2
	if est > 1<<16 {
		est = 1 << 16
	}
	return est
}

// workspace holds the solver's reusable buffers: the MNA matrix (flat
// backing plus row views, so denseLU's pivot swaps stay cheap and zeroing
// is one memclr), the RHS, the stamper, the transient ping-pong solution
// buffers, the breakpoint list, and an arena slab that trajectory snapshots
// are carved from. Everything is sized once per system dimension and reused
// across Newton iterations, timesteps, and whole analyses.
type workspace struct {
	n     int
	rows  []float64   // n×n flat backing for a
	a     [][]float64 // row views into rows (denseLU permutes the views)
	b     []float64
	st    Stamper
	xCur  Solution // transient working solution
	xNext Solution // transient trial solution (ping-pongs with xCur)
	bps   []float64
	arena []float64 // slab trajectory snapshots are carved from
}

// ensure sizes the workspace for an n-unknown system. A no-op when the
// dimension is unchanged, which is every call after the first for a given
// netlist.
func (ws *workspace) ensure(n int) {
	if ws.n == n {
		return
	}
	ws.n = n
	ws.rows = make([]float64, n*n)
	ws.a = make([][]float64, n)
	for i := range ws.a {
		ws.a[i] = ws.rows[i*n : (i+1)*n : (i+1)*n]
	}
	ws.b = make([]float64, n)
	ws.xCur = make(Solution, n)
	ws.xNext = make(Solution, n)
}

// snapshot copies x into a slice carved from the arena slab. Storing a
// trajectory point costs one amortized allocation per arenaChunk points
// instead of one per accepted step; earlier slabs stay alive through the
// snapshots that reference them, so returned results remain valid across
// later analyses.
func (ws *workspace) snapshot(x Solution) Solution {
	const arenaChunk = 64
	n := len(x)
	if len(ws.arena) < n {
		ws.arena = make([]float64, arenaChunk*n)
	}
	s := Solution(ws.arena[:n:n])
	ws.arena = ws.arena[n:]
	copy(s, x)
	return s
}

// newtonSolve iterates the damped Newton loop in place on x and returns the
// iterations it took (== dense-LU solves), on failure too. xPrev is the
// previous accepted timestep solution (used by reactive companion models);
// dt == 0 selects DC. Convergence is on the voltage-update norm, and a
// failure to converge reports the last iteration's norm.
func (c *Circuit) newtonSolve(x, xPrev Solution, t, dt float64) (iters int, err error) {
	n := c.unknowns()
	ws := &c.ws
	ws.ensure(n)
	a, b := ws.a, ws.b
	ws.st = Stamper{a: a, b: b, xPrev: xPrev, time: t, dt: dt}
	st := &ws.st

	m := c.Metrics
	maxUpdate := 0.0
	for iter := 0; iter < c.MaxNewtonIter; iter++ {
		iters = iter + 1
		if m != nil {
			m.NewtonIters.Inc()
		}
		for i := range ws.rows {
			ws.rows[i] = 0
		}
		for i := range b {
			b[i] = 0
		}
		st.x = x
		// Gmin conditioning on every node.
		for i := 0; i < len(c.names); i++ {
			a[i][i] += c.Gmin
		}
		for _, d := range c.devices {
			d.Stamp(st)
		}
		if m != nil {
			m.LUSolves.Inc()
		}
		if err := denseLU(a, b); err != nil {
			if m != nil {
				m.FailedSolves.Inc()
			}
			return iters, err
		}
		// b now holds the proposed next iterate. Damp node-voltage updates.
		maxUpdate = 0
		converged := true
		for i := 0; i < n; i++ {
			du := b[i] - x[i]
			if i < len(c.names) {
				if du > c.VStep {
					du = c.VStep
				} else if du < -c.VStep {
					du = -c.VStep
				}
			}
			x[i] += du
			mag := math.Abs(du)
			if mag > maxUpdate {
				maxUpdate = mag
			}
			if mag > c.AbsTol+c.RelTol*math.Abs(x[i]) {
				converged = false
			}
			if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				if m != nil {
					m.FailedSolves.Inc()
				}
				return iters, fmt.Errorf("circuit: Newton diverged at iteration %d (non-finite unknown %d)",
					iter+1, i)
			}
		}
		if converged && iter > 0 {
			return iters, nil
		}
	}
	if m != nil {
		m.FailedSolves.Inc()
	}
	return iters, fmt.Errorf("circuit: Newton failed to converge in %d iterations (last update norm %.3g V)",
		c.MaxNewtonIter, maxUpdate)
}
