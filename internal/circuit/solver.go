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
	if err := c.newtonSolve(x, x, 0, 0); err != nil {
		return nil, fmt.Errorf("circuit: DC operating point: %w", err)
	}
	return x, nil
}

// TransientSpec configures a transient analysis.
type TransientSpec struct {
	TStop    float64 // end time, s
	InitStep float64 // first step and post-breakpoint step, s
	MaxStep  float64 // ceiling for the growing step, s
	// OnStep, when non-nil, is called after every accepted step with the
	// step's time t and solution x; x is valid only during the call. Its
	// done answer ends the analysis before TStop, but is honoured only
	// once the last breakpoint is behind the stepper: a true before then
	// is ignored. Nil runs to TStop.
	OnStep func(t float64, x Solution) (done bool)
}

// growth is the stepper's per-step expansion factor between breakpoints.
const growth = 1.3

// State is a transient analysis between two accepted steps: its time, its
// solution there, and the step it tries next. The breakpoint cursor
// follows from the time (every breakpoint up to T is behind the stepper),
// so a State is all a transient needs to resume.
type State struct {
	T    float64
	X    Solution
	Step float64
}

// Transient runs a backward-Euler transient analysis from s and returns
// the state it ends in. A run from t = 0 starts from State{X: x0, Step:
// spec.InitStep}, x0 typically a DC operating point; a run from a state
// StateAt saved takes exactly the steps the run that saved it would have
// taken next. The stepper grows the step geometrically, lands exactly on
// waveform breakpoints, retries with a halved step when Newton fails to
// converge, and ends at TStop or when spec.OnStep says it is done. The
// returned solution is a workspace buffer, valid until the circuit's next
// analysis.
func (c *Circuit) Transient(s State, spec TransientSpec) (State, error) {
	return c.transient(s, spec, 0)
}

// StateAt runs the transient from initial at t = 0 until it lands on time
// at, which it treats as a breakpoint, and returns its state just after
// landing there. spec.OnStep sees every step up to and including that
// landing, so with a Transient resumed from the state it sees every step
// of the run from t = 0. The state owns its solution, so any number of
// Transient runs can start from it.
func (c *Circuit) StateAt(initial Solution, spec TransientSpec, at float64) (State, error) {
	if at <= 0 || at >= spec.TStop {
		return State{}, fmt.Errorf("circuit: save time %g outside (0, TStop)", at)
	}
	s, err := c.transient(State{X: initial, Step: spec.InitStep}, spec, at)
	if err != nil {
		return State{}, err
	}
	s.X = append(Solution(nil), s.X...)
	return s, nil
}

// transient is the one stepping loop. It starts from s and runs to
// spec.TStop or until spec.OnStep is done, returning the state it ends in.
// A positive save time joins the breakpoints, and the loop ends just after
// landing there. The returned state's solution is a workspace buffer.
func (c *Circuit) transient(s State, spec TransientSpec, save float64) (State, error) {
	c.assignBranches()
	n := c.unknowns()
	if len(s.X) != n {
		return State{}, fmt.Errorf("circuit: initial condition has %d entries, want %d", len(s.X), n)
	}
	if spec.TStop <= 0 || spec.InitStep <= 0 {
		return State{}, fmt.Errorf("circuit: transient needs positive TStop and InitStep")
	}
	if s.Step <= 0 {
		return State{}, fmt.Errorf("circuit: transient state at t=%g has step %g, want positive", s.T, s.Step)
	}
	if spec.MaxStep <= 0 {
		spec.MaxStep = spec.TStop / 50
	}

	bps := c.collectBreakpoints(spec, save)

	ws := &c.ws
	ws.ensure(n)
	// The solution ping-pongs between the two workspace buffers: the trial
	// solve runs on xNew, and an accepted step swaps the roles instead of
	// copying.
	x, xNew := ws.xCur, ws.xNext
	copy(x, s.X)
	t, dt := s.T, s.Step

	bpIdx, halvings := 0, 0
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
			// A breakpoint at or behind the current time, such as one a
			// resumed state has passed, is behind the stepper.
			bpIdx++
			continue
		}

		copy(xNew, x)
		if err := c.newtonSolve(xNew, x, target, step); err != nil {
			// Retry with a halved step.
			halvings++
			if m := c.Metrics; m != nil {
				m.StepHalvings.Inc()
			}
			dt = step / 2
			if dt < spec.InitStep*minStepFrac {
				return State{}, fmt.Errorf("circuit: transient stalled at t=%g after %d step halvings: %w",
					t, halvings, err)
			}
			continue
		}
		if g := c.Guard; g.Enabled() {
			for i, v := range xNew {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					if err := g.Finite("circuit.transient", fmt.Sprintf("unknown %d at t=%g", i, target), v); err != nil {
						return State{}, err
					}
				}
			}
		}
		if m := c.Metrics; m != nil {
			m.TransientSteps.Inc()
		}
		t = target
		x, xNew = xNew, x
		if hitBreak {
			bpIdx++
			dt = spec.InitStep
		} else {
			dt = math.Min(dt*growth, spec.MaxStep)
		}
		done := spec.OnStep != nil && spec.OnStep(t, x)
		if save > 0 && t >= save-1e-21 {
			break
		}
		if done && bpIdx >= len(bps) {
			break
		}
	}
	return State{T: t, X: x, Step: dt}, nil
}

// collectBreakpoints gathers, sorts, and dedupes the waveform breakpoints
// and the save time, if positive, once per analysis. Each waveform appends
// its corners straight into the workspace buffer, so repeated transients
// on the same circuit allocate no breakpoint list.
func (c *Circuit) collectBreakpoints(spec TransientSpec, save float64) []float64 {
	bps := c.ws.bps[:0]
	if save > 0 {
		bps = append(bps, save)
	}
	for _, d := range c.devices {
		switch dev := d.(type) {
		case *VSource:
			bps = dev.W.AppendBreakpoints(bps)
		case *ISource:
			bps = dev.W.AppendBreakpoints(bps)
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

// workspace holds the solver's reusable buffers: the MNA matrix (flat
// backing plus row views, so denseLU's pivot swaps stay cheap and zeroing
// is one memclr), the RHS, the stamper, the transient ping-pong solution
// buffers, and the breakpoint list. Everything is sized once per system
// dimension and reused across Newton iterations, timesteps, and whole
// analyses.
type workspace struct {
	n     int
	rows  []float64   // n×n flat backing for a
	a     [][]float64 // row views into rows (denseLU permutes the views)
	b     []float64
	st    Stamper
	xCur  Solution // transient working solution
	xNext Solution // transient trial solution (ping-pongs with xCur)
	bps   []float64
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

// newtonSolve iterates the damped Newton loop in place on x. xPrev is the
// previous accepted timestep solution (used by reactive companion models);
// dt == 0 selects DC. Convergence is on the voltage-update norm, and a
// failure to converge reports the last iteration's norm.
func (c *Circuit) newtonSolve(x, xPrev Solution, t, dt float64) error {
	n := c.unknowns()
	ws := &c.ws
	ws.ensure(n)
	a, b := ws.a, ws.b
	ws.st = Stamper{a: a, b: b, xPrev: xPrev, time: t, dt: dt}
	st := &ws.st

	m := c.Metrics
	maxUpdate := 0.0
	for iter := 0; iter < c.MaxNewtonIter; iter++ {
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
		if err := denseLU(a, b); err != nil {
			if m != nil {
				m.FailedSolves.Inc()
			}
			return err
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
				return fmt.Errorf("circuit: Newton diverged at iteration %d (non-finite unknown %d)",
					iter+1, i)
			}
		}
		if converged && iter > 0 {
			return nil
		}
	}
	if m != nil {
		m.FailedSolves.Inc()
	}
	return fmt.Errorf("circuit: Newton failed to converge in %d iterations (last update norm %.3g V)",
		c.MaxNewtonIter, maxUpdate)
}
