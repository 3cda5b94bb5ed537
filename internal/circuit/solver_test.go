package circuit

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"finser/internal/obs"
)

// trajectory records the points a transient passes through, through its
// OnStep callback: the test-side view of a run that keeps none of them.
type trajectory struct {
	times  []float64
	values []Solution
}

// startAt returns a recorder holding the state a transient starts from.
func startAt(s State) *trajectory {
	return &trajectory{times: []float64{s.T}, values: []Solution{append(Solution(nil), s.X...)}}
}

// onStep appends the accepted step to r and never ends the run.
func (r *trajectory) onStep(t float64, x Solution) bool {
	r.times = append(r.times, t)
	r.values = append(r.values, append(Solution(nil), x...))
	return false
}

// at returns the voltage of node n at time t by linear interpolation.
func (r *trajectory) at(n Node, t float64) float64 {
	ts := r.times
	if t <= ts[0] {
		return r.values[0][n]
	}
	if t >= ts[len(ts)-1] {
		return r.values[len(ts)-1][n]
	}
	i := sort.SearchFloat64s(ts, t)
	if ts[i] == t {
		return r.values[i][n]
	}
	f := (t - ts[i-1]) / (ts[i] - ts[i-1])
	return r.values[i-1][n] + f*(r.values[i][n]-r.values[i-1][n])
}

// record runs a transient from x0 at t = 0 and returns the points it
// passes through, x0 first, and the state it ends in.
func record(t *testing.T, c *Circuit, x0 Solution, spec TransientSpec) (*trajectory, State) {
	t.Helper()
	r := startAt(State{X: x0})
	spec.OnStep = r.onStep
	end, err := c.Transient(State{X: x0, Step: spec.InitStep}, spec)
	if err != nil {
		t.Fatal(err)
	}
	return r, end
}

// TestResistorLadderDC checks the MNA solution of randomized resistor
// ladders against the analytic series-sum answer.
func TestResistorLadderDC(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 10 {
			raw = raw[:10]
		}
		c := New()
		top := c.Node("top")
		c.AddVSource("v", top, Ground, DC(1))
		prev := top
		total := 0.0
		for i, r := range raw {
			ohms := 10 + math.Abs(math.Mod(r, 1e4))
			total += ohms
			var next Node
			if i == len(raw)-1 {
				next = Ground
			} else {
				next = c.Node(nodeName(i))
			}
			c.AddResistor(resName(i), prev, next, ohms)
			prev = next
		}
		sol, err := c.OperatingPoint(nil)
		if err != nil {
			return false
		}
		// Voltage at the first interior node follows the divider rule.
		if len(raw) >= 2 {
			n1 := c.Node(nodeName(0))
			r0 := 10 + math.Abs(math.Mod(raw[0], 1e4))
			want := 1 - r0/total
			if math.Abs(sol[n1]-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func nodeName(i int) string { return string(rune('a' + i)) }
func resName(i int) string  { return "r" + string(rune('a'+i)) }

// TestKCLResidual verifies that a solved nonlinear operating point actually
// satisfies Kirchhoff's current law at every node (the solver solves its
// own linearization; this checks the converged point against the device
// equations directly).
func TestKCLResidual(t *testing.T) {
	c := New()
	a := c.Node("a")
	b := c.Node("b")
	c.AddVSource("v", a, Ground, DC(2))
	c.AddResistor("r1", a, b, 1e3)
	c.AddResistor("r2", b, Ground, 2e3)
	c.AddISource("i1", Ground, b, DC(1e-4))
	sol, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	// KCL at b: (Va-Vb)/1k + 1e-4 = Vb/2k.
	residual := (sol[a]-sol[b])/1e3 + 1e-4 - sol[b]/2e3
	if math.Abs(residual) > 1e-9 {
		t.Errorf("KCL residual at b = %v", residual)
	}
}

// TestTransientBreakpointLanding ensures the stepper lands exactly on pulse
// corners — required for exact charge injection.
func TestTransientBreakpointLanding(t *testing.T) {
	c := New()
	n := c.Node("n")
	pulse := RectPulse{T0: 3.3e-12, Width: 1.7e-14, Amp: 1e-3}
	c.AddISource("i", Ground, n, pulse)
	c.AddCapacitor("c", n, Ground, 1e-16)
	res, end := record(t, c, make(Solution, 1), TransientSpec{
		TStop: 1e-11, InitStep: 5e-13, MaxStep: 2e-12,
	})
	found := map[float64]bool{}
	for _, tp := range res.times {
		for _, bp := range pulse.AppendBreakpoints(nil) {
			if math.Abs(tp-bp) < 1e-24 {
				found[bp] = true
			}
		}
	}
	for _, bp := range pulse.AppendBreakpoints(nil) {
		if !found[bp] {
			t.Errorf("stepper missed breakpoint %v", bp)
		}
	}
	// And charge is exact despite the coarse ambient step.
	want := pulse.Charge() / 1e-16
	if got := end.X[n]; math.Abs(got-want)/want > 1e-6 {
		t.Errorf("final = %v, want %v", got, want)
	}
}

// badDevice drives the solver into non-finite territory.
type badDevice struct{}

func (badDevice) Name() string { return "bad" }
func (badDevice) Stamp(s *Stamper) {
	s.AddCurrent(Ground, Node(0), math.NaN())
}

func TestNewtonRejectsNonFinite(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddDevice(badDevice{})
	if _, err := c.OperatingPoint(nil); err == nil {
		t.Error("NaN-stamping device did not fail the solve")
	}
}

// oscillatingDevice never converges: its current flips sign each iteration
// far beyond any tolerance.
type oscillatingDevice struct {
	n    Node
	iter int
}

func (o *oscillatingDevice) Name() string { return "osc" }
func (o *oscillatingDevice) Stamp(s *Stamper) {
	o.iter++
	val := 1.0
	if o.iter%2 == 0 {
		val = -1.0
	}
	s.AddCurrent(Ground, o.n, val)
}

func TestNewtonIterationLimit(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddDevice(&oscillatingDevice{n: n})
	c.MaxNewtonIter = 25
	if _, err := c.OperatingPoint(nil); err == nil {
		t.Error("non-convergent circuit did not error")
	}
}

func TestTransientStallReporting(t *testing.T) {
	// A device that oscillates stalls the transient; the error must carry
	// the stall time rather than hanging.
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-12)
	c.AddDevice(&oscillatingDevice{n: n})
	c.MaxNewtonIter = 10
	_, err := c.Transient(State{X: make(Solution, 1), Step: 1e-12}, TransientSpec{TStop: 1e-9, InitStep: 1e-12})
	if err == nil {
		t.Error("stalled transient did not error")
	}
}

func TestSourceTimeMidpoint(t *testing.T) {
	s := &Stamper{time: 10, dt: 2}
	if got := s.SourceTime(); got != 9 {
		t.Errorf("transient source time = %v, want midpoint 9", got)
	}
	s = &Stamper{time: 10, dt: 0}
	if got := s.SourceTime(); got != 10 {
		t.Errorf("DC source time = %v, want 10", got)
	}
}

func TestCollectBreakpointsDedup(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddISource("i1", Ground, n, RectPulse{T0: 1, Width: 1, Amp: 1})
	c.AddISource("i2", Ground, n, RectPulse{T0: 1, Width: 2, Amp: 1})
	c.AddISource("i3", Ground, n, PWL{Times: []float64{-5, 2, 99}, Values: make([]float64, 3)})
	bps := c.collectBreakpoints(TransientSpec{TStop: 10}, 0)
	// Sorted, deduplicated, in-range: {1, 2, 3}.
	want := []float64{1, 2, 3}
	if len(bps) != len(want) {
		t.Fatalf("breakpoints = %v", bps)
	}
	for i := range want {
		if bps[i] != want[i] {
			t.Fatalf("breakpoints = %v, want %v", bps, want)
		}
	}
}

func TestGrowthCapsAtMaxStep(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-12)
	res, _ := record(t, c, make(Solution, 1), TransientSpec{
		TStop: 1e-9, InitStep: 1e-12, MaxStep: 5e-12,
	})
	for i := 1; i < len(res.times); i++ {
		if res.times[i]-res.times[i-1] > 5e-12+1e-21 {
			t.Fatalf("step %d exceeded MaxStep: %v", i, res.times[i]-res.times[i-1])
		}
	}
}

// TestSettledAfterLastBreakpoint checks that OnStep sees every accepted
// step and that a done answer ends the analysis only once the last
// breakpoint (here the corner of a zero-valued source) is behind the
// stepper: a callback answering true from the first step ends the run
// exactly there, after the steps the full run takes up to it. A nil
// callback runs to TStop.
func TestSettledAfterLastBreakpoint(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-15)
	c.AddISource("i", Ground, n, TriPulse{T0: 2e-12, Width: 3e-12, Amp: 1e-3})
	const last = 8e-12
	c.AddISource("bp", Ground, n, PWL{Times: []float64{last}, Values: []float64{0}})
	spec := TransientSpec{TStop: 1e-10, InitStep: 1e-13, MaxStep: 2e-12}
	full, err := c.Transient(State{X: make(Solution, 1), Step: spec.InitStep}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if full.T != spec.TStop {
		t.Fatalf("nil callback ended at %v, want TStop", full.T)
	}
	ref, _ := record(t, c, make(Solution, 1), spec)

	c.Metrics = NewMetrics(obs.NewRegistry())
	var seen trajectory
	spec.OnStep = func(tt float64, x Solution) bool {
		seen.onStep(tt, x)
		return true
	}
	end, err := c.Transient(State{X: make(Solution, 1), Step: spec.InitStep}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if end.T != last {
		t.Errorf("analysis ended at %v, want the last breakpoint %v", end.T, last)
	}
	if steps := c.Metrics.TransientSteps.Value(); int64(len(seen.times)) != steps {
		t.Errorf("callback saw %d steps, the run accepted %d", len(seen.times), steps)
	}
	if len(seen.times) < 2 || seen.times[0] >= last || seen.times[len(seen.times)-1] != end.T {
		t.Fatalf("callback saw steps at %v, want the first before %v and the last at the end %v", seen.times, last, end.T)
	}
	// Up to the step it ended at, the run is the full run's.
	for i, tt := range seen.times {
		if tt != ref.times[i+1] || seen.values[i][n] != ref.values[i+1][n] {
			t.Fatalf("step %d (%v, %v) differs from the full run's (%v, %v)", i, tt, seen.values[i][n], ref.times[i+1], ref.values[i+1][n])
		}
	}
	if end.X[n] != seen.values[len(seen.values)-1][n] {
		t.Errorf("end state %v, last step seen %v", end.X[n], seen.values[len(seen.values)-1][n])
	}
}

// TestTransientFromMatchesFullRun checks that a transient resumed from the
// state StateAt saves at one of its breakpoints takes exactly the steps of
// the run from t = 0 after it, to the bit, including a breakpoint the
// saved prefix already passed, and that one saved state serves any number
// of resumed runs. StateAt's callback sees the steps before the save, so
// the two together see the full run's steps.
func TestTransientFromMatchesFullRun(t *testing.T) {
	const save = 2e-12
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-15)
	c.AddISource("i", Ground, n, RectPulse{T0: save, Width: 3e-12, Amp: 1e-3})
	c.AddISource("pre", Ground, n, PWL{Times: []float64{0.5e-12, 0.9e-12, 7e-12}, Values: []float64{0, 2e-4, 0}})
	spec := TransientSpec{TStop: 1e-10, InitStep: 1e-13, MaxStep: 2e-12}
	full, _ := record(t, c, make(Solution, 1), spec)
	prefix := startAt(State{X: make(Solution, 1)})
	spec.OnStep = prefix.onStep
	s, err := c.StateAt(make(Solution, 1), spec, save)
	if err != nil {
		t.Fatal(err)
	}
	if s.T != save || s.Step != spec.InitStep {
		t.Fatalf("saved state at t=%v with step %v, want t=%v and InitStep", s.T, s.Step, save)
	}
	k := len(prefix.times) - 1
	for i := 0; i <= k; i++ {
		if prefix.times[i] != full.times[i] || math.Float64bits(prefix.values[i][n]) != math.Float64bits(full.values[i][n]) {
			t.Fatalf("prefix point %d: (%v, %v), full run (%v, %v)", i,
				prefix.times[i], prefix.values[i][n], full.times[i], full.values[i][n])
		}
	}
	if prefix.times[k] != save {
		t.Fatalf("StateAt's last step at %v, want the save time %v", prefix.times[k], save)
	}
	for run := 0; run < 2; run++ {
		res := startAt(s)
		spec.OnStep = res.onStep
		if _, err := c.Transient(s, spec); err != nil {
			t.Fatal(err)
		}
		if len(res.times) != len(full.times)-k {
			t.Fatalf("run %d: %d points from the saved state, want %d", run, len(res.times), len(full.times)-k)
		}
		for i := range res.times {
			if res.times[i] != full.times[k+i] || math.Float64bits(res.values[i][n]) != math.Float64bits(full.values[k+i][n]) {
				t.Fatalf("run %d point %d: (%v, %v), full run (%v, %v)", run, i,
					res.times[i], res.values[i][n], full.times[k+i], full.values[k+i][n])
			}
		}
	}
	for _, at := range []float64{0, -1, spec.TStop} {
		if _, err := c.StateAt(make(Solution, 1), spec, at); err == nil {
			t.Errorf("save time %v accepted", at)
		}
	}
}
