package circuit

import (
	"math"
	"testing"
	"testing/quick"
)

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
	res, err := c.Transient(make(Solution, 1), TransientSpec{
		TStop: 1e-11, InitStep: 5e-13, MaxStep: 2e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	found := map[float64]bool{}
	for _, tp := range res.Times {
		for _, bp := range pulse.Breakpoints() {
			if math.Abs(tp-bp) < 1e-24 {
				found[bp] = true
			}
		}
	}
	for _, bp := range pulse.Breakpoints() {
		if !found[bp] {
			t.Errorf("stepper missed breakpoint %v", bp)
		}
	}
	// And charge is exact despite the coarse ambient step.
	want := pulse.Charge() / 1e-16
	if got := res.Final(n); math.Abs(got-want)/want > 1e-6 {
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
	_, err := c.Transient(make(Solution, 1), TransientSpec{TStop: 1e-9, InitStep: 1e-12})
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
	res, err := c.Transient(make(Solution, 1), TransientSpec{
		TStop: 1e-9, InitStep: 1e-12, MaxStep: 5e-12,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Times); i++ {
		if res.Times[i]-res.Times[i-1] > 5e-12+1e-21 {
			t.Fatalf("step %d exceeded MaxStep: %v", i, res.Times[i]-res.Times[i-1])
		}
	}
}

// TestSettledAfterLastBreakpoint checks that the settle predicate is first
// consulted on the last breakpoint (here the corner of a zero-valued
// source), never before it, and that the analysis ends at the first step it
// accepts. A nil predicate runs to TStop.
func TestSettledAfterLastBreakpoint(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-15)
	c.AddISource("i", Ground, n, TriPulse{T0: 2e-12, Width: 3e-12, Amp: 1e-3})
	const last = 8e-12
	c.AddISource("bp", Ground, n, PWL{Times: []float64{last}, Values: []float64{0}})
	spec := TransientSpec{TStop: 1e-10, InitStep: 1e-13, MaxStep: 2e-12}
	full, err := c.Transient(make(Solution, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if end := full.Times[len(full.Times)-1]; end != spec.TStop {
		t.Fatalf("nil predicate ended at %v, want TStop", end)
	}

	var asked []float64
	spec.Settled = func(tt float64, x Solution) bool {
		asked = append(asked, tt)
		return len(asked) == 3
	}
	res, err := c.Transient(make(Solution, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(asked) != 3 {
		t.Fatalf("predicate consulted %d times, want 3", len(asked))
	}
	if asked[0] != last {
		t.Errorf("first consultation at t=%v, want the last breakpoint %v", asked[0], last)
	}
	for _, tt := range asked {
		if tt < last {
			t.Errorf("predicate consulted at t=%v, before the last breakpoint %v", tt, last)
		}
	}
	if end := res.Times[len(res.Times)-1]; end != asked[2] {
		t.Errorf("analysis ended at %v, want the settled step %v", end, asked[2])
	}
	// Up to the settled step, the trajectory is the full run's.
	for i := range res.Times {
		if res.Times[i] != full.Times[i] || res.Values[i][n] != full.Values[i][n] {
			t.Fatalf("point %d differs from the full run", i)
		}
	}
}

// TestTransientFromMatchesFullRun checks that a transient resumed from the
// state StateAt saves at one of its breakpoints takes exactly the steps of
// the run from t = 0 after it, to the bit, including a breakpoint the
// saved prefix already passed, and that one saved state serves any number
// of resumed runs.
func TestTransientFromMatchesFullRun(t *testing.T) {
	const save = 2e-12
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1e3)
	c.AddCapacitor("c", n, Ground, 1e-15)
	c.AddISource("i", Ground, n, RectPulse{T0: save, Width: 3e-12, Amp: 1e-3})
	c.AddISource("pre", Ground, n, PWL{Times: []float64{0.5e-12, 0.9e-12, 7e-12}, Values: []float64{0, 2e-4, 0}})
	spec := TransientSpec{TStop: 1e-10, InitStep: 1e-13, MaxStep: 2e-12}
	full, err := c.Transient(make(Solution, 1), spec)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.StateAt(make(Solution, 1), spec, save)
	if err != nil {
		t.Fatal(err)
	}
	if s.T != save || s.Step != spec.InitStep {
		t.Fatalf("saved state at t=%v with step %v, want t=%v and InitStep", s.T, s.Step, save)
	}
	k := 0
	for full.Times[k] != save {
		k++
	}
	for run := 0; run < 2; run++ {
		res, err := c.TransientFrom(s, spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Times) != len(full.Times)-k {
			t.Fatalf("run %d: %d points from the saved state, want %d", run, len(res.Times), len(full.Times)-k)
		}
		for i := range res.Times {
			if res.Times[i] != full.Times[k+i] || math.Float64bits(res.Values[i][n]) != math.Float64bits(full.Values[k+i][n]) {
				t.Fatalf("run %d point %d: (%v, %v), full run (%v, %v)", run, i,
					res.Times[i], res.Values[i][n], full.Times[k+i], full.Values[k+i][n])
			}
		}
	}
	for _, at := range []float64{0, -1, spec.TStop} {
		if _, err := c.StateAt(make(Solution, 1), spec, at); err == nil {
			t.Errorf("save time %v accepted", at)
		}
	}
}
