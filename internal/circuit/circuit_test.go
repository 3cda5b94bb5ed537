package circuit

import (
	"math"
	"testing"
)

func TestVoltageDivider(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddVSource("v1", in, Ground, DC(1.0))
	c.AddResistor("r1", in, mid, 1e3)
	c.AddResistor("r2", mid, Ground, 3e3)
	sol, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol[mid]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("divider mid = %v, want 0.75", got)
	}
	if got := sol[in]; math.Abs(got-1.0) > 1e-9 {
		t.Errorf("divider in = %v, want 1.0", got)
	}
}

func TestVSourceBranchCurrent(t *testing.T) {
	c := New()
	in := c.Node("in")
	v := c.AddVSource("v1", in, Ground, DC(2.0))
	c.AddResistor("r1", in, Ground, 1e3)
	sol, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	// 2 V across 1 kΩ → 2 mA out of the source's + terminal, so the branch
	// current (flowing + to - inside the source) is -2 mA.
	if got := sol[v.Branch()]; math.Abs(got+2e-3) > 1e-9 {
		t.Errorf("source current = %v, want -2e-3", got)
	}
}

func TestCurrentSourceIntoResistor(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddISource("i1", Ground, n, DC(1e-3))
	c.AddResistor("r1", n, Ground, 2e3)
	sol, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := sol[n]; math.Abs(got-2.0) > 1e-6 {
		t.Errorf("node voltage = %v, want 2.0", got)
	}
}

func TestCapacitorOpenAtDC(t *testing.T) {
	c := New()
	in := c.Node("in")
	mid := c.Node("mid")
	c.AddVSource("v1", in, Ground, DC(1.0))
	c.AddResistor("r1", in, mid, 1e3)
	c.AddCapacitor("c1", mid, Ground, 1e-12)
	sol, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	// No DC path to ground through the cap: mid floats to the source value
	// (pinned by gmin).
	if got := sol[mid]; math.Abs(got-1.0) > 1e-3 {
		t.Errorf("mid = %v, want ≈ 1.0", got)
	}
}

func TestRCStepResponse(t *testing.T) {
	// Series R into C driven by a step via PWL; V_C(t) = 1 - exp(-t/RC).
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	step := PWL{Times: []float64{0, 1e-12}, Values: []float64{0, 1}}
	c.AddVSource("v1", in, Ground, step)
	c.AddResistor("r1", in, out, 1e3)        // 1 kΩ
	c.AddCapacitor("c1", out, Ground, 1e-12) // 1 pF → τ = 1 ns
	init, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, end := record(t, c, init, TransientSpec{
		TStop:    5e-9,
		InitStep: 5e-12,
		MaxStep:  2e-11,
	})
	tau := 1e-9
	for _, tp := range []float64{0.5e-9, 1e-9, 2e-9, 4e-9} {
		want := 1 - math.Exp(-tp/tau)
		got := res.at(out, tp)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("V_C(%v) = %v, want %v", tp, got, want)
		}
	}
	if f := end.X[out]; math.Abs(f-1) > 0.01 {
		t.Errorf("final = %v, want ≈ 1", f)
	}
}

func TestRectPulseChargesCapacitor(t *testing.T) {
	// A rectangular current pulse of charge Q into capacitor C raises it by
	// exactly Q/C — the identity behind the paper's charge-equivalence
	// observation.
	c := New()
	n := c.Node("n")
	pulse := RectPulse{T0: 1e-12, Width: 10e-15, Amp: 1e-3} // Q = 1e-17 C
	c.AddISource("i1", Ground, n, pulse)
	c.AddCapacitor("c1", n, Ground, 1e-16) // 0.1 fF
	end, err := c.Transient(State{X: make(Solution, c.unknowns()), Step: 1e-15}, TransientSpec{
		TStop:    5e-12,
		InitStep: 1e-15,
		MaxStep:  1e-13,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantDeltaV := pulse.Charge() / 1e-16 // 0.1 V
	if got := end.X[n]; math.Abs(got-wantDeltaV)/wantDeltaV > 0.02 {
		t.Errorf("ΔV = %v, want %v", got, wantDeltaV)
	}
}

func TestChargeEquivalenceAcrossShapes(t *testing.T) {
	// Same charge via rect, triangular, and double-exponential pulses must
	// leave the same voltage on a capacitor.
	const q = 2e-16
	shapes := []Waveform{
		RectPulse{T0: 1e-12, Width: 1e-14, Amp: q / 1e-14},
		TriPulse{T0: 1e-12, Width: 2e-14, Amp: q / 1e-14}, // Amp·W/2 = q
		DoubleExpWithCharge(1e-12, 2e-15, 2e-14, q),
	}
	var finals []float64
	for i, w := range shapes {
		c := New()
		n := c.Node("n")
		c.AddISource("i1", Ground, n, w)
		c.AddCapacitor("c1", n, Ground, 1e-15)
		end, err := c.Transient(State{X: make(Solution, c.unknowns()), Step: 5e-16},
			TransientSpec{TStop: 1e-11, InitStep: 5e-16, MaxStep: 2e-14})
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		finals = append(finals, end.X[n])
	}
	want := q / 1e-15
	for i, f := range finals {
		if math.Abs(f-want)/want > 0.05 {
			t.Errorf("shape %d final = %v, want %v", i, f, want)
		}
	}
}

func TestWaveformCharges(t *testing.T) {
	r := RectPulse{T0: 0, Width: 2, Amp: 3}
	if r.Charge() != 6 {
		t.Errorf("rect charge = %v", r.Charge())
	}
	tr := TriPulse{T0: 0, Width: 2, Amp: 3}
	if tr.Charge() != 3 {
		t.Errorf("tri charge = %v", tr.Charge())
	}
	de := DoubleExpWithCharge(0, 1, 5, 8)
	if math.Abs(de.Charge()-8) > 1e-12 {
		t.Errorf("double-exp charge = %v", de.Charge())
	}
	// Numeric integral of the double-exp matches its Charge().
	sum := 0.0
	dt := 0.001
	for x := 0.0; x < 100; x += dt {
		sum += de.Value(x) * dt
	}
	if math.Abs(sum-8)/8 > 0.01 {
		t.Errorf("double-exp integral = %v, want 8", sum)
	}
}

func TestWaveformValues(t *testing.T) {
	r := RectPulse{T0: 1, Width: 2, Amp: 5}
	for _, tc := range []struct{ t, want float64 }{
		{0.5, 0}, {1, 5}, {2.9, 5}, {3, 0}, {4, 0},
	} {
		if got := r.Value(tc.t); got != tc.want {
			t.Errorf("rect(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	tr := TriPulse{T0: 0, Width: 4, Amp: 8}
	for _, tc := range []struct{ t, want float64 }{
		{-1, 0}, {0, 0}, {1, 4}, {2, 8}, {3, 4}, {4, 0}, {5, 0},
	} {
		if got := tr.Value(tc.t); got != tc.want {
			t.Errorf("tri(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	p := PWL{Times: []float64{1, 2, 4}, Values: []float64{0, 10, 0}}
	for _, tc := range []struct{ t, want float64 }{
		{0, 0}, {1.5, 5}, {2, 10}, {3, 5}, {5, 0},
	} {
		if got := p.Value(tc.t); got != tc.want {
			t.Errorf("pwl(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
	if (PWL{}).Value(3) != 0 {
		t.Error("empty PWL should be 0")
	}
	if (DC(2.5)).Value(99) != 2.5 || len((DC(0)).AppendBreakpoints(nil)) != 0 {
		t.Error("DC waveform wrong")
	}
}

func TestTransientValidation(t *testing.T) {
	c := New()
	n := c.Node("n")
	c.AddResistor("r", n, Ground, 1)
	if _, err := c.Transient(State{X: make(Solution, 5), Step: 1e-3}, TransientSpec{TStop: 1, InitStep: 1e-3}); err == nil {
		t.Error("wrong-size initial condition accepted")
	}
	if _, err := c.Transient(State{X: make(Solution, 1), Step: 1e-3}, TransientSpec{TStop: 0, InitStep: 1e-3}); err == nil {
		t.Error("zero TStop accepted")
	}
	if _, err := c.Transient(State{X: make(Solution, 1), Step: 1e-3}, TransientSpec{TStop: 1, InitStep: 0}); err == nil {
		t.Error("zero InitStep accepted")
	}
	if _, err := c.Transient(State{X: make(Solution, 1)}, TransientSpec{TStop: 1, InitStep: 1e-3}); err == nil {
		t.Error("zero state step accepted")
	}
}

func TestAddDevicePanics(t *testing.T) {
	c := New()
	n := c.Node("n")
	for _, fn := range []func(){
		func() { c.AddResistor("r", n, Ground, 0) },
		func() { c.AddCapacitor("c", n, Ground, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNodeIdentity(t *testing.T) {
	c := New()
	a := c.Node("x")
	b := c.Node("x")
	if a != b {
		t.Error("same name should return same node")
	}
	if c.Node("0") != Ground || c.Node("gnd") != Ground {
		t.Error("ground aliases wrong")
	}
	if c.NodeName(a) != "x" || c.NodeName(Ground) != "0" {
		t.Error("node names wrong")
	}
	if c.NumNodes() != 1 {
		t.Errorf("NumNodes = %d", c.NumNodes())
	}
}

func TestSingularCircuit(t *testing.T) {
	// Two voltage sources in parallel with different values: singular/
	// inconsistent system must error, not hang or produce garbage.
	c := New()
	n := c.Node("n")
	c.AddVSource("v1", n, Ground, DC(1))
	c.AddVSource("v2", n, Ground, DC(2))
	if _, err := c.OperatingPoint(nil); err == nil {
		t.Error("inconsistent parallel sources accepted")
	}
}
