package circuit

import (
	"testing"
)

// TestNewtonSolveZeroAlloc asserts that a converged Newton step on a warm
// workspace allocates nothing: the MNA matrix, RHS, and stamper live on the
// circuit's reusable workspace, so the per-timestep cost is pure arithmetic.
func TestNewtonSolveZeroAlloc(t *testing.T) {
	c := New()
	vdd := c.Node("vdd")
	mid := c.Node("mid")
	c.AddVSource("V1", vdd, Ground, DC(1))
	c.AddResistor("R1", vdd, mid, 1e3)
	c.AddResistor("R2", mid, Ground, 2e3)

	c.assignBranches()
	n := c.unknowns()
	x := make(Solution, n)
	xPrev := make(Solution, n)
	if err := c.newtonSolve(x, xPrev, 0, 0); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range x {
			x[i] = 0
		}
		if err := c.newtonSolve(x, xPrev, 0, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("newtonSolve allocates %v objects/op on a warm workspace, want 0", allocs)
	}
	if v := x[mid]; v < 0.66 || v > 0.67 {
		t.Fatalf("divider voltage %v, want 2/3", v)
	}
}

// TestTransientReuseNoGrowth: repeated transients on the same circuit
// reuse the workspace, and a rerun from the same state takes the same
// steps to the same solutions.
func TestTransientReuseNoGrowth(t *testing.T) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("V1", in, Ground, PWL{
		Times:  []float64{0, 1e-11, 2e-11},
		Values: []float64{0, 0, 1},
	})
	c.AddResistor("R1", in, out, 1e3)
	c.AddCapacitor("C1", out, Ground, 1e-13)
	spec := TransientSpec{TStop: 1e-9, InitStep: 1e-12, MaxStep: 2e-11}

	op, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := record(t, c, op, spec)
	r2, _ := record(t, c, op, spec)
	if len(r1.times) != len(r2.times) {
		t.Fatalf("step counts differ across reruns: %d vs %d", len(r1.times), len(r2.times))
	}
	for i := range r1.times {
		if r1.times[i] != r2.times[i] {
			t.Fatalf("time %d differs: %v vs %v", i, r1.times[i], r2.times[i])
		}
		for j := range r1.values[i] {
			if r1.values[i][j] != r2.values[i][j] {
				t.Fatalf("value [%d][%d] differs: %v vs %v", i, j, r1.values[i][j], r2.values[i][j])
			}
		}
	}
}

// TestTransientZeroAlloc asserts that a transient on a warm circuit
// allocates nothing: it keeps no trajectory, only the state it ends in, in
// the circuit's workspace.
func TestTransientZeroAlloc(t *testing.T) {
	c, init, spec := rcLadder(t)
	if _, err := c.Transient(State{X: init, Step: spec.InitStep}, spec); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Transient(State{X: init, Step: spec.InitStep}, spec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Transient allocates %v objects/run on a warm circuit, want 0", allocs)
	}
}
