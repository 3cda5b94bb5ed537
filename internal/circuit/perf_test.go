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
	if _, err := c.newtonSolve(x, xPrev, 0, 0); err != nil {
		t.Fatal(err) // warm the workspace
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := range x {
			x[i] = 0
		}
		if _, err := c.newtonSolve(x, xPrev, 0, 0); err != nil {
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

// TestTransientReuseNoGrowth: repeated transients on the same circuit must
// reuse the workspace — the second run's trajectory storage is the only
// per-run growth, and results from the first run must stay intact (arena
// snapshots are never overwritten by later analyses).
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
	r1, err := c.Transient(op, spec)
	if err != nil {
		t.Fatal(err)
	}
	first := append(Solution(nil), r1.Values[len(r1.Values)-1]...)

	r2, err := c.Transient(op, spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same circuit, same spec, stateless start: trajectories must agree and
	// the first result must not have been clobbered by the second run.
	if len(r1.Times) != len(r2.Times) {
		t.Fatalf("step counts differ across reruns: %d vs %d", len(r1.Times), len(r2.Times))
	}
	for i := range r1.Times {
		if r1.Times[i] != r2.Times[i] {
			t.Fatalf("time %d differs: %v vs %v", i, r1.Times[i], r2.Times[i])
		}
		for j := range r1.Values[i] {
			if r1.Values[i][j] != r2.Values[i][j] {
				t.Fatalf("value [%d][%d] differs: %v vs %v", i, j, r1.Values[i][j], r2.Values[i][j])
			}
		}
	}
	last := r1.Values[len(r1.Values)-1]
	for j := range first {
		if first[j] != last[j] {
			t.Fatalf("first run's stored trajectory mutated at %d: %v vs %v", j, first[j], last[j])
		}
	}
	// The trajectory pre-sizing must have avoided append-regrowth.
	if est := estimateSteps(spec, len(c.collectBreakpoints(spec))); len(r1.Times) > est {
		t.Errorf("estimateSteps underestimated: %d points > estimate %d", len(r1.Times), est)
	}
}
