package circuit

import "testing"

// BenchmarkTransientRC times the solver on the canonical RC step response.
func BenchmarkTransientRC(b *testing.B) {
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	step := PWL{Times: []float64{0, 1e-12}, Values: []float64{0, 1}}
	c.AddVSource("v1", in, Ground, step)
	c.AddResistor("r1", in, out, 1e3)
	c.AddCapacitor("c1", out, Ground, 1e-12)
	init, err := c.OperatingPoint(nil)
	if err != nil {
		b.Fatal(err)
	}
	spec := TransientSpec{TStop: 5e-9, InitStep: 5e-12, MaxStep: 2e-11}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(State{X: init, Step: spec.InitStep}, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// rcLadder builds an SRAM-sized system, a 10-stage RC ladder driven by a
// pulse (~11 unknowns, the same MNA dimension as a 6T cell), and returns
// it with its DC operating point and a transient spec over the pulse.
func rcLadder(tb testing.TB) (*Circuit, Solution, TransientSpec) {
	tb.Helper()
	c := New()
	pulse := PWL{Times: []float64{0, 1e-11, 2e-11, 1e-10, 1.1e-10},
		Values: []float64{0, 0, 1, 1, 0}}
	in := c.Node("in")
	c.AddVSource("v1", in, Ground, pulse)
	prev := in
	for i := 0; i < 10; i++ {
		n := c.Node("n" + string(rune('a'+i)))
		c.AddResistor("r"+string(rune('a'+i)), prev, n, 1e3)
		c.AddCapacitor("c"+string(rune('a'+i)), n, Ground, 1e-13)
		prev = n
	}
	init, err := c.OperatingPoint(nil)
	if err != nil {
		tb.Fatal(err)
	}
	return c, init, TransientSpec{TStop: 1e-9, InitStep: 1e-12, MaxStep: 2e-11}
}

// BenchmarkTransientSolve times a full transient analysis on the rcLadder
// system: matrix assembly, dense LU, and the accepted-step bookkeeping
// dominate, which is exactly the per-strike cost the cell characterization
// pays. Run with -benchmem; a transient on a warm circuit allocates
// nothing.
func BenchmarkTransientSolve(b *testing.B) {
	c, init, spec := rcLadder(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Transient(State{X: init, Step: spec.InitStep}, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseLU times the linear kernel at SRAM-cell size.
func BenchmarkDenseLU(b *testing.B) {
	const n = 12
	a0 := make([][]float64, n)
	for i := range a0 {
		a0[i] = make([]float64, n)
		for j := range a0[i] {
			a0[i][j] = 1 / float64(i+j+1)
		}
		a0[i][i] += float64(n)
	}
	a := make([][]float64, n)
	rows := make([]float64, n*n)
	rhs := make([]float64, n)
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		for i := range a {
			a[i] = rows[i*n : (i+1)*n]
			copy(a[i], a0[i])
			rhs[i] = float64(i)
		}
		if err := denseLU(a, rhs); err != nil {
			b.Fatal(err)
		}
	}
}
