package circuit

import (
	"math"
	"testing"
)

// rcError integrates the RC step response with a fixed step and returns
// the max deviation from the analytic solution.
func rcError(t *testing.T, step float64) float64 {
	t.Helper()
	c := New()
	in := c.Node("in")
	out := c.Node("out")
	c.AddVSource("v1", in, Ground, PWL{Times: []float64{0, 1e-13}, Values: []float64{0, 1}})
	c.AddResistor("r1", in, out, 1e3)
	c.AddCapacitor("c1", out, Ground, 1e-12) // τ = 1 ns
	init, err := c.OperatingPoint(nil)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := record(t, c, init, TransientSpec{
		TStop:    3e-9,
		InitStep: step,
		MaxStep:  step, // fixed step: isolates the method's order
	})
	maxErr := 0.0
	for i, tp := range res.times {
		if tp < 2e-13 {
			continue
		}
		want := 1 - math.Exp(-(tp-1e-13)/1e-9)
		if e := math.Abs(res.values[i][out] - want); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestIntegratorOrders(t *testing.T) {
	// Backward Euler is first order: halving the step should cut its
	// error ~2×.
	const lo, hi = 1.6, 2.6 // acceptable error-ratio band for step halving
	ratio := rcError(t, 8e-11) / rcError(t, 4e-11)
	if ratio < lo || ratio > hi {
		t.Errorf("BE: error ratio for step halving = %v, want [%v, %v]", ratio, lo, hi)
	}
}
