package finfet

import (
	"math"
	"testing"
	"testing/quick"
)

// Property: Id is monotone non-decreasing in Vgs for NMOS at fixed Vds>0.
func TestIdMonotoneInVgs(t *testing.T) {
	p := nparams()
	f := func(raw1, raw2, rawD float64) bool {
		vg1 := math.Abs(math.Mod(raw1, 1.2))
		vg2 := math.Abs(math.Mod(raw2, 1.2))
		vd := 0.05 + math.Abs(math.Mod(rawD, 1.0))
		if vg1 > vg2 {
			vg1, vg2 = vg2, vg1
		}
		i1 := DrainCurrent(p, vg1, vd, 0)
		i2 := DrainCurrent(p, vg2, vd, 0)
		return i2 >= i1-1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: Id is monotone non-decreasing in Vds for NMOS at fixed Vgs.
func TestIdMonotoneInVds(t *testing.T) {
	p := nparams()
	f := func(rawG, raw1, raw2 float64) bool {
		vg := math.Abs(math.Mod(rawG, 1.2))
		vd1 := math.Abs(math.Mod(raw1, 1.2))
		vd2 := math.Abs(math.Mod(raw2, 1.2))
		if vd1 > vd2 {
			vd1, vd2 = vd2, vd1
		}
		i1 := DrainCurrent(p, vg, vd1, 0)
		i2 := DrainCurrent(p, vg, vd2, 0)
		return i2 >= i1-1e-18
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: the model is C¹-smooth enough for Newton — central-difference
// derivatives computed at two nearby scales agree (no kinks).
func TestIdSmoothness(t *testing.T) {
	p := nparams()
	f := func(rawG, rawD float64) bool {
		vg := math.Abs(math.Mod(rawG, 1.2))
		vd := math.Abs(math.Mod(rawD, 1.2))
		d := func(h float64) float64 {
			return (DrainCurrent(p, vg+h, vd, 0) - DrainCurrent(p, vg-h, vd, 0)) / (2 * h)
		}
		g1 := d(1e-6)
		g2 := d(1e-7)
		scale := math.Max(math.Abs(g1), 1e-12)
		return math.Abs(g1-g2)/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: gm ≥ 0 over the full bias plane — NMOS current never falls as
// the gate rises, and PMOS conduction magnitude never falls as the gate
// drops.
func TestTransconductanceNonNegative(t *testing.T) {
	const h = 1e-6
	n := nparams()
	for vg := -0.2; vg <= 1.4; vg += 0.05 {
		for vd := 0.0; vd <= 1.2; vd += 0.1 {
			gm := (DrainCurrent(n, vg+h, vd, 0) - DrainCurrent(n, vg-h, vd, 0)) / (2 * h)
			if gm < -1e-12 {
				t.Fatalf("NMOS negative gm at vg=%v vd=%v: %v", vg, vd, gm)
			}
		}
	}
	p := pparams()
	for vg := -0.2; vg <= 1.4; vg += 0.05 {
		for vd := 0.0; vd <= 1.2; vd += 0.1 {
			// PMOS: source at 1.2 V; |Id| must not increase with rising vg.
			dmag := (math.Abs(DrainCurrent(p, vg+h, vd, 1.2)) -
				math.Abs(DrainCurrent(p, vg-h, vd, 1.2))) / (2 * h)
			if dmag > 1e-12 {
				t.Fatalf("PMOS |Id| increases with gate at vg=%v vd=%v: %v", vg, vd, dmag)
			}
		}
	}
}

// Zero-bias current must vanish: no spurious source at Vds = 0.
func TestZeroBiasZeroCurrent(t *testing.T) {
	for _, p := range []Params{nparams(), pparams()} {
		for vg := 0.0; vg <= 1.2; vg += 0.1 {
			if id := DrainCurrent(p, vg, 0.5, 0.5); math.Abs(id) > 1e-15 {
				t.Fatalf("%v: Id(Vds=0) = %v at vg=%v", p.Polarity, id, vg)
			}
		}
	}
}

// centralPartials is the Jacobian Transistor.Stamp once took: central
// differences of DrainCurrent with h = 1e-7 V.
func centralPartials(p Params, vg, vd, vs float64) (gg, gd, gs float64) {
	const h = 1e-7
	gg = (DrainCurrent(p, vg+h, vd, vs) - DrainCurrent(p, vg-h, vd, vs)) / (2 * h)
	gd = (DrainCurrent(p, vg, vd+h, vs) - DrainCurrent(p, vg, vd-h, vs)) / (2 * h)
	gs = (DrainCurrent(p, vg, vd, vs+h) - DrainCurrent(p, vg, vd, vs-h)) / (2 * h)
	return gg, gd, gs
}

// Property: the closed-form partials match central differences to within
// 1e-6 of their scale, for both polarities, forward and swapped terminals
// (vd = vs exactly included), from weak to strong inversion and past
// u = 80, where F switches to its large-argument form. The loosest points
// are at vd = vs in deep subthreshold: the current's second derivative
// jumps where the terminals swap, so there the central difference itself
// is only first-order accurate, off by about h/φt·(1−1/n)/2 ≈ 2.5e-7.
func TestAnalyticPartialsMatchCentralDifferences(t *testing.T) {
	volts := []float64{-0.2, 0, 0.1, 0.25, 0.3, 0.45, 0.6, 0.8, 1.1}
	gates := append([]float64{2.7, 4}, volts...)
	worst := 0.0
	for _, p := range []Params{nparams(), pparams(), ParamsFor(Default14nmSOI(), PChannel, 3)} {
		for _, vg := range gates {
			for _, vd := range volts {
				for _, vs := range volts {
					for _, sgn := range []float64{1, -1} {
						// sgn = -1 mirrors the bias, which puts a PMOS in
						// conduction and an NMOS in its reverse corner.
						g, d, s := sgn*vg, sgn*vd, sgn*vs
						id, ag, ad, as := evaluate(p, g, d, s)
						if math.Float64bits(id) != math.Float64bits(DrainCurrent(p, g, d, s)) {
							t.Fatalf("%v (%v, %v, %v): evaluate's id differs from DrainCurrent", p.Polarity, g, d, s)
						}
						cg, cd, cs := centralPartials(p, g, d, s)
						scale := math.Max(math.Max(math.Abs(ag), math.Abs(ad)), math.Abs(as))
						if scale == 0 {
							continue
						}
						for _, pair := range [][2]float64{{ag, cg}, {ad, cd}, {as, cs}} {
							rel := math.Abs(pair[0]-pair[1]) / scale
							worst = math.Max(worst, rel)
							if rel > 1e-6 {
								t.Errorf("%v (vg, vd, vs) = (%v, %v, %v): analytic %v, central %v (%.2g of scale %v)",
									p.Polarity, g, d, s, pair[0], pair[1], rel, scale)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("worst |analytic − central| / scale = %.3g", worst)
}

// TestDrainCurrentBits pins DrainCurrent to the bit at a handful of bias
// points, recorded when it still took its own evaluation: fusing the
// partials into the evaluation must not move the current.
func TestDrainCurrentBits(t *testing.T) {
	n, p := nparams(), pparams()
	n3 := ParamsFor(Default14nmSOI(), NChannel, 3)
	for _, c := range []struct {
		p          Params
		vg, vd, vs float64
		bits       uint64
	}{
		{n, 0.8, 0.8, 0, 0x3f07ab4a81d0cda3},
		{n, 0, 0.8, 0, 0x3dbce9a48433bd70},
		{n, 0.3, 0.05, 0, 0x3e8e736178830679},
		{n, 0.8, 0.2, 0.7, 0xbef0b2e5668ae610},
		{n3, 0.55, 0.4, 0.1, 0x3eea1f973aa6da72},
		{p, 0, 0.2, 0.8, 0xbefbf9a54798422a},
		{p, 0.8, 0.2, 0.8, 0xbdb116342f4eb5bc},
		{p, 0.1, 0.9, 0.3, 0x3efbf9a54798422a},
		{n, 6, 0.8, 0, 0x3f5c86454a4b39a7},
	} {
		if got := DrainCurrent(c.p, c.vg, c.vd, c.vs); math.Float64bits(got) != c.bits {
			t.Errorf("%v (%v, %v, %v): Id = %v (%#016x), want %v (%#016x)", c.p.Polarity, c.vg, c.vd, c.vs,
				got, math.Float64bits(got), math.Float64frombits(c.bits), c.bits)
		}
	}
}
