package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpeciesString(t *testing.T) {
	if Proton.String() != "proton" || Alpha.String() != "alpha" {
		t.Error("species names wrong")
	}
	if Species(99).String() != "Species(99)" {
		t.Error("unknown species string wrong")
	}
}

func TestSpeciesPanicsOnUnknown(t *testing.T) {
	for _, fn := range []func(){
		func() { Species(99).MassMeV() },
		func() { Species(99).ChargeNumber() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for unknown species")
				}
			}()
			fn()
		}()
	}
}

func TestBeta2(t *testing.T) {
	if Proton.Beta2(0) != 0 || Proton.Beta2(-1) != 0 {
		t.Error("beta2 should be 0 at non-positive energy")
	}
	// Non-relativistic check: T = ½mv² ⇒ β² ≈ 2T/m.
	b2 := Proton.Beta2(1)
	if want := 2.0 / 938.272; math.Abs(b2-want)/want > 0.01 {
		t.Errorf("proton β²(1 MeV) = %v, want ≈ %v", b2, want)
	}
	// Same energy ⇒ alpha slower than proton (paper: τp,proton ≈ τp,alpha/10
	// comes from speed ordering at the relevant energies).
	if Alpha.Beta2(1) >= Proton.Beta2(1) {
		t.Error("alpha should be slower than proton at equal kinetic energy")
	}
	// β² is monotone in energy and bounded by 1.
	prev := 0.0
	for e := 0.01; e < 1e5; e *= 2 {
		b := Proton.Beta2(e)
		if b <= prev || b >= 1 {
			t.Fatalf("β² not monotone/bounded at %v MeV: %v", e, b)
		}
		prev = b
	}
}

func TestSpeed(t *testing.T) {
	// 10 MeV proton: β ≈ 0.145 ⇒ v ≈ 43.5 nm/fs.
	v := Proton.SpeedNmPerFs(10)
	if v < 40 || v < 0 || v > 50 {
		t.Errorf("proton speed at 10 MeV = %v nm/fs", v)
	}
	if Alpha.SpeedNmPerFs(0) != 0 {
		t.Error("speed at zero energy should be 0")
	}
	// Paper §3.3: τp (fin crossing) is far below the ~10 fs transit time.
	// A 1 MeV alpha crosses a 10 nm fin in well under 1 fs.
	tau := 10.0 / Alpha.SpeedNmPerFs(1)
	if tau >= 1.5 {
		t.Errorf("alpha fin passage time = %v fs, want < 1.5 fs", tau)
	}
}

func TestPairStatistics(t *testing.T) {
	if PairsFromEnergy(-5) != 0 || PairsFromEnergy(0) != 0 {
		t.Error("pairs from non-positive energy should be 0")
	}
	if got := PairsFromEnergy(360); math.Abs(got-100) > 1e-9 {
		t.Errorf("PairsFromEnergy(360) = %v, want 100", got)
	}
	if got := ChargeFromPairs(1); got != ElementaryCharge {
		t.Errorf("ChargeFromPairs(1) = %v", got)
	}
	if got := ChargeFromEnergy(3.6); math.Abs(got-ElementaryCharge) > 1e-30 {
		t.Errorf("ChargeFromEnergy(3.6) = %v", got)
	}
}

func TestTabulatedStoppingBasics(t *testing.T) {
	m := NewTabulatedStopping()
	if m.ElectronicStopping(Proton, 0) != 0 || m.ElectronicStopping(Alpha, -1) != 0 {
		t.Error("stopping at non-positive energy should be 0")
	}
	// Spot values against the anchor data (within interpolation exactness).
	// Proton at 1 MeV: 180 MeV·cm²/g → 180·2.329·0.1 ≈ 41.9 eV/nm.
	got := m.ElectronicStopping(Proton, 1)
	if math.Abs(got-41.9)/41.9 > 0.02 {
		t.Errorf("proton S(1 MeV) = %v eV/nm, want ≈ 41.9", got)
	}
	// Alpha at 1 MeV: 1340 → ≈ 312 eV/nm.
	got = m.ElectronicStopping(Alpha, 1)
	if math.Abs(got-312)/312 > 0.02 {
		t.Errorf("alpha S(1 MeV) = %v eV/nm, want ≈ 312", got)
	}
}

func TestAlphaExceedsProton(t *testing.T) {
	// The paper's Fig. 4 ordering: alpha generates far more e-h pairs than
	// a proton at every energy of interest.
	for _, m := range []StoppingModel{NewTabulatedStopping(), BetheBlochStopping{}} {
		for e := 0.1; e <= 100; e *= 1.5 {
			a := m.ElectronicStopping(Alpha, e)
			p := m.ElectronicStopping(Proton, e)
			if a <= p {
				t.Errorf("%T: alpha stopping %v <= proton %v at %v MeV", m, a, p, e)
			}
		}
	}
}

func TestStoppingDecreasingAboveBraggPeak(t *testing.T) {
	// Fig. 4: yield decreases with energy in the MeV range (above the peak).
	for _, tc := range []struct {
		sp    Species
		above float64
	}{{Proton, 0.2}, {Alpha, 1.0}} {
		m := NewTabulatedStopping()
		prev := math.Inf(1)
		for e := tc.above; e <= 100; e *= 1.3 {
			s := m.ElectronicStopping(tc.sp, e)
			if s >= prev {
				t.Errorf("%v stopping not decreasing at %v MeV", tc.sp, e)
			}
			prev = s
		}
	}
}

func TestBraggPeakExists(t *testing.T) {
	// Both models must exhibit a maximum at low energy (the Bragg peak):
	// stopping rises, then falls.
	for _, m := range []StoppingModel{NewTabulatedStopping(), BetheBlochStopping{}} {
		for _, sp := range []Species{Proton, Alpha} {
			peakE, peakS := 0.0, 0.0
			for e := 0.002; e <= 100; e *= 1.1 {
				if s := m.ElectronicStopping(sp, e); s > peakS {
					peakS, peakE = s, e
				}
			}
			if peakE <= 0.002*1.1 || peakE >= 50 {
				t.Errorf("%T %v: Bragg peak at implausible %v MeV", m, sp, peakE)
			}
			if peakS <= 0 {
				t.Errorf("%T %v: zero peak stopping", m, sp)
			}
		}
	}
}

func TestAnalyticVsTabulatedWithinBand(t *testing.T) {
	// The analytic model should track the tabulated anchors within a factor
	// of ~2 over the energies that matter for the flow (0.05–100 MeV).
	tab := NewTabulatedStopping()
	ana := BetheBlochStopping{}
	for _, sp := range []Species{Proton, Alpha} {
		for e := 0.05; e <= 100; e *= 1.6 {
			ts := tab.ElectronicStopping(sp, e)
			as := ana.ElectronicStopping(sp, e)
			if as <= 0 {
				t.Fatalf("analytic stopping non-positive for %v at %v MeV", sp, e)
			}
			r := as / ts
			if r < 0.4 || r > 2.5 {
				t.Errorf("%v at %v MeV: analytic/tabulated = %v", sp, e, r)
			}
		}
	}
}

func TestStoppingPositive(t *testing.T) {
	f := func(raw float64) bool {
		e := math.Abs(math.Mod(raw, 1000))
		tab := NewTabulatedStopping()
		return tab.ElectronicStopping(Proton, e) >= 0 &&
			tab.ElectronicStopping(Alpha, e) >= 0 &&
			(BetheBlochStopping{}).ElectronicStopping(Proton, e) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSDARange(t *testing.T) {
	m := NewTabulatedStopping()
	// 5 MeV alpha range in Si ≈ 25 µm; accept a generous band around it.
	r := CSDARange(m, Alpha, 5)
	if r < 10e3 || r > 60e3 {
		t.Errorf("alpha 5 MeV range = %v nm, want ~25e3", r)
	}
	// 10 MeV proton range in Si ≈ 700 µm.
	r = CSDARange(m, Proton, 10)
	if r < 300e3 || r > 1.5e6 {
		t.Errorf("proton 10 MeV range = %v nm, want ~700e3", r)
	}
	// Range is monotone in energy.
	prev := 0.0
	for e := 0.01; e < 100; e *= 3 {
		rr := CSDARange(m, Proton, e)
		if rr <= prev {
			t.Fatalf("range not monotone at %v MeV", e)
		}
		prev = rr
	}
	if CSDARange(m, Proton, 0) != 0 {
		t.Error("range at 0 energy should be 0")
	}
}

func TestEffectiveChargeLimits(t *testing.T) {
	// Fast alpha carries its full charge; slow alpha carries less.
	fast := effectiveCharge(Alpha, 100)
	if math.Abs(fast-2) > 0.01 {
		t.Errorf("fast alpha effective charge = %v", fast)
	}
	slow := effectiveCharge(Alpha, 0.01)
	if slow >= fast || slow <= 0 {
		t.Errorf("slow alpha effective charge = %v", slow)
	}
}
