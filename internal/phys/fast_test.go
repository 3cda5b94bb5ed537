package phys

import (
	"math"
	"sync"
	"testing"
)

// TestFastStoppingMatchesWrapped bounds the dense-resampling error of
// FastStopping against the model it wraps, across every species and the
// whole energy range the transport loop can reach. The grid is ~0.002 wide
// in ln E, so linear interpolation of the smooth stopping curves must stay
// within 1e-4 relative (the effective-charge knee of the heavy recoils is
// the worst case).
func TestFastStoppingMatchesWrapped(t *testing.T) {
	tab := NewTabulatedStopping()
	fast := NewFastStopping(tab)
	for sp := Proton; sp <= SiliconIon; sp++ {
		for lnE := math.Log(2e-4); lnE < math.Log(5e3); lnE += 0.0371 {
			e := math.Exp(lnE)
			want := tab.ElectronicStopping(sp, e)
			got := fast.ElectronicStopping(sp, e)
			if want == 0 {
				if got != 0 {
					t.Fatalf("%v at %g MeV: fast %g, wrapped 0", sp, e, got)
				}
				continue
			}
			if rel := math.Abs(got-want) / want; rel > 1e-4 {
				t.Errorf("%v at %g MeV: fast %g vs wrapped %g (rel %g)", sp, e, got, want, rel)
			}
		}
	}
}

// TestFastStoppingEdges: non-positive energies return 0, and energies
// outside the sampled window clamp exactly like the wrapped tables do.
func TestFastStoppingEdges(t *testing.T) {
	tab := NewTabulatedStopping()
	fast := NewFastStopping(tab)
	if fast.ElectronicStopping(Proton, 0) != 0 || fast.ElectronicStopping(Proton, -1) != 0 {
		t.Error("non-positive energy must return 0")
	}
	for _, e := range []float64{1e-6, 1e-5} {
		if got, want := fast.ElectronicStopping(Alpha, e), tab.ElectronicStopping(Alpha, e); got != want {
			t.Errorf("below-window clamp at %g: %g vs %g", e, got, want)
		}
	}
	if got, want := fast.ElectronicStopping(Proton, 1e5), tab.ElectronicStopping(Proton, 1e5); got != want {
		t.Errorf("above-window clamp: %g vs %g", got, want)
	}
}

// TestFastStoppingZeroAlloc pins the hot-path evaluations at zero
// allocations: the stopping lookup, and the gap lookup once its species'
// range table exists (AllocsPerRun's warm-up call builds it).
func TestFastStoppingZeroAlloc(t *testing.T) {
	fast := NewFastStopping(NewTabulatedStopping())
	allocs := testing.AllocsPerRun(500, func() {
		_ = fast.ElectronicStopping(Alpha, 1.7)
		_ = fast.ElectronicStopping(Proton, 42)
		_ = fast.Residual(Alpha, 1.7, 40)
		_ = fast.Residual(Proton, 42, 2500)
	})
	if allocs != 0 {
		t.Errorf("FastStopping lookups allocate %v objects/op, want 0", allocs)
	}
}

// forwardResidual is the reference for FastStopping.Residual: a forward
// integration of dE/dx = −S(E) for the combined stopping in 0.01 nm
// midpoint steps. It returns the energy left (MeV) after each path in
// pathsNm, which must be ascending multiples of the step.
func forwardResidual(f *FastStopping, sp Species, energyMeV float64, pathsNm []float64) []float64 {
	const step = 0.01 // nm
	s := func(lost float64) float64 { return CombinedStopping(f, sp, energyMeV-lost*1e-6) }
	out := make([]float64, len(pathsNm))
	e0 := energyMeV * 1e6
	lost := 0.0 // eV; accumulated apart from E to keep sub-eV losses exact
	n := 0
	for k, p := range pathsNm {
		for end := int(math.Round(p / step)); n < end && lost < e0; n++ {
			mid := lost + 0.5*step*s(lost)
			lost += step * s(math.Min(mid, e0))
		}
		out[k] = math.Max(e0-lost, 0) * 1e-6
	}
	return out
}

// TestResidualMatchesForwardIntegration bounds the range-table lookup
// against the fine forward integration for p, α and the neutron recoils
// from 50 keV to 1 GeV over paths from 0.1 nm to 3 µm: the energy lost
// must agree within 0.5%.
func TestResidualMatchesForwardIntegration(t *testing.T) {
	fast := NewFastStopping(NewTabulatedStopping())
	paths := []float64{0.1, 0.3, 1, 3, 10, 30, 100, 300, 1000, 3000}
	worst := 0.0
	for sp := Proton; sp <= SiliconIon; sp++ {
		for _, e := range []float64{0.05, 0.2, 1, 5, 50, 1000} {
			want := forwardResidual(fast, sp, e, paths)
			for k, p := range paths {
				got := fast.Residual(sp, e, p)
				wantLoss, gotLoss := e-want[k], e-got
				rel := math.Abs(gotLoss-wantLoss) / wantLoss
				worst = math.Max(worst, rel)
				if rel > 5e-3 {
					t.Errorf("%v %g MeV over %g nm: loss %g MeV, forward integration %g (rel %.2g)", sp, e, p, gotLoss, wantLoss, rel)
				}
			}
		}
	}
	t.Logf("worst relative loss error %.3g", worst)
}

// TestResidualRangesOutMonotone: the energy left never increases with the
// path, and it is exactly 0 once the path reaches the CSDA range.
func TestResidualRangesOutMonotone(t *testing.T) {
	fast := NewFastStopping(NewTabulatedStopping())
	for sp := Proton; sp <= SiliconIon; sp++ {
		for _, e := range []float64{5e-5, 1e-3, 0.05, 2, 80, 1000, 2e4} {
			r, _ := fast.rangeOf(fast.rangeTableOf(sp), e)
			if got := fast.Residual(sp, e, 0); got != e {
				t.Errorf("%v %g MeV: residual over no path %g", sp, e, got)
			}
			prev := e
			for p := 1e-3; p < 3*r; p *= 1.01 {
				got := fast.Residual(sp, e, p)
				if got > prev || got < 0 {
					t.Fatalf("%v %g MeV: residual %g at %g nm after %g", sp, e, got, p, prev)
				}
				if p >= r && got != 0 {
					t.Fatalf("%v %g MeV: residual %g at %g nm, past the %g nm range", sp, e, got, p, r)
				}
				prev = got
			}
			if got := fast.Residual(sp, e, r); got != 0 {
				t.Errorf("%v %g MeV: residual %g over exactly its range", sp, e, got)
			}
		}
	}
}

// TestResidualConcurrentFirstUse: goroutines racing to the first lookup of
// each species build one table and agree bit for bit (run under -race).
func TestResidualConcurrentFirstUse(t *testing.T) {
	fast := NewFastStopping(NewTabulatedStopping())
	ref := NewFastStopping(NewTabulatedStopping())
	const n = 8
	var wg sync.WaitGroup
	got := make([][SiliconIon + 1]float64, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for sp := Proton; sp <= SiliconIon; sp++ {
				got[g][sp] = fast.Residual(sp, 0.8, 120)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for sp := Proton; sp <= SiliconIon; sp++ {
			if want := ref.Residual(sp, 0.8, 120); got[g][sp] != want {
				t.Errorf("goroutine %d %v: residual %g, want %g", g, sp, got[g][sp], want)
			}
		}
	}
}
