package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/neutron"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/spectra"
	"finser/internal/sram"
)

// appendCandidateFins runs the broad phase on a ray alone, inverting its
// direction itself.
func appendCandidateFins(e *Engine, ray geom.Ray, out []int) []int {
	return appendCandidateFinsInv(e, ray, ray.InvDir(), out)
}

// Shared fixtures: characterizations are the expensive part, so build them
// once per test binary.
var (
	fixOnce  sync.Once
	char07   *sram.Characterization
	char11   *sram.Characterization
	charNom  *sram.Characterization // nominal (no PV) at 0.7 V
	fixError error
)

func fixtures(t *testing.T) (*sram.Characterization, *sram.Characterization, *sram.Characterization) {
	t.Helper()
	fixOnce.Do(func() {
		tech := finfet.Default14nmSOI()
		char07, fixError = sram.CharacterizeCtx(context.Background(), sram.CharConfig{
			Tech: tech, Vdd: 0.7, ProcessVariation: true, Samples: 50, Seed: 1,
		})
		if fixError != nil {
			return
		}
		char11, fixError = sram.CharacterizeCtx(context.Background(), sram.CharConfig{
			Tech: tech, Vdd: 1.1, ProcessVariation: true, Samples: 50, Seed: 1,
		})
		if fixError != nil {
			return
		}
		charNom, fixError = sram.CharacterizeCtx(context.Background(), sram.CharConfig{
			Tech: tech, Vdd: 0.7, ProcessVariation: false, Seed: 1,
		})
	})
	if fixError != nil {
		t.Fatal(fixError)
	}
	return char07, char11, charNom
}

// newEngine is the default 9×9 engine; each estimate names the cell model
// it looks its strikes up in.
func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// mustPOF is POFAtEnergyCtx under a background context, failing tb on error.
func mustPOF(tb testing.TB, e *Engine, m sram.POFProvider, sp phys.Species, energyMeV float64, iters int, seed uint64) POFPoint {
	tb.Helper()
	pt, err := e.POFAtEnergyCtx(context.Background(), m, sp, energyMeV, iters, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// mustNeutronPOF is NeutronPOFAtEnergyCtx under a background context.
func mustNeutronPOF(tb testing.TB, e *Engine, m sram.POFProvider, rx *neutron.Reactions, energyMeV float64, iters int, seed uint64) NeutronPoint {
	tb.Helper()
	pt, err := e.NeutronPOFAtEnergyCtx(context.Background(), m, rx, energyMeV, iters, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// mustMBU is MBUStatsAtEnergyCtx under a background context.
func mustMBU(tb testing.TB, e *Engine, m sram.POFProvider, sp phys.Species, energyMeV float64, iters, maxK int, seed uint64) MBUReport {
	tb.Helper()
	rep, err := e.MBUStatsAtEnergyCtx(context.Background(), m, sp, energyMeV, iters, maxK, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Tech: finfet.Default14nmSOI(), Rows: 0, Cols: 9}); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestDataPattern(t *testing.T) {
	if PatternZeros.Bit(3, 4) || !PatternOnes.Bit(0, 0) {
		t.Error("uniform patterns wrong")
	}
	if PatternCheckerboard.Bit(0, 0) || !PatternCheckerboard.Bit(0, 1) || !PatternCheckerboard.Bit(1, 0) || PatternCheckerboard.Bit(1, 1) {
		t.Error("checkerboard wrong")
	}
}

// TestDataPatternNames: every pattern's name parses back to it, parsing
// ignores case and reads "" as zeros, and anything else is rejected.
func TestDataPatternNames(t *testing.T) {
	for _, p := range []DataPattern{PatternZeros, PatternOnes, PatternCheckerboard} {
		for _, s := range []string{p.String(), strings.ToUpper(p.String())} {
			if got, ok := ParseDataPattern(s); !ok || got != p {
				t.Errorf("ParseDataPattern(%q) = %d, %v; want %d", s, got, ok, p)
			}
		}
	}
	if got, ok := ParseDataPattern(""); !ok || got != PatternZeros {
		t.Errorf(`ParseDataPattern("") = %d, %v; want zeros`, got, ok)
	}
	if _, ok := ParseDataPattern("stripes"); ok {
		t.Error("unknown pattern accepted")
	}
	if s := DataPattern(7).String(); s != "DataPattern(7)" {
		t.Errorf("invalid pattern prints %q", s)
	}
}

func TestDefaultIncidence(t *testing.T) {
	if DefaultIncidence(phys.Proton) != IncidenceCosine {
		t.Error("protons should default to cosine-law incidence")
	}
	if DefaultIncidence(phys.Alpha) != IncidenceIsotropic {
		t.Error("alphas should default to isotropic incidence")
	}
}

func TestCombinePOFsExactCases(t *testing.T) {
	cases := []struct {
		pofs          []float64
		tot, seu, mbu float64
	}{
		{nil, 0, 0, 0},
		{[]float64{0.5}, 0.5, 0.5, 0},
		{[]float64{1}, 1, 1, 0},
		{[]float64{0.5, 0.5}, 0.75, 0.5, 0.25},
		{[]float64{1, 1}, 1, 0, 1},
		{[]float64{0.2, 0.3}, 1 - 0.8*0.7, 0.2*0.7 + 0.3*0.8, 1 - 0.56 - 0.38},
	}
	for i, c := range cases {
		o := combinePOFs(c.pofs, len(c.pofs))
		if math.Abs(o.pofTot-c.tot) > 1e-12 ||
			math.Abs(o.pofSEU-c.seu) > 1e-12 ||
			math.Abs(o.pofMBU-c.mbu) > 1e-12 {
			t.Errorf("case %d: got (%v,%v,%v), want (%v,%v,%v)",
				i, o.pofTot, o.pofSEU, o.pofMBU, c.tot, c.seu, c.mbu)
		}
	}
}

// Property: Eqs. 4–6 identities for arbitrary POF vectors.
func TestCombinePOFsProperties(t *testing.T) {
	f := func(raw []float64) bool {
		pofs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return true
			}
			p := math.Abs(math.Mod(r, 1))
			pofs = append(pofs, p)
		}
		if len(pofs) > 12 {
			pofs = pofs[:12]
		}
		o := combinePOFs(pofs, len(pofs))
		if o.pofTot < -1e-12 || o.pofTot > 1+1e-12 {
			return false
		}
		if o.pofSEU < -1e-12 || o.pofMBU < 0 {
			return false
		}
		// POFtot = POFSEU + POFMBU by construction; POFtot ≥ max(pᵢ).
		for _, p := range pofs {
			if o.pofTot < p-1e-9 {
				return false
			}
		}
		return math.Abs(o.pofTot-(o.pofSEU+o.pofMBU)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPOFDeterministicAcrossRuns(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	a := mustPOF(t, e, ch, phys.Alpha, 1, 5000, 99)
	b := mustPOF(t, e, ch, phys.Alpha, 1, 5000, 99)
	if a.Tot != b.Tot || a.SEU != b.SEU || a.MBU != b.MBU {
		t.Error("same seed gave different POFs")
	}
	c := mustPOF(t, e, ch, phys.Alpha, 1, 5000, 100)
	if a.Tot == c.Tot {
		t.Error("different seeds gave identical POFs (suspicious)")
	}
}

func TestPOFAlphaExceedsProton(t *testing.T) {
	// Fig. 8: alpha POF ≫ proton POF at the same energy.
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	for _, en := range []float64{0.5, 1, 5} {
		a := mustPOF(t, e, ch, phys.Alpha, en, 15000, 7)
		p := mustPOF(t, e, ch, phys.Proton, en, 15000, 8)
		if a.Tot <= 3*p.Tot {
			t.Errorf("at %v MeV alpha POF %v not ≫ proton %v", en, a.Tot, p.Tot)
		}
	}
}

func TestPOFDecreasesWithEnergy(t *testing.T) {
	// Fig. 8: POF decreases at higher particle energies (above the Bragg
	// peak, fewer e-h pairs are generated).
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	low := mustPOF(t, e, ch, phys.Alpha, 2, 15000, 3)
	high := mustPOF(t, e, ch, phys.Alpha, 10, 15000, 3)
	if low.Tot <= high.Tot {
		t.Errorf("alpha POF not decreasing: %v at 2 MeV vs %v at 10 MeV", low.Tot, high.Tot)
	}
}

func TestPOFIncreasesAtLowerVdd(t *testing.T) {
	// Fig. 8: lower supply ⇒ higher POF.
	ch07, ch11, _ := fixtures(t)
	e := newEngine(t)
	p07 := mustPOF(t, e, ch07, phys.Alpha, 5, 15000, 4)
	p11 := mustPOF(t, e, ch11, phys.Alpha, 5, 15000, 4)
	if p07.Tot <= p11.Tot {
		t.Errorf("POF(0.7V)=%v not above POF(1.1V)=%v", p07.Tot, p11.Tot)
	}
}

func TestAlphaMBUExceedsProtonMBU(t *testing.T) {
	// Fig. 10 mechanism: MBU/SEU ratio much higher for alphas.
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	a := mustPOF(t, e, ch, phys.Alpha, 1, 40000, 5)
	p := mustPOF(t, e, ch, phys.Proton, 0.3, 40000, 6)
	aRatio := a.MBU / a.SEU
	var pRatio float64
	if p.SEU > 0 {
		pRatio = p.MBU / p.SEU
	}
	if aRatio <= pRatio {
		t.Errorf("alpha MBU/SEU %v not above proton %v", aRatio, pRatio)
	}
	if aRatio < 0.02 {
		t.Errorf("alpha MBU/SEU = %v, implausibly low", aRatio)
	}
}

func TestProcessVariationRaisesPOF(t *testing.T) {
	// Fig. 11: neglecting process variation underestimates SER. At an
	// energy where typical deposits sit near the nominal critical charge,
	// the variation tail flips cells the nominal corner would not.
	chPV, _, chNom := fixtures(t)
	e := newEngine(t)
	// 10 MeV alphas deposit near threshold (lower stopping power).
	pv := mustPOF(t, e, chPV, phys.Alpha, 10, 40000, 9)
	nom := mustPOF(t, e, chNom, phys.Alpha, 10, 40000, 9)
	if pv.Tot <= nom.Tot {
		t.Errorf("PV POF %v not above nominal %v", pv.Tot, nom.Tot)
	}
}

func TestFITValidation(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	spec, _ := spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
	if _, err := e.FITCtx(context.Background(), ch, spec, nil, 100, 1); err == nil {
		t.Error("empty bins accepted")
	}
	bins, _ := spectra.Bins(spec, 0.5, 10, 4)
	if _, err := e.FITCtx(context.Background(), ch, spec, bins, 0, 1); err == nil {
		t.Error("zero iterations accepted")
	}
}

// Every strike entry point must reject an empty strike count with an
// error, never return an estimate over no strikes or panic.
func TestStrikeEntryPointsRejectEmptyCount(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	ctx := context.Background()
	rx := neutron.NewReactions()
	for _, n := range []int{0, -5} {
		for _, tc := range []struct {
			name string
			run  func() (any, error)
		}{
			{"POF", func() (any, error) { return e.POFAtEnergyCtx(ctx, ch, phys.Alpha, 1, n, 1) }},
			{"neutron POF", func() (any, error) { return e.NeutronPOFAtEnergyCtx(ctx, ch, rx, 14, n, 1) }},
			{"MBU", func() (any, error) { return e.MBUStatsAtEnergyCtx(ctx, ch, phys.Alpha, 1, n, 6, 1) }},
			{"tracks", func() (any, error) { return e.SampleTracksCtx(ctx, ch, phys.Alpha, 1, n, 1) }},
		} {
			if got, err := tc.run(); err == nil {
				t.Errorf("%s with %d strikes: accepted, got %+v", tc.name, n, got)
			}
		}
	}
}

// TestStrikeEntriesRejectBadEnergy: every entry that takes a caller's
// energy refuses one that is not positive and finite, in either deposit
// mode, with an error naming the entry and the energy. No strike runs, so
// no panic, and neither core.particles_generated nor transport.rays_traced
// moves.
func TestStrikeEntriesRejectBadEnergy(t *testing.T) {
	ch, _, _ := fixtures(t)
	ctx := context.Background()
	rx := neutron.NewReactions()
	for _, mode := range []DepositMode{DepositTransport, DepositLUT} {
		reg := obs.NewRegistry()
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Deposits: mode, LUTIters: 2000, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		particles, rays := reg.Counter("core.particles_generated"), reg.Counter("transport.rays_traced")
		for _, en := range []float64{0, -1, math.NaN(), math.Inf(1)} {
			for _, tc := range []struct {
				entry string
				run   func() (any, error)
			}{
				{"POFAtEnergyCtx", func() (any, error) { return e.POFAtEnergyCtx(ctx, ch, phys.Alpha, en, 2000, 3) }},
				{"NeutronPOFAtEnergyCtx", func() (any, error) { return e.NeutronPOFAtEnergyCtx(ctx, ch, rx, en, 2000, 3) }},
				{"MBUStatsAtEnergyCtx", func() (any, error) { return e.MBUStatsAtEnergyCtx(ctx, ch, phys.Alpha, en, 2000, 6, 3) }},
				{"SampleTracksCtx", func() (any, error) { return e.SampleTracksCtx(ctx, ch, phys.Alpha, en, 10, 3) }},
			} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%v %s @%g MeV: panic: %v", mode, tc.entry, en, r)
						}
					}()
					got, err := tc.run()
					if err == nil {
						t.Errorf("%v %s @%g MeV: accepted, got %+v", mode, tc.entry, en, got)
					} else if msg := err.Error(); !strings.Contains(msg, tc.entry) || !strings.Contains(msg, fmt.Sprintf("%g MeV", en)) {
						t.Errorf("%v %s @%g MeV: error %q names neither the entry nor the energy", mode, tc.entry, en, msg)
					}
				}()
			}
		}
		if particles.Value() != 0 || rays.Value() != 0 {
			t.Errorf("deposit mode %v: refused calls counted %d particles and %d rays", mode, particles.Value(), rays.Value())
		}
	}
}

func TestFITConsistency(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	spec, _ := spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
	bins, _ := spectra.Bins(spec, 0.5, 10, 6)
	res, err := e.FITCtx(context.Background(), ch, spec, bins, 8000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFIT <= 0 {
		t.Fatal("zero total FIT for alpha at 0.7 V")
	}
	if math.Abs(res.TotalFIT-(res.SEUFIT+res.MBUFIT))/res.TotalFIT > 1e-9 {
		t.Errorf("FIT split inconsistent: %v != %v + %v", res.TotalFIT, res.SEUFIT, res.MBUFIT)
	}
	if res.Species != phys.Alpha || res.Vdd != 0.7 {
		t.Errorf("metadata wrong: %v %v", res.Species, res.Vdd)
	}
	if len(res.Points) != len(bins) {
		t.Errorf("points = %d, want %d", len(res.Points), len(bins))
	}
}

func TestFITLinearInFlux(t *testing.T) {
	// Doubling the emission rate doubles the FIT (Eq. 8 linearity).
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	s1, _ := spectra.NewAlphaEmission(0.001)
	s2, _ := spectra.NewAlphaEmission(0.002)
	b1, _ := spectra.Bins(s1, 0.5, 10, 4)
	b2, _ := spectra.Bins(s2, 0.5, 10, 4)
	r1, err := e.FITCtx(context.Background(), ch, s1, b1, 6000, 13)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.FITCtx(context.Background(), ch, s2, b2, 6000, 13)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := r2.TotalFIT / r1.TotalFIT; math.Abs(ratio-2) > 1e-6 {
		t.Errorf("FIT flux scaling = %v, want 2 (same seed, same strikes)", ratio)
	}
}

func TestPatternSymmetry(t *testing.T) {
	// All-zeros and all-ones patterns are mirror images; their POFs must
	// agree within Monte-Carlo noise.
	ch, _, _ := fixtures(t)
	mk := func(p DataPattern) *Engine {
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Pattern: p,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	z := mustPOF(t, mk(PatternZeros), ch, phys.Alpha, 1, 30000, 17)
	o := mustPOF(t, mk(PatternOnes), ch, phys.Alpha, 1, 30000, 18)
	if z.Tot == 0 || o.Tot == 0 {
		t.Fatal("zero POF in symmetry test")
	}
	if r := z.Tot / o.Tot; r < 0.8 || r > 1.25 {
		t.Errorf("pattern asymmetry: zeros/ones POF ratio = %v", r)
	}
}

func TestIncidenceOverride(t *testing.T) {
	ch, _, _ := fixtures(t)
	iso := IncidenceIsotropic
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Incidence: &iso,
	})
	if err != nil {
		t.Fatal(err)
	}
	cos := IncidenceCosine
	e2, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Incidence: &cos,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Isotropic incidence has more grazing tracks → more multi-fin strikes
	// → at minimum, a different POF than cosine-law.
	pi := mustPOF(t, e, ch, phys.Proton, 0.3, 30000, 21)
	pc := mustPOF(t, e2, ch, phys.Proton, 0.3, 30000, 21)
	if pi.Tot == pc.Tot {
		t.Error("incidence override had no effect")
	}
}

func TestArrayAccessor(t *testing.T) {
	e := newEngine(t)
	if e.Array().NumCells() != 81 {
		t.Errorf("array cells = %d", e.Array().NumCells())
	}
}

func TestFITErrorPropagation(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	spec, _ := spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
	bins, _ := spectra.Bins(spec, 0.5, 10, 6)
	small, err := e.FITCtx(context.Background(), ch, spec, bins, 4000, 21)
	if err != nil {
		t.Fatal(err)
	}
	big, err := e.FITCtx(context.Background(), ch, spec, bins, 32000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if small.TotalFITErr <= 0 || big.TotalFITErr <= 0 {
		t.Fatal("zero FIT error bars")
	}
	// 8× the strikes shrinks the error roughly √8 ≈ 2.8×.
	r := small.TotalFITErr / big.TotalFITErr
	if r < 1.8 || r > 4.5 {
		t.Errorf("error scaling with strikes = %v, want ≈ 2.8", r)
	}
	// The estimates must agree within their combined error bars (5σ).
	diff := math.Abs(small.TotalFIT - big.TotalFIT)
	if diff > 5*(small.TotalFITErr+big.TotalFITErr) {
		t.Errorf("FIT estimates disagree beyond error bars: %v vs %v", small.TotalFIT, big.TotalFIT)
	}
}
