package phys

import (
	"fmt"
	"math"
	"sync"

	"finser/internal/lut"
)

// StoppingModel supplies the electronic stopping power (-dE/dx) of a
// species in silicon, in eV/nm, as a function of kinetic energy in MeV.
type StoppingModel interface {
	// ElectronicStopping returns -dE/dx in eV/nm at the given kinetic
	// energy in MeV. It returns 0 for non-positive energies.
	ElectronicStopping(sp Species, energyMeV float64) float64
}

// ---------------------------------------------------------------------------
// Tabulated model (default): NIST PSTAR/ASTAR-style anchors, log-log
// interpolated. Values are MeV·cm²/g electronic (collision) stopping in
// silicon, transcribed approximately; see DESIGN.md §2 for why approximate
// anchors suffice.
// ---------------------------------------------------------------------------

var protonAnchors = struct{ e, s []float64 }{
	e: []float64{0.001, 0.005, 0.01, 0.02, 0.05, 0.08, 0.1, 0.2, 0.3, 0.5,
		0.8, 1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000},
	s: []float64{96, 212, 295, 400, 520, 545, 540, 455, 390, 295,
		215, 180, 108, 78, 53, 30.5, 17.6, 8.6, 5.1, 3.2, 2.05, 1.75},
}

var alphaAnchors = struct{ e, s []float64 }{
	e: []float64{0.001, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1, 1.5,
		2, 3, 5, 8, 10, 20, 50, 100},
	s: []float64{170, 470, 770, 905, 1110, 1230, 1360, 1400, 1340, 1190,
		1060, 870, 645, 475, 405, 248, 122, 72},
}

// TabulatedStopping interpolates NIST-style anchors log-log in both axes.
type TabulatedStopping struct {
	proton *lut.Table1D
	alpha  *lut.Table1D
}

// NewTabulatedStopping builds the default stopping model.
func NewTabulatedStopping() *TabulatedStopping {
	p, err := lut.NewTable1D(protonAnchors.e, protonAnchors.s, lut.Log, lut.Log)
	if err != nil {
		panic(fmt.Sprintf("phys: bad proton anchors: %v", err))
	}
	a, err := lut.NewTable1D(alphaAnchors.e, alphaAnchors.s, lut.Log, lut.Log)
	if err != nil {
		panic(fmt.Sprintf("phys: bad alpha anchors: %v", err))
	}
	return &TabulatedStopping{proton: p, alpha: a}
}

// ElectronicStopping implements StoppingModel. Heavy recoil ions (Si, Mg,
// Al from neutron reactions) use Ziegler effective-charge scaling of the
// proton curve: S_ion(E) = Z_eff(v)²·S_p(E·m_p/m_ion), evaluated at the
// proton energy of equal velocity.
func (t *TabulatedStopping) ElectronicStopping(sp Species, energyMeV float64) float64 {
	if energyMeV <= 0 {
		return 0
	}
	var mass float64
	switch sp {
	case Proton:
		mass = t.proton.Eval(energyMeV)
	case Alpha:
		mass = t.alpha.Eval(energyMeV)
	default:
		if !sp.HeavyIon() {
			panic("phys: unknown species")
		}
		eEquiv := energyMeV * Proton.MassMeV() / sp.MassMeV()
		z := effectiveCharge(sp, energyMeV)
		mass = z * z * t.proton.Eval(eEquiv)
	}
	return MassStoppingToEVPerNm(mass)
}

// ---------------------------------------------------------------------------
// Fast resampled model: the transport hot loop evaluates stopping once (or
// twice) per 2 nm sub-step, and the log-log anchor interpolation costs three
// logarithms, an exponential, and a binary search per call. FastStopping
// pre-samples any StoppingModel onto a dense log-uniform energy grid at
// construction, so an evaluation is one logarithm, an index computation, and
// a linear interpolation of the stored stopping values. With fastPoints
// samples per species over [fastLoMeV, fastHiMeV] the grid spacing is
// ~0.002 in ln E; the curve's |d²S/dlnE²|/S stays O(1) (the effective-charge
// knee of the heavy recoils is the worst case), so the resampling error is
// below 1e-4 relative — orders of magnitude under the anchor transcription
// accuracy the tables themselves carry.
// ---------------------------------------------------------------------------

const (
	fastPoints = 8192
	fastLoMeV  = 1e-4
	fastHiMeV  = 1e4
)

// FastStopping is a dense log-uniform resampling of a wrapped StoppingModel,
// built once per species. It is safe for concurrent use: the stopping
// samples are immutable after construction, and each species' range table
// (see Residual) is built once, on its first use.
type FastStopping struct {
	inner StoppingModel
	// s[sp][i] is the stopping at energy exp(lnLo + i/invStep); energies
	// outside [fastLoMeV, fastHiMeV] clamp to the end samples, matching the
	// wrapped tables' own clamping (their domains sit strictly inside).
	s       [SiliconIon + 1][]float64
	lnLo    float64
	invStep float64
	// ranges[sp] is built lazily: a sweep that never traces a species (the
	// neutron recoils, usually) never pays its 64 KB.
	ranges [SiliconIon + 1]struct {
		once sync.Once
		t    rangeTable
	}
}

// NewFastStopping resamples m for every species onto the dense grid.
func NewFastStopping(m StoppingModel) *FastStopping {
	f := &FastStopping{inner: m}
	f.lnLo = math.Log(fastLoMeV)
	lnHi := math.Log(fastHiMeV)
	f.invStep = float64(fastPoints-1) / (lnHi - f.lnLo)
	for sp := Proton; sp <= SiliconIon; sp++ {
		tab := make([]float64, fastPoints)
		for i := range tab {
			e := math.Exp(f.lnLo + float64(i)/f.invStep)
			tab[i] = m.ElectronicStopping(sp, e)
		}
		f.s[sp] = tab
	}
	return f
}

// ElectronicStopping implements StoppingModel with one Log and a lerp.
func (f *FastStopping) ElectronicStopping(sp Species, energyMeV float64) float64 {
	if energyMeV <= 0 {
		return 0
	}
	if sp < Proton || sp > SiliconIon {
		return f.inner.ElectronicStopping(sp, energyMeV)
	}
	tab := f.s[sp]
	pos := (math.Log(energyMeV) - f.lnLo) * f.invStep
	if pos <= 0 {
		return tab[0]
	}
	if pos >= fastPoints-1 {
		return tab[fastPoints-1]
	}
	i := int(pos)
	fr := pos - float64(i)
	return tab[i] + fr*(tab[i+1]-tab[i])
}

// rangeTable is one species' continuous-slowing-down range on the
// FastStopping grid: r[i] is the path (nm of silicon) over which the
// combined stopping S = electronic + ZBL nuclear brings energy
// exp(lnLo + i/invStep) to zero. Below the grid S is held at its first
// sample (sLo), above it at its last (sHi), as ElectronicStopping clamps.
type rangeTable struct {
	r        []float64
	sLo, sHi float64 // eV/nm
}

// rangeTableOf returns sp's range table, building it on first use.
func (f *FastStopping) rangeTableOf(sp Species) *rangeTable {
	if sp < Proton || sp > SiliconIon {
		panic("phys: unknown species")
	}
	rt := &f.ranges[sp]
	rt.once.Do(func() { rt.t = f.buildRange(sp) })
	return &rt.t
}

// buildRange integrates dR = dE/S = (E/S)·d(ln E) up the grid by the
// trapezoid rule. The wrapped model must be positive on the grid.
func (f *FastStopping) buildRange(sp Species) rangeTable {
	h := 1 / f.invStep
	r := make([]float64, fastPoints)
	prev := 0.0 // E/S at the previous grid point: nm per unit of ln E
	var t rangeTable
	for i, se := range f.s[sp] {
		e := math.Exp(f.lnLo + float64(i)/f.invStep)
		s := se + ZBLNuclearStopping(sp, e)
		cur := e * 1e6 / s
		if i == 0 {
			t.sLo = s
			r[0] = cur // constant stopping from 0 up to the grid
		} else {
			r[i] = r[i-1] + 0.5*h*(prev+cur)
		}
		t.sHi = s
		prev = cur
	}
	t.r = r
	return t
}

// Residual returns the kinetic energy (MeV) left to a particle of energy
// energyMeV after pathNm of silicon-equivalent path, solving
// dE/dx = −S(E) for the combined (electronic + ZBL nuclear) stopping from
// the species' CSDA range table R: the result is R⁻¹(R(E) − pathNm), and
// exactly 0 once pathNm ≥ R(E). A path through a material of relative
// stopping k is k times its length in silicon. The cost is one logarithm,
// a binary search and one exponential, whatever the path length; after
// the species' first call it allocates nothing.
//
// R is the trapezoid integral of 1/S on the dense ln E grid, interpolated
// linearly in ln E both ways, so a loss is within ~0.2% of a fine forward
// integration (worst on sub-nanometre paths) and never exceeds energyMeV.
func (f *FastStopping) Residual(sp Species, energyMeV, pathNm float64) float64 {
	if energyMeV <= 0 {
		return 0
	}
	if pathNm <= 0 {
		return energyMeV
	}
	t := f.rangeTableOf(sp)
	r, cell := f.rangeOf(t, energyMeV)
	left := r - pathNm
	if left <= 0 {
		return 0
	}
	return math.Min(f.energyOf(t, left, cell), energyMeV)
}

// rangeOf returns R(E) in nm and the grid cell holding E (the last point
// for energies above the grid), below which R⁻¹ of any shorter range lies.
func (f *FastStopping) rangeOf(t *rangeTable, energyMeV float64) (float64, int) {
	last := fastPoints - 1
	pos := (math.Log(energyMeV) - f.lnLo) * f.invStep
	switch {
	case pos <= 0:
		return energyMeV * 1e6 / t.sLo, 0
	case pos >= float64(last):
		return t.r[last] + (energyMeV-fastHiMeV)*1e6/t.sHi, last
	}
	i := int(pos)
	return t.r[i] + (pos-float64(i))*(t.r[i+1]-t.r[i]), i
}

// energyOf inverts rangeOf: the energy (MeV) whose range is rNm, searching
// grid cells at or below hi.
func (f *FastStopping) energyOf(t *rangeTable, rNm float64, hi int) float64 {
	last := fastPoints - 1
	switch {
	case rNm < t.r[0]:
		return rNm * t.sLo * 1e-6
	case rNm >= t.r[last]:
		return fastHiMeV + (rNm-t.r[last])*t.sHi*1e-6
	}
	// Usually hi itself: a short path ends in the cell it started in.
	lo := hi
	if t.r[hi] > rNm {
		lo = 0
		for hi-lo > 1 { // r[lo] ≤ rNm < r[hi]
			mid := (lo + hi) / 2
			if t.r[mid] <= rNm {
				lo = mid
			} else {
				hi = mid
			}
		}
	}
	fr := (rNm - t.r[lo]) / (t.r[lo+1] - t.r[lo])
	return math.Exp(f.lnLo + (float64(lo)+fr)/f.invStep)
}

// ---------------------------------------------------------------------------
// Analytic model: Bethe–Bloch above a species-dependent validity energy,
// a Lindhard–Scharff √E limb below the Bragg peak, and a log-log power-law
// bridge between the two anchors. Ziegler effective charge for slow ions.
// The Bethe formula cannot be used straight through the peak — its log term
// collapses below ~2meβ²γ² ≈ e·I — so the bridge carries the curve across
// the region where neither asymptotic limb holds.
// ---------------------------------------------------------------------------

// BetheBlochStopping is the analytic stopping model. The zero value is
// ready to use.
type BetheBlochStopping struct{}

// bridgeParams returns the low anchor energy (below which Lindhard–Scharff
// √E scaling applies) and the high anchor energy (above which Bethe–Bloch is
// trusted), in MeV. The alpha values scale roughly with the mass ratio, as
// velocity — not energy — controls the physics.
func bridgeParams(sp Species) (eLo, eHi float64) {
	switch sp {
	case Proton:
		return 0.05, 0.5
	case Alpha:
		return 0.3, 2.5
	default:
		panic("phys: unknown species")
	}
}

// ElectronicStopping implements StoppingModel. Heavy recoil ions use the
// same effective-charge scaling of the proton curve as the tabulated model.
func (b BetheBlochStopping) ElectronicStopping(sp Species, energyMeV float64) float64 {
	if energyMeV <= 0 {
		return 0
	}
	if sp.HeavyIon() {
		eEquiv := energyMeV * Proton.MassMeV() / sp.MassMeV()
		z := effectiveCharge(sp, energyMeV)
		return z * z * b.ElectronicStopping(Proton, eEquiv)
	}
	eLo, eHi := bridgeParams(sp)
	var mass float64
	switch {
	case energyMeV >= eHi:
		mass = betheMassStopping(sp, energyMeV)
	case energyMeV <= eLo:
		mass = lindhardScharffMassStopping(sp, energyMeV)
	default:
		sLo := lindhardScharffMassStopping(sp, eLo)
		sHi := betheMassStopping(sp, eHi)
		if sLo <= 0 || sHi <= 0 {
			return 0
		}
		// Power-law (log-log linear) bridge between the anchors.
		f := math.Log(energyMeV/eLo) / math.Log(eHi/eLo)
		mass = math.Exp(math.Log(sLo) + f*(math.Log(sHi)-math.Log(sLo)))
	}
	if mass < 0 {
		mass = 0
	}
	return MassStoppingToEVPerNm(mass)
}

// betheMassStopping returns the Bethe–Bloch mass stopping power in
// MeV·cm²/g, or 0 where the formula is invalid (the log argument ≤ 1).
func betheMassStopping(sp Species, energyMeV float64) float64 {
	m := sp.MassMeV()
	z := effectiveCharge(sp, energyMeV)
	gamma := 1 + energyMeV/m
	beta2 := 1 - 1/(gamma*gamma)
	if beta2 <= 0 {
		return 0
	}
	me := ElectronMassMeV
	ratio := me / m
	tmax := 2 * me * beta2 * gamma * gamma / (1 + 2*gamma*ratio + ratio*ratio)
	iMeV := SiliconMeanExcitationEV * 1e-6
	arg := 2 * me * beta2 * gamma * gamma * tmax / (iMeV * iMeV)
	if arg <= 1 {
		return 0
	}
	s := BetheK * z * z * (SiliconZ / SiliconA) / beta2 * (0.5*math.Log(arg) - beta2)
	if s < 0 {
		return 0
	}
	return s
}

// lindhardScharffMassStopping returns the velocity-proportional low-energy
// electronic stopping in MeV·cm²/g: S = k·√(E/m), i.e. proportional to the
// ion velocity. The coefficients are calibrated so the limb meets the
// tabulated curve at the bridge's low anchor energy.
func lindhardScharffMassStopping(sp Species, energyMeV float64) float64 {
	if energyMeV <= 0 {
		return 0
	}
	var k float64
	switch sp {
	case Proton:
		k = 7.1e4
	case Alpha:
		k = 1.37e5
	default:
		panic("phys: unknown species")
	}
	return k * math.Sqrt(energyMeV/sp.MassMeV())
}

// effectiveCharge applies Ziegler's velocity-dependent charge-state scaling
// for slow ions; fast ions carry their full nuclear charge.
func effectiveCharge(sp Species, energyMeV float64) float64 {
	z := sp.ChargeNumber()
	beta := math.Sqrt(sp.Beta2(energyMeV))
	return z * (1 - math.Exp(-125*beta/math.Pow(z, 2.0/3)))
}

// ---------------------------------------------------------------------------
// Derived quantities.
// ---------------------------------------------------------------------------

// CSDARange integrates 1/S(E) from a low cutoff to the given energy,
// returning the continuous-slowing-down range in nm.
func CSDARange(m StoppingModel, sp Species, energyMeV float64) float64 {
	const cutoff = 1e-3 // MeV; below this the residual range is negligible here
	if energyMeV <= cutoff {
		return 0
	}
	// Integrate in log-energy with the trapezoid rule; S varies smoothly on
	// a log axis.
	const steps = 400
	lnLo, lnHi := math.Log(cutoff), math.Log(energyMeV)
	h := (lnHi - lnLo) / steps
	integrand := func(lnE float64) float64 {
		e := math.Exp(lnE)
		s := m.ElectronicStopping(sp, e)
		if s <= 0 {
			return 0
		}
		// dE/S = E dlnE / S; energies in MeV, S in eV/nm → convert MeV to eV.
		return e * 1e6 / s
	}
	sum := 0.5 * (integrand(lnLo) + integrand(lnHi))
	for i := 1; i < steps; i++ {
		sum += integrand(lnLo + float64(i)*h)
	}
	return sum * h
}

// LandauXiEV returns the Landau scale parameter ξ (eV) for a path of the
// given length (nm) in silicon: ξ = (K/2)·(Z/A)·ρ·z²/β²·Δx. For the
// nanometre-scale paths through a fin, κ = ξ/Tmax ≪ 1, so energy-loss
// fluctuations follow the Landau (thin-absorber) distribution with this
// width — strongly asymmetric: most tracks deposit slightly less than the
// mean, and a rare tail deposits several ξ more. That tail is what lets
// fast, lightly ionizing protons occasionally upset a cell.
func LandauXiEV(sp Species, energyMeV, pathNm float64) float64 {
	if pathNm <= 0 || energyMeV <= 0 {
		return 0
	}
	beta2 := sp.Beta2(energyMeV)
	if beta2 <= 0 {
		return 0
	}
	z := sp.ChargeNumber()
	pathCm := pathNm * 1e-7
	xiMeV := (BetheK / 2) * (SiliconZ / SiliconA) * SiliconDensity * z * z / beta2 * pathCm
	return xiMeV * 1e6
}

// SampleLandauDeposit draws an energy deposit (eV) for a thin path with the
// given mean, using the Moyal approximation to the Landau distribution.
// The Moyal variate λ is sampled exactly as λ = -2·ln|Z| with Z standard
// normal, and the result is shifted to preserve the requested mean
// (E[λ] = γ_E + ln 2 ≈ 1.270). z is a standard normal variate supplied by
// the caller's random stream. Deposits are clamped at 0.
func SampleLandauDeposit(meanEV, xiEV, z float64) float64 {
	if meanEV <= 0 {
		return 0
	}
	if xiEV <= 0 {
		return meanEV
	}
	const moyalMean = 1.2703628454614782 // γ_E + ln 2
	az := math.Abs(z)
	if az < 1e-300 {
		az = 1e-300
	}
	lambda := -2 * math.Log(az)
	d := meanEV + xiEV*(lambda-moyalMean)
	if d < 0 {
		return 0
	}
	return d
}
