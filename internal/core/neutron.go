package core

import (
	"context"

	"finser/internal/geom"
	"finser/internal/neutron"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/spectra"
	"finser/internal/sram"
	"finser/internal/transport"
)

// Neutron-induced SER: the paper's future-work extension. Neutrons do not
// ionize directly; each Monte-Carlo trial forces a nuclear interaction
// inside a fin the track crosses and weights the outcome by the (tiny)
// analytic interaction probability, then transports the charged secondaries
// (Si/Mg/Al recoils, alphas, protons) through the array with the same
// device-level machinery used for direct ionization. Interactions are
// restricted to fin silicon: in SOI, charge generated below the buried
// oxide cannot reach the devices (the paper's own argument for neglecting
// substrate diffusion).

// NeutronPoint is the weighted POF of the array for neutrons at one energy:
// the expected POF per neutron crossing the array footprint (interaction
// probability folded in).
type NeutronPoint struct {
	POFPoint
	// InteractionWeight is the mean per-track interaction probability —
	// a diagnostic for the forced-interaction variance reduction.
	InteractionWeight float64
}

// NeutronPOFAtEnergyCtx estimates the weighted POFs in cell model m with
// iters forced-interaction trials at one neutron energy, through the same
// worker fan-out, cancellation, guards, and chunk-order merge as
// POFAtEnergyCtx.
func (e *Engine) NeutronPOFAtEnergyCtx(ctx context.Context, m sram.POFProvider, rx *neutron.Reactions, energyMeV float64, iters int, seed uint64) (NeutronPoint, error) {
	if err := checkEnergy("NeutronPOFAtEnergyCtx", energyMeV); err != nil {
		return NeutronPoint{}, err
	}
	pts, weight, err := e.estimate(ctx, e.neutronKernel(rx), []sram.POFProvider{m}, energyMeV, 0, iters, seed)
	if err != nil {
		return NeutronPoint{}, err
	}
	return NeutronPoint{POFPoint: pts[0], InteractionWeight: weight}, nil
}

// neutronKernel is the forced-interaction strike kernel.
func (e *Engine) neutronKernel(rx *neutron.Reactions) kernel {
	return kernel{name: "neutron", charge: func(src *rng.Source, energyMeV float64, scr *strikeScratch) (float64, error) {
		return e.neutronCharge(rx, src, energyMeV, scr)
	}}
}

// substrateSlab returns the handle-wafer silicon volume under the BOX that
// serves as an additional neutron interaction target. New builds it once.
func (e *Engine) substrateSlab() (geom.AABB, bool) {
	depth := e.cfg.NeutronSubstrateDepthNm
	if depth == 0 {
		depth = 3000
	}
	if depth < 0 {
		return geom.AABB{}, false
	}
	b := e.arr.Bounds()
	top := -e.cfg.Tech.BoxDepthNm
	return geom.Box(
		geom.V(b.Min.X, b.Min.Y, top-depth),
		geom.V(b.Max.X, b.Max.Y, top),
	), true
}

// neutronCharge is the voltage-independent half of one forced-interaction
// trial: it opens the strike, charges its cells and returns the trial's
// probability weight. Interaction targets are the fin silicon plus the
// substrate slab; the interaction point is sampled proportionally to
// silicon path length, which is exact for σ·n·L ≪ 1. Each secondary
// charges the cells through chargeTrack and closeCells closes the strike,
// so the guard checks deposits and charge conservation exactly as
// chargeStrike does; the error is non-nil only under a strict guard.
func (e *Engine) neutronCharge(rx *neutron.Reactions, src *rng.Source, energyMeV float64, scr *strikeScratch) (float64, error) {
	scr.beginCells()
	ray := e.sampleRay(src, phys.Proton) // cosine-law, like any atmospheric particle
	// Silicon chords: the fins the track crosses, then the substrate slab's
	// (Fin -1). The secondaries' tracks reuse scr.hits, so the chord list is
	// used up before the first of them runs.
	inv := ray.InvDir()
	scr.candidate = appendCandidateFinsInv(e, ray, inv, scr.candidate[:0])
	chords := transport.CrossingsInv(ray, inv, e.boxes, scr.candidate, scr.hits[:0])
	if e.hasSlab {
		if tIn, tOut, hit := e.slab.IntersectInv(ray, inv); hit && tOut > tIn {
			chords = append(chords, transport.Crossing{Fin: -1, TIn: tIn, TOut: tOut})
		}
	}
	scr.hits = chords
	totalLen := 0.0
	for _, c := range chords {
		totalLen += c.TOut - c.TIn
	}
	if totalLen <= 0 {
		return 0, nil
	}
	weight := rx.InteractionProbability(energyMeV, totalLen)
	if weight <= 0 {
		return 0, nil
	}

	// Force the interaction: pick a silicon segment proportional to chord
	// length and a point uniform along it.
	pick := src.Float64() * totalLen
	var at geom.Vec3
	for _, c := range chords {
		if pick <= c.TOut-c.TIn {
			at = ray.At(c.TIn + pick)
			break
		}
		pick -= c.TOut - c.TIn
	}

	secs := rx.SampleInteraction(src, energyMeV)
	if len(secs) == 0 {
		return 0, nil
	}

	// Charge the cells with every secondary, through transport: they start
	// inside silicon, where the whole-fin mean yield of DepositLUT does not
	// apply, and no table exists for the recoil ions. The secondaries share
	// the strike's stream, so each keeps its full trace.
	deposited := 0.0
	for _, sec := range secs {
		q, err := e.chargeTrack(src, sec.Species, sec.EnergyMeV, geom.Ray{Origin: at, Dir: sec.Dir}, nil, false, scr)
		if err != nil {
			return 0, err
		}
		deposited += q
	}
	return weight, e.closeCells(scr, deposited)
}

// NeutronFITCtx integrates the weighted POFs in cell model m over the
// neutron spectrum into FIT rates, exactly as Eq. 8 does for directly
// ionizing particles: the flat-budget, store-less form of RunLedgersCtx
// with rx (stage "fit/neutron"), so the integration is cancellable, guarded,
// and reports a propagated 1σ TotalFITErr.
func (e *Engine) NeutronFITCtx(ctx context.Context, m sram.POFProvider, spec spectra.Spectrum, rx *neutron.Reactions, bins []spectra.EnergyBin, itersPerBin int, seed uint64) (FITResult, error) {
	return e.runOwnPlan(ctx, m, e.ownPlan(m, "neutron", spec.Species(), bins, itersPerBin, seed), rx)
}
