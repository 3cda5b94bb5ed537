package core

import (
	"context"

	"finser/internal/geom"
	"finser/internal/neutron"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/spectra"
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

// NeutronPOFAtEnergyCtx estimates the weighted POFs with iters forced-
// interaction trials at one neutron energy, through the same worker
// fan-out, cancellation, guards, and chunk-order merge as POFAtEnergyCtx.
func (e *Engine) NeutronPOFAtEnergyCtx(ctx context.Context, rx *neutron.Reactions, energyMeV float64, iters int, seed uint64) (NeutronPoint, error) {
	pt, weight, err := e.estimate(ctx, e.neutronKernel(rx), energyMeV, 0, iters, seed)
	if err != nil {
		return NeutronPoint{}, err
	}
	return NeutronPoint{POFPoint: pt, InteractionWeight: weight}, nil
}

// neutronKernel is the forced-interaction strike kernel.
func (e *Engine) neutronKernel(rx *neutron.Reactions) kernel {
	return kernel{name: "neutron", strike: func(src *rng.Source, energyMeV float64, scr *strikeScratch) (strikeOutcome, float64, error) {
		return e.neutronStrike(rx, src, energyMeV, scr)
	}}
}

// substrateSlab returns the handle-wafer silicon volume under the BOX that
// serves as an additional neutron interaction target.
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

// neutronStrike runs one forced-interaction trial and returns the strike
// outcome plus its probability weight. Interaction targets are the fin
// silicon plus the substrate slab; the interaction point is sampled
// proportionally to silicon path length, which is exact for σ·n·L ≪ 1.
// scr holds the worker's reusable buffers; per-cell charges accumulate in
// its dense epoch-cleared accumulator and are reduced in sorted cell order
// so the weighted POFs are bit-identical across runs. The guard checks the
// secondaries' deposits and every cell POF exactly as strike does; the
// error is non-nil only under a strict guard.
func (e *Engine) neutronStrike(rx *neutron.Reactions, src *rng.Source, energyMeV float64, scr *strikeScratch) (strikeOutcome, float64, error) {
	ray := e.sampleRay(src, phys.Proton) // cosine-law, like any atmospheric particle
	// Chords through each candidate fin plus the substrate slab.
	chords := scr.chords[:0]
	totalLen := 0.0
	scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
	for _, fi := range scr.candidate {
		tIn, tOut, ok := e.boxes[fi].Intersect(ray)
		if ok && tOut > tIn {
			chords = append(chords, chordSeg{tIn: tIn, len: tOut - tIn})
			totalLen += tOut - tIn
		}
	}
	if slab, ok := e.substrateSlab(); ok {
		if tIn, tOut, hit := slab.Intersect(ray); hit && tOut > tIn {
			chords = append(chords, chordSeg{tIn: tIn, len: tOut - tIn})
			totalLen += tOut - tIn
		}
	}
	scr.chords = chords
	if totalLen <= 0 {
		return strikeOutcome{}, 0, nil
	}
	weight := rx.InteractionProbability(energyMeV, totalLen)
	if weight <= 0 {
		return strikeOutcome{}, 0, nil
	}

	// Force the interaction: pick a silicon segment proportional to chord
	// length and a point uniform along it.
	pick := src.Float64() * totalLen
	var at geom.Vec3
	for _, c := range chords {
		if pick <= c.len {
			at = ray.At(c.tIn + pick)
			break
		}
		pick -= c.len
	}

	secs := rx.SampleInteraction(src, energyMeV)
	if len(secs) == 0 {
		return strikeOutcome{}, 0, nil
	}

	// Transport every charged secondary and merge the per-cell charges.
	scr.beginCells()
	for _, sec := range secs {
		secRay := geom.Ray{Origin: at, Dir: sec.Dir}
		scr.candidate = appendCandidateFins(e, secRay, scr.candidate[:0])
		if len(scr.candidate) == 0 {
			continue
		}
		boxes := e.candidateBoxes(scr, scr.candidate)
		scr.deps = transport.TraceAppend(e.cfg.Transport, sec.Species, sec.EnergyMeV, secRay, boxes, src, &scr.tr, scr.deps[:0])
		if err := transport.CheckDeposits(e.cfg.Guard, "core.strike", scr.deps); err != nil {
			return strikeOutcome{}, 0, err
		}
		e.accumulateCharges(scr, scr.candidate, scr.deps)
	}
	if len(scr.touched) == 0 {
		return strikeOutcome{}, weight, nil
	}
	scr.sortTouched()
	pofs := scr.pofs[:0]
	for _, ci := range scr.touched {
		p := e.providerFor(ci).POF(scr.cellQ[ci])
		if err := e.cfg.Guard.Probability("core.strike", "cell POF", p); err != nil {
			scr.pofs = pofs
			return strikeOutcome{}, 0, err
		}
		if p > 0 {
			pofs = append(pofs, p)
		}
	}
	scr.pofs = pofs
	return combinePOFs(pofs, len(scr.touched)), weight, nil
}

// NeutronFITCtx integrates the weighted POFs over the neutron spectrum into
// FIT rates, exactly as Eq. 8 does for directly ionizing particles: the
// same checkpointed bin runner as FITCtx (stage "fit/neutron"), so the
// integration is cancellable, resumable, guarded, optionally adaptive, and
// reports a propagated 1σ TotalFITErr.
func (e *Engine) NeutronFITCtx(ctx context.Context, spec spectra.Spectrum, rx *neutron.Reactions, bins []spectra.EnergyBin, itersPerBin int, seed uint64) (FITResult, error) {
	return e.integrate(ctx, e.neutronKernel(rx), spec.Species(), bins, itersPerBin, seed)
}
