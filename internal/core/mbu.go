package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"finser/internal/geom"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
	"finser/internal/transport"
)

// MBU spatial statistics. Beyond the paper's scalar MBU/SEU ratio, system
// designers need the *shape* of multi-bit upsets — how many bits flip per
// event and how far apart they sit — because error-correcting codes with
// column interleaving only survive MBUs whose flipped bits land in
// different logical words. This file extracts those statistics from the
// same strike Monte Carlo.

// PairKey is the row/column separation of a pair of upset cells
// (canonicalized: DRow ≥ 0, and DCol ≥ 0 when DRow == 0).
type PairKey struct {
	DRow, DCol int
}

// MBUReport summarizes upset multiplicity and geometry at one energy.
type MBUReport struct {
	Species   phys.Species
	EnergyMeV float64
	Strikes   int
	// MultiplicityPMF[k] is the per-strike probability of exactly k cells
	// flipping (k = 0 .. len-1; the last entry aggregates ≥ len-1).
	MultiplicityPMF []float64
	// PairWeights[key] is the expected number of flipped pairs per strike
	// with the given separation: Σ pᵢ·pⱼ over cell pairs, averaged over
	// strikes. It is the input to ECC interleaving analysis.
	PairWeights map[PairKey]float64
	// MeanFlips is the expected flips per strike (Σ pᵢ averaged).
	MeanFlips float64
}

// MBUStatsAtEnergyCtx runs iters strikes at one energy through the shared
// worker fan-out and gathers multiplicity and pair-separation statistics.
// maxK bounds the multiplicity PMF length (use 5-8; events beyond that are
// vanishingly rare). Worker sums merge in worker order, so the report is
// bit-deterministic for a fixed (seed, worker count).
func (e *Engine) MBUStatsAtEnergyCtx(ctx context.Context, sp phys.Species, energyMeV float64, iters, maxK int, seed uint64) (MBUReport, error) {
	if iters <= 0 {
		return MBUReport{}, errors.New("core: MBU stats need positive iterations")
	}
	if maxK < 2 {
		maxK = 2
	}
	accs, _, err := fanOut(ctx, e, iters, seed, func(src *rng.Source, scr *strikeScratch, a *mbuTally) (int, error) {
		return e.mbuTrial(src, sp, energyMeV, maxK, scr, a)
	})
	if err != nil {
		return MBUReport{}, fmt.Errorf("core: MBU stats %v @%g MeV: %w", sp, energyMeV, err)
	}
	rep := MBUReport{
		Species:         sp,
		EnergyMeV:       energyMeV,
		Strikes:         iters,
		MultiplicityPMF: make([]float64, maxK+1),
		PairWeights:     map[PairKey]float64{},
	}
	for _, part := range accs {
		for k, v := range part.pmf {
			rep.MultiplicityPMF[k] += v
		}
		for key, wgt := range part.pairs {
			rep.PairWeights[key] += wgt
		}
		rep.MeanFlips += part.flips
	}
	inv := 1 / float64(iters)
	for k := range rep.MultiplicityPMF {
		rep.MultiplicityPMF[k] *= inv
	}
	rep.MeanFlips *= inv
	for k := range rep.PairWeights {
		rep.PairWeights[k] *= inv
	}
	return rep, nil
}

// mbuTally is one worker's UNNORMALIZED MBU sums plus its per-strike
// scratch.
type mbuTally struct {
	pmf   []float64 // Σ per-strike multiplicity PMFs
	pairs map[PairKey]float64
	flips float64

	strikePMF, next []float64
	ups             []upset
}

// upset is one struck cell's flip probability and position.
type upset struct {
	row, col int
	p        float64
}

// mbuTrial runs one strike keeping per-cell identities and folds its
// multiplicity PMF, expected flips, and pair weights into a.
func (e *Engine) mbuTrial(src *rng.Source, sp phys.Species, energyMeV float64, maxK int, scr *strikeScratch, a *mbuTally) (int, error) {
	if a.pmf == nil {
		a.pmf = make([]float64, maxK+1)
		a.pairs = map[PairKey]float64{}
		a.strikePMF = make([]float64, maxK+1)
		a.next = make([]float64, maxK+1)
	}
	ups := a.ups[:0]
	ray := e.sampleRay(src, sp)
	scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
	scr.beginCells()
	if len(scr.candidate) > 0 {
		boxes := e.candidateBoxes(scr, scr.candidate)
		scr.deps = transport.TraceAppend(e.cfg.Transport, sp, energyMeV, ray, boxes, src, &scr.tr, scr.deps[:0])
		if err := transport.CheckDeposits(e.cfg.Guard, "core.strike", scr.deps); err != nil {
			return 0, err
		}
		e.accumulateCharges(scr, scr.candidate, scr.deps)
		scr.sortTouched()
		for _, ci := range scr.touched {
			p := e.providerFor(ci).POF(scr.cellQ[ci])
			if err := e.cfg.Guard.Probability("core.strike", "cell POF", p); err != nil {
				return 0, err
			}
			if p > 0 {
				ups = append(ups, upset{row: ci / e.arr.Cols, col: ci % e.arr.Cols, p: p})
			}
		}
	}
	a.ups = ups

	// Poisson-binomial multiplicity PMF for this strike.
	pmf, next := a.strikePMF, a.next
	for i := range pmf {
		pmf[i] = 0
	}
	pmf[0] = 1
	for _, u := range ups {
		for i := range next {
			next[i] = 0
		}
		for k := 0; k <= maxK; k++ {
			if pmf[k] == 0 {
				continue
			}
			next[k] += pmf[k] * (1 - u.p)
			if k+1 <= maxK {
				next[k+1] += pmf[k] * u.p
			} else {
				next[maxK] += pmf[k] * u.p // aggregate overflow
			}
		}
		copy(pmf, next)
	}
	for k := range pmf {
		a.pmf[k] += pmf[k]
	}
	for _, u := range ups {
		a.flips += u.p
	}
	// Pairwise separations weighted by joint flip probability.
	for i := 0; i < len(ups); i++ {
		for j := i + 1; j < len(ups); j++ {
			a.pairs[pairKey(ups[i].row, ups[i].col, ups[j].row, ups[j].col)] += ups[i].p * ups[j].p
		}
	}
	return len(scr.touched), nil
}

func pairKey(r1, c1, r2, c2 int) PairKey {
	dr, dc := r2-r1, c2-c1
	if dr < 0 || (dr == 0 && dc < 0) {
		dr, dc = -dr, -dc
	}
	return PairKey{DRow: dr, DCol: dc}
}

// SortedPairKeys returns the report's pair separations ordered by weight,
// heaviest first — handy for reporting.
func (r MBUReport) SortedPairKeys() []PairKey {
	keys := make([]PairKey, 0, len(r.PairWeights))
	for k := range r.PairWeights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		wi, wj := r.PairWeights[keys[i]], r.PairWeights[keys[j]]
		if wi != wj {
			return wi > wj
		}
		if keys[i].DRow != keys[j].DRow {
			return keys[i].DRow < keys[j].DRow
		}
		return keys[i].DCol < keys[j].DCol
	})
	return keys
}

// TotalPairWeight sums all pair weights (expected same-event pairs per
// strike).
func (r MBUReport) TotalPairWeight() float64 {
	s := 0.0
	for _, w := range r.PairWeights {
		s += w
	}
	return s
}

// TrackInfo is the per-particle detail used by visualization: the track's
// chord through the array bounds and the sensitive fins it charged.
type TrackInfo struct {
	Entry, Exit geom.Vec3
	StruckFins  []int // global fin indices (into Array().Fins())
	POF         float64
}

// SampleTracks runs n strikes at one energy and returns their geometric
// detail — the input for the SVG strike overlay.
func (e *Engine) SampleTracks(sp phys.Species, energyMeV float64, n int, seed uint64) []TrackInfo {
	src := rng.New(seed)
	out := make([]TrackInfo, 0, n)
	fins := e.arr.Fins()
	bounds := e.arr.Bounds()
	scr := e.getScratch()
	defer e.putScratch(scr)
	for i := 0; i < n; i++ {
		ray := e.sampleRay(src, sp)
		info := TrackInfo{Entry: ray.Origin}
		if tIn, tOut, ok := bounds.Intersect(ray); ok {
			info.Entry = ray.At(tIn)
			info.Exit = ray.At(tOut)
		} else {
			info.Exit = ray.Origin
		}
		scr.candidate = appendCandidateFins(e, ray, scr.candidate[:0])
		scr.beginCells()
		if candidate := scr.candidate; len(candidate) > 0 {
			boxes := e.candidateBoxes(scr, candidate)
			scr.deps = transport.TraceAppend(e.cfg.Transport, sp, energyMeV, ray, boxes, src, &scr.tr, scr.deps[:0])
			for _, d := range scr.deps {
				f := fins[candidate[d.Fin]]
				if _, sensitive := sram.SensitiveAxisForRole(f.Role, e.cfg.Pattern.Bit(f.Row, f.Col)); sensitive {
					info.StruckFins = append(info.StruckFins, candidate[d.Fin])
				}
			}
			e.accumulateCharges(scr, candidate, scr.deps)
			scr.sortTouched()
			pofs := scr.pofs[:0]
			for _, ci := range scr.touched {
				if p := e.providerFor(ci).POF(scr.cellQ[ci]); p > 0 {
					pofs = append(pofs, p)
				}
			}
			scr.pofs = pofs
			info.POF = combinePOFs(pofs, len(scr.touched)).pofTot
		}
		out = append(out, info)
	}
	return out
}
