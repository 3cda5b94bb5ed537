package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"finser/internal/geom"
	"finser/internal/lut"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
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
// worker fan-out and strike body, looks them up in cell model m, and
// gathers multiplicity and pair-separation statistics. maxK bounds the
// multiplicity PMF length (use 5-8; events beyond that are vanishingly
// rare). Strike i is strike i of POFAtEnergyCtx with the same model and
// seed, in either deposit mode, so the PMF's marginals reproduce that
// point's POFtot and POFMBU. Chunk sums merge in chunk order, so the
// report is a pure function of the configuration, model and seed, whatever
// the worker count.
func (e *Engine) MBUStatsAtEnergyCtx(ctx context.Context, m sram.POFProvider, sp phys.Species, energyMeV float64, iters, maxK int, seed uint64) (MBUReport, error) {
	if err := checkEnergy("MBUStatsAtEnergyCtx", energyMeV); err != nil {
		return MBUReport{}, err
	}
	if maxK < 2 {
		maxK = 2
	}
	yieldTab, err := e.yieldTable(ctx, sp)
	if err != nil {
		return MBUReport{}, err
	}
	accs, _, err := fanOut(ctx, e, 0, iters, seed, func(int) mbuTally { return mbuTally{} }, func(src *rng.Source, scr *strikeScratch, a *mbuTally) (int, error) {
		return e.mbuTrial(m, src, sp, energyMeV, yieldTab, maxK, scr, a)
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

// mbuTally is one chunk's UNNORMALIZED MBU sums plus its per-strike
// scratch.
type mbuTally struct {
	pmf   []float64 // Σ per-strike multiplicity PMFs
	pairs map[PairKey]float64
	flips float64

	strikePMF, next []float64
}

// mbuTrial runs one strike in cell model m and folds its multiplicity PMF,
// expected flips, and pair weights into a.
func (e *Engine) mbuTrial(m sram.POFProvider, src *rng.Source, sp phys.Species, energyMeV float64, yieldTab *lut.Table1D, maxK int, scr *strikeScratch, a *mbuTally) (int, error) {
	if a.pmf == nil {
		a.pmf = make([]float64, maxK+1)
		a.pairs = map[PairKey]float64{}
		a.strikePMF = make([]float64, maxK+1)
		a.next = make([]float64, maxK+1)
	}
	o, err := e.strike(m, src, sp, energyMeV, e.sampleRay(src, sp), yieldTab, true, scr)
	if err != nil {
		return 0, err
	}
	pofs, cells := scr.pofs, scr.pofCells

	// Poisson-binomial multiplicity PMF for this strike.
	pmf, next := a.strikePMF, a.next
	for i := range pmf {
		pmf[i] = 0
	}
	pmf[0] = 1
	for _, p := range pofs {
		for i := range next {
			next[i] = 0
		}
		for k := 0; k <= maxK; k++ {
			if pmf[k] == 0 {
				continue
			}
			next[k] += pmf[k] * (1 - p)
			if k+1 <= maxK {
				next[k+1] += pmf[k] * p
			} else {
				next[maxK] += pmf[k] * p // aggregate overflow
			}
		}
		copy(pmf, next)
	}
	for k := range pmf {
		a.pmf[k] += pmf[k]
	}
	for _, p := range pofs {
		a.flips += p
	}
	// Pairwise separations weighted by joint flip probability.
	for i := range cells {
		for j := i + 1; j < len(cells); j++ {
			a.pairs[pairKey(cells[i], cells[j], e.arr.Cols)] += pofs[i] * pofs[j]
		}
	}
	return o.struckCells, nil
}

// pairKey returns the canonical separation of two cells given by dense
// index in an array of cols columns.
func pairKey(c1, c2, cols int) PairKey {
	dr, dc := c2/cols-c1/cols, c2%cols-c1%cols
	if dr < 0 || (dr == 0 && dc < 0) {
		dr, dc = -dr, -dc
	}
	return PairKey{DRow: dr, DCol: dc}
}

// PairKeys returns the report's pair separations in (DRow, DCol)
// ascending order. Every sum over the pair weights runs in this order, so
// its last bit does not depend on map iteration.
func (r MBUReport) PairKeys() []PairKey {
	keys := make([]PairKey, 0, len(r.PairWeights))
	for k := range r.PairWeights {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b PairKey) int {
		return cmp.Or(cmp.Compare(a.DRow, b.DRow), cmp.Compare(a.DCol, b.DCol))
	})
	return keys
}

// SortedPairKeys returns the report's pair separations ordered by weight,
// heaviest first, ties in PairKeys order — handy for reporting.
func (r MBUReport) SortedPairKeys() []PairKey {
	keys := r.PairKeys()
	slices.SortStableFunc(keys, func(a, b PairKey) int {
		return cmp.Compare(r.PairWeights[b], r.PairWeights[a])
	})
	return keys
}

// TotalPairWeight sums all pair weights (expected same-event pairs per
// strike) in PairKeys order.
func (r MBUReport) TotalPairWeight() float64 {
	s := 0.0
	for _, k := range r.PairKeys() {
		s += r.PairWeights[k]
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

// SampleTracksCtx runs n strikes at one energy through the strike body in
// cell model m and returns their geometric detail — the input for the SVG
// strike overlay. Tracks draw from one sequential stream seeded by seed, so
// each track's transport draws shift every later track, and every track
// keeps its full trace.
// Like every other entry point it honours the deposit mode and the guard
// and checks ctx every cancelCheckEvery tracks.
func (e *Engine) SampleTracksCtx(ctx context.Context, m sram.POFProvider, sp phys.Species, energyMeV float64, n int, seed uint64) ([]TrackInfo, error) {
	if err := checkEnergy("SampleTracksCtx", energyMeV); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("core: tracks: need a positive track count, got %d", n)
	}
	yieldTab, err := e.yieldTable(ctx, sp)
	if err != nil {
		return nil, err
	}
	src := rng.New(seed)
	out := make([]TrackInfo, 0, n)
	bounds := e.arr.Bounds()
	scr := e.getScratch()
	defer e.putScratch(scr)
	for i := 0; i < n; i++ {
		if i%cancelCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("core: tracks %v @%g MeV: %w", sp, energyMeV, err)
			}
		}
		ray := e.sampleRay(src, sp)
		info := TrackInfo{Entry: ray.Origin, Exit: ray.Origin}
		if tIn, tOut, ok := bounds.Intersect(ray); ok {
			info.Entry = ray.At(tIn)
			info.Exit = ray.At(tOut)
		}
		o, err := e.strike(m, src, sp, energyMeV, ray, yieldTab, false, scr)
		if err != nil {
			return nil, fmt.Errorf("core: tracks %v @%g MeV: %w", sp, energyMeV, err)
		}
		for _, d := range scr.deps {
			if e.targets[d.Fin].sensitive {
				info.StruckFins = append(info.StruckFins, d.Fin)
			}
		}
		info.POF = o.pofTot
		out = append(out, info)
	}
	return out, nil
}
