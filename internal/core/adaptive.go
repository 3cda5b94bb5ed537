package core

import "finser/internal/stats"

// Adaptive Monte-Carlo: instead of a fixed particle budget, run batches
// until the POF estimate reaches a requested relative precision. Rare-event
// points (high Vdd, high energy, protons) need orders of magnitude more
// particles than saturated points; fixed budgets either waste work or
// under-resolve. The paper side-steps this with a flat 10 M iterations —
// this estimator gets equal precision for a fraction of the strikes.
//
// BinEstimator below is the convergence implementation the adaptive FIT
// mode (a BinPlan's RelErr, see adaptivefit.go) streams every bin's
// batches through.

// BinEstimator is a streaming per-bin convergence estimator: it folds
// fixed-size Monte-Carlo batch estimates into pooled Welford moments of
// POFtot, exposing the running mean, standard error, and relative error
// that drive every adaptive stopping rule in core. It is a plain value
// type — zero value ready, no heap allocation, and merges in call order, so
// feeding it the same batch sequence always reproduces the same bits.
type BinEstimator struct {
	energyMeV float64
	tot       stats.Welford
	// The secondary channels only need pooled means (no stopping rule reads
	// their variance), so plain strike-weighted sums suffice.
	sumSEU, sumMBU, sumHits float64
	strikes                 int
	batches                 int
}

// AddBatch folds one batch estimate into the stream. The batch's
// (Strikes, Tot, TotStdErr) summary is converted back into Welford moments
// — variance = se²·n, m2 = variance·(n−1) — and merged, so the pooled mean
// and standard error are those of the concatenated per-strike stream.
func (b *BinEstimator) AddBatch(pt POFPoint) {
	n := int64(pt.Strikes)
	variance := pt.TotStdErr * pt.TotStdErr * float64(n)
	b.tot.Merge(stats.WelfordFromMoments(n, pt.Tot, variance*float64(n-1)))
	nf := float64(pt.Strikes)
	b.sumSEU += pt.SEU * nf
	b.sumMBU += pt.MBU * nf
	b.sumHits += pt.HitFrac * nf
	b.strikes += pt.Strikes
	b.batches++
	b.energyMeV = pt.EnergyMeV
}

// Batches returns how many batches have been folded in.
func (b *BinEstimator) Batches() int { return b.batches }

// Strikes returns the total particles consumed so far.
func (b *BinEstimator) Strikes() int { return b.strikes }

// Mean returns the pooled POFtot mean.
func (b *BinEstimator) Mean() float64 { return b.tot.Mean() }

// StdErr returns the pooled standard error of the POFtot mean.
func (b *BinEstimator) StdErr() float64 { return b.tot.StdErr() }

// RelErr returns stderr/mean of POFtot, the convergence figure of merit
// (0 while the mean is zero — callers gate on Mean() > 0 separately).
func (b *BinEstimator) RelErr() float64 {
	if m := b.tot.Mean(); m > 0 {
		return b.tot.StdErr() / m
	}
	return 0
}

// Point renders the pooled estimate as a POFPoint.
func (b *BinEstimator) Point() POFPoint {
	if b.strikes == 0 {
		return POFPoint{EnergyMeV: b.energyMeV}
	}
	nf := float64(b.strikes)
	return POFPoint{
		EnergyMeV: b.energyMeV,
		Tot:       b.tot.Mean(),
		SEU:       b.sumSEU / nf,
		MBU:       b.sumMBU / nf,
		TotStdErr: b.tot.StdErr(),
		Strikes:   b.strikes,
		HitFrac:   b.sumHits / nf,
	}
}
