package core

import (
	"fmt"
	"math"

	"finser/internal/spectra"
)

// Adaptive FIT mode (a BinPlan with RelErr > 0): confidence, not particle
// count, is the unit of work. Each energy bin consumes its Monte-Carlo
// stream in fixed-size batches and stops as soon as its POF confidence
// interval is inside a weight-scaled relative tolerance, up to a hard
// per-bin cap.
//
// Budget reallocation is expressed through the per-bin envelope rather than
// an explicit scheduler: every bin may run anywhere between one batch and
// adaptiveCapBatches× the flat budget, so cheap (saturated, high-flux) bins
// release most of their flat budget after a batch or two while the bins
// where d(FIT)/d(samples) is largest — the rare-event tail that is still
// outside tolerance — keep drawing batches up to the cap. Because each
// bin's stopping rule depends only on its own sample stream plus the
// statically derivable flux weights, the outcome is identical to a greedy
// marginal-error-reduction scheduler no matter what order bins execute in.
// That order-independence is what keeps a fixed config bit-identical across
// checkpoint resume and the distributed shard merge: shards and the
// single-node loop run the exact same per-bin decision procedure on the
// exact same strikes.

const (
	// adaptiveFlatBatches splits the flat per-bin budget (ItersPerBin) into
	// this many batches; the batch size is the convergence-check stride.
	adaptiveFlatBatches = 10
	// adaptiveMinBatches is the floor before any bin may declare
	// convergence — one batch still produces a usable variance estimate
	// because the batch itself carries per-strike moments.
	adaptiveMinBatches = 1
	// adaptiveZeroMinBatches is the floor for bins with zero observed POF
	// mass: a single empty batch is not evidence that a rare-event bin is
	// dead, so such bins must consume a second before stopping — 20% of the
	// flat budget with zero upsets. A bin the flat run could even resolve
	// (≳100 expected upsets over the full budget) slips past that floor with
	// probability e⁻²⁰; any upset in those batches reverts the bin to the
	// normal tolerance rule.
	adaptiveZeroMinBatches = 2
	// adaptiveCapBatches is the hard per-bin cap (4× the flat budget) —
	// the bound on how much freed budget an unconverged tail bin can absorb.
	adaptiveCapBatches = 40
)

// BinConv is one energy bin's convergence record under the adaptive FIT
// mode — the metadata that travels alongside the physics-only POFPoint
// through checkpoints, results, bin events, and distributed shard merges.
type BinConv struct {
	// RelErr is the achieved stderr/mean of POFtot (0 for a zero-mean bin).
	RelErr float64 `json:"rel_err"`
	// Tol is the bin's weight-scaled relative-error target.
	Tol float64 `json:"tol"`
	// Converged reports whether the bin stopped inside tolerance (true) or
	// hit the per-bin cap (false).
	Converged bool `json:"converged"`
	// Batches is the number of fixed-size batches consumed.
	Batches int `json:"batches"`
	// StrikesSaved is the flat budget minus the particles actually
	// consumed — negative when the bin overran its flat budget chasing
	// tolerance.
	StrikesSaved int `json:"strikes_saved"`
}

// adaptiveBatchSize returns the fixed batch stride for a flat per-bin
// budget: ceil(itersPerBin / adaptiveFlatBatches), so ten batches replay
// the flat budget (the last possibly overshooting by < one batch).
func adaptiveBatchSize(itersPerBin int) int {
	return (itersPerBin + adaptiveFlatBatches - 1) / adaptiveFlatBatches
}

// adaptiveTols returns each bin's relative-error target under the global
// tolerance relErr, scaled by the bin's weight in the FIT integral so cheap
// bins are not over-polished: a bin carrying flux share sᵢ of the spectrum
// gets tolᵢ = relErr / √(nBins·sᵢ) — equal-variance-contribution allocation
// for the Eq. 8 sum, where a bin's FIT variance enters as (share·relerr)².
// Targets are clamped to [relErr, 10·relErr]: no bin is asked to beat the
// global target, and negligible-flux bins are not polished past 10× of it.
// The weights are a pure function of the bin plan, so every shard, worker,
// and resume derives the identical targets.
func adaptiveTols(bins []spectra.EnergyBin, relErr float64) []float64 {
	totalFlux := 0.0
	for _, b := range bins {
		totalFlux += b.IntFlux
	}
	tols := make([]float64, len(bins))
	for i, b := range bins {
		tol := 10 * relErr
		if totalFlux > 0 && b.IntFlux > 0 {
			tol = relErr / math.Sqrt(float64(len(bins))*b.IntFlux/totalFlux)
		}
		if tol < relErr {
			tol = relErr
		}
		if tol > 10*relErr {
			tol = 10 * relErr
		}
		tols[i] = tol
	}
	return tols
}

// adaptiveBinDone is the per-bin stopping rule shared by every adaptive
// call site: inside tolerance once the mean is positive, or — for bins with
// zero observed POF mass — after the zero-mass batch floor.
func adaptiveBinDone(est *BinEstimator, tol float64) bool {
	if est.Batches() < adaptiveMinBatches {
		return false
	}
	if est.Mean() > 0 {
		return est.RelErr() <= tol
	}
	return est.Batches() >= adaptiveZeroMinBatches
}

// adaptiveHopeless reports whether a bin that has consumed at least its
// flat-equivalent budget provably cannot converge within the per-bin cap:
// relative error shrinks as 1/√n, so reaching tol from the current estimate
// takes ~batches·(relErr/tol)² total batches; once that projection exceeds
// the cap, the remaining budget cannot change the verdict. Such bins — the
// deep rare-event tail, where tolerance may demand orders of magnitude more
// particles than even the cap allows — stop at the flat budget and report
// unconverged instead of burning 4× flat to reach the same unconverged
// state. The projection uses only the bin's own stream, preserving
// order-independence. Bins below the flat budget are never bailed: an early
// variance estimate is too noisy to write off a bin that the flat run would
// have sampled anyway.
func adaptiveHopeless(est *BinEstimator, tol float64) bool {
	if est.Batches() < adaptiveFlatBatches || est.Mean() <= 0 {
		return false
	}
	rel := est.RelErr() / tol
	return float64(est.Batches())*rel*rel > adaptiveCapBatches
}

// adaptiveStep folds one bin's next batch estimate into est and reports
// whether the bin stops there: its confidence interval is inside tol,
// convergence within the cap has become provably unreachable, or the
// per-bin cap is reached. A stopping bin returns its pooled point and
// convergence record, and the engine metrics count its savings. Batch b is
// strikes [b·batch, (b+1)·batch) of the bin's own stream, so the result
// depends only on (config, bin seed), and a flat bin's strikes are the
// first strikes of the same bin run adaptively; stopping early merely
// leaves later strikes untaken.
func (e *Engine) adaptiveStep(est *BinEstimator, pt POFPoint, itersPerBin int, tol float64) (POFPoint, BinConv, bool) {
	est.AddBatch(pt)
	conv := BinConv{Tol: tol}
	switch {
	case adaptiveBinDone(est, tol):
		conv.Converged = true
	case adaptiveHopeless(est, tol), est.Batches() >= adaptiveCapBatches:
	default:
		return POFPoint{}, BinConv{}, false
	}
	conv.RelErr = est.RelErr()
	conv.Batches = est.Batches()
	conv.StrikesSaved = itersPerBin - est.Strikes()
	if m := e.m; m != nil {
		if conv.StrikesSaved > 0 {
			m.AdaptiveEarlyStops.Inc()
			m.AdaptiveStrikesSaved.Add(int64(conv.StrikesSaved))
		} else if conv.StrikesSaved < 0 {
			m.AdaptiveStrikesOverrun.Add(int64(-conv.StrikesSaved))
		}
	}
	return est.Point(), conv, true
}

// CheckBinConv validates one convergence record against its POF point:
// CheckBin's check of an adaptive bin at a trust boundary.
func CheckBinConv(c BinConv, pt POFPoint) error {
	if !(c.RelErr >= 0) || math.IsInf(c.RelErr, 0) {
		return fmt.Errorf("core: invalid bin convergence record: rel_err %g", c.RelErr)
	}
	if !(c.Tol > 0) || math.IsInf(c.Tol, 0) {
		return fmt.Errorf("core: invalid bin convergence record: tol %g", c.Tol)
	}
	if c.Batches < adaptiveMinBatches || c.Batches > adaptiveCapBatches {
		return fmt.Errorf("core: invalid bin convergence record: %d batches", c.Batches)
	}
	if pt.Strikes <= 0 || pt.Strikes%c.Batches != 0 {
		return fmt.Errorf("core: bin convergence record inconsistent with its point: %d strikes over %d batches", pt.Strikes, c.Batches)
	}
	return nil
}
