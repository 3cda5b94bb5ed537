package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"finser/internal/faultinject"
	"finser/internal/lut"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/spectra"
	"finser/internal/stats"
)

// Every Monte-Carlo estimate in core runs through the two pieces in this
// file: one worker fan-out (fanOut) and one bin runner (runBins). The only
// per-species difference is the strike kernel — direct ionization for α
// and p, the forced nuclear interaction for neutrons.

// kernel is one species' strike: a single Monte-Carlo trial at energyMeV,
// returning its outcome and probability weight (1 for direct ionization,
// the forced interaction's probability for neutrons). name labels the
// species in stage names ("fit/<name>") and errors.
type kernel struct {
	name   string
	strike func(src *rng.Source, energyMeV float64, scr *strikeScratch) (strikeOutcome, float64, error)
}

// directKernel is the α/p kernel. In DepositLUT mode it resolves the
// species' mean-yield table up front, so the hot loop never touches the
// table cache.
func (e *Engine) directKernel(ctx context.Context, sp phys.Species) (kernel, error) {
	var yieldTab *lut.Table1D
	if e.cfg.Deposits == DepositLUT {
		t, err := e.ensureYieldLUT(ctx, sp)
		if err != nil {
			return kernel{}, err
		}
		yieldTab = t
	}
	return kernel{name: sp.String(), strike: func(src *rng.Source, energyMeV float64, scr *strikeScratch) (strikeOutcome, float64, error) {
		o, err := e.strike(src, sp, energyMeV, yieldTab, scr)
		return o, 1, err
	}}, nil
}

// cancelCheckEvery is the worker-loop particle stride between context
// checks. Strikes cost microseconds, so this bounds cancellation latency
// well under a millisecond per worker.
const cancelCheckEvery = 64

// FaultSiteParticle is the engine's per-particle fault-injection site.
const FaultSiteParticle = "core.particle"

// strikeChunk is the number of consecutive strikes that share one
// accumulator. It fixes the merge order of every estimate, so changing it
// moves FIT bits (raise PhysicsRevision with it).
const strikeChunk = 256

// fanOut is the one Monte-Carlo worker fan-out in core. It runs strikes
// [from, to) of the estimate keyed by seed: strike i draws from the random
// stream keyed by (seed, i), and consecutive strikes share one accumulator
// per strikeChunk. Workers take chunks from a shared counter and call trial
// once per strike with their scratch and the chunk's accumulator; trial
// reports how many cells the strike charged. The accumulators come back in
// chunk order, so merging them in slice order makes every estimate a pure
// function of (seed, from, to), whatever the worker count. Workers check
// ctx every cancelCheckEvery strikes and hit FaultSiteParticle before each
// one. A worker panic is recovered into a stack-carrying
// *faultinject.PanicError that fails this estimate instead of the process;
// on cancellation the error wraps ctx.Err(). hits counts the strikes that
// charged at least one cell; the engine metrics record the run.
func fanOut[A any](ctx context.Context, e *Engine, from, to int, seed uint64, trial func(src *rng.Source, scr *strikeScratch, acc *A) (struck int, err error)) (accs []A, hits int, err error) {
	iters := to - from
	chunks := max(0, (iters+strikeChunk-1)/strikeChunk)
	workers := min(e.cfg.Workers, chunks)

	m := e.cfg.Metrics
	var wallStart time.Time
	if m != nil {
		wallStart = time.Now()
	}
	accs = make([]A, chunks)
	type workerStats struct {
		hits   int
		busyNs int64
	}
	ws := make([]workerStats, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer faultinject.Recover("core.worker", &errs[w])
			scr := e.getScratch()
			defer e.putScratch(scr)
			var busyStart time.Time
			if m != nil {
				busyStart = time.Now()
			}
			var src rng.Source
			var acc, zero A
			h, n := 0, 0
		chunkLoop:
			for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
				acc = zero
				for i := from + c*strikeChunk; i < min(from+(c+1)*strikeChunk, to); i++ {
					if n%cancelCheckEvery == 0 {
						if err := ctx.Err(); err != nil {
							errs[w] = err
							break chunkLoop
						}
					}
					n++
					if fi := e.cfg.Faults; fi != nil {
						if err := fi.Hit(FaultSiteParticle); err != nil {
							errs[w] = err
							break chunkLoop
						}
					}
					src.Reset(seed, uint64(i))
					struck, err := trial(&src, scr, &acc)
					if err != nil {
						errs[w] = err
						break chunkLoop
					}
					if struck > 0 {
						h++
						if m != nil {
							m.StruckCellMultiplicity.Observe(float64(struck))
						}
					}
				}
				accs[c] = acc
			}
			if errs[w] != nil {
				next.Store(int64(chunks)) // the estimate has failed: hand out no more chunks
			}
			ws[w].hits = h
			if m != nil {
				ws[w].busyNs = time.Since(busyStart).Nanoseconds()
			}
		}(w)
	}
	wg.Wait()

	// Surface the most informative failure: a real fault (panic, injected
	// error, guard violation) over a bare cancellation, then by worker
	// index for determinism.
	var ctxErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			if ctxErr == nil {
				ctxErr = err
			}
		default:
			return nil, 0, err
		}
	}
	if ctxErr != nil {
		return nil, 0, ctxErr
	}

	busy := int64(0)
	for _, s := range ws {
		hits += s.hits
		busy += s.busyNs
	}
	if m != nil {
		m.Particles.Add(int64(iters))
		m.Hits.Add(int64(hits))
		m.Misses.Add(int64(iters - hits))
		m.WorkerBusyNs.Add(busy)
		wallNs := time.Since(wallStart).Nanoseconds() * int64(workers)
		m.WallNs.Add(wallNs)
		if wallNs > 0 {
			m.WorkerUtilization.Set(float64(busy) / float64(wallNs))
		}
	}
	return accs, hits, nil
}

// tally is one chunk's running weighted POF moments.
type tally struct {
	tot, seu, mbu, weight stats.Welford
}

// estimate runs strikes [from, to) of the kernel's estimate keyed by seed
// at one energy through the fan-out and merges the chunk tallies in chunk
// order. It returns the POF point and the mean trial weight.
func (e *Engine) estimate(ctx context.Context, k kernel, energyMeV float64, from, to int, seed uint64) (POFPoint, float64, error) {
	iters := to - from
	accs, hits, err := fanOut(ctx, e, from, to, seed, func(src *rng.Source, scr *strikeScratch, a *tally) (int, error) {
		o, w, err := k.strike(src, energyMeV, scr)
		if err != nil {
			return 0, err
		}
		a.tot.Add(w * o.pofTot)
		a.seu.Add(w * o.pofSEU)
		a.mbu.Add(w * o.pofMBU)
		a.weight.Add(w)
		return o.struckCells, nil
	})
	if err != nil {
		return POFPoint{}, 0, fmt.Errorf("core: POF %s @%g MeV: %w", k.name, energyMeV, err)
	}
	var t tally
	for i := range accs {
		t.tot.Merge(accs[i].tot)
		t.seu.Merge(accs[i].seu)
		t.mbu.Merge(accs[i].mbu)
		t.weight.Merge(accs[i].weight)
	}
	pt := POFPoint{
		EnergyMeV: energyMeV,
		Tot:       t.tot.Mean(),
		SEU:       t.seu.Mean(),
		MBU:       t.mbu.Mean(),
		TotStdErr: t.tot.StdErr(),
		Strikes:   iters,
		HitFrac:   float64(hits) / float64(iters),
	}
	if err := checkPOFPoint(e.cfg.Guard, "core.pof", pt); err != nil {
		return POFPoint{}, 0, err
	}
	return pt, t.weight.Mean(), nil
}

// runBins is the one bin runner: it estimates bins[from:to) with the
// pre-drawn seed schedule (aligned with bins), sampling each bin flat or
// adaptively per Config.FITRelErr, and hands every finished bin to done in
// bin order. Bin i's estimate is a pure function of (config, seeds[i]), so
// any split of the range — shards, resumed runs — reproduces the one-call
// result bit for bit. Bin spans hang under span (nil disables them).
func (e *Engine) runBins(ctx context.Context, k kernel, bins []spectra.EnergyBin, itersPerBin int, seeds []uint64, from, to int, span *obs.Span, done func(i int, pt POFPoint, conv BinConv) error) error {
	if itersPerBin <= 0 {
		return errors.New("core: FIT needs positive iterations per bin")
	}
	if len(seeds) != len(bins) {
		return fmt.Errorf("core: POF bins: %d seeds for %d bins", len(seeds), len(bins))
	}
	if from < 0 || to > len(bins) || from > to {
		return fmt.Errorf("core: POF bins: bad shard range [%d,%d) over %d bins", from, to, len(bins))
	}
	var tols []float64
	if e.cfg.FITRelErr > 0 {
		tols = adaptiveTols(bins, e.cfg.FITRelErr)
	}
	stage := "fit/" + k.name
	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s bin %d: %w", stage, i, err)
		}
		binSpan := span.Child(fmt.Sprintf("bin%02d@%.3gMeV", i, bins[i].Rep))
		var pt POFPoint
		var conv BinConv
		var err error
		if tols != nil {
			pt, conv, err = e.adaptivePOFBin(ctx, k, bins[i].Rep, itersPerBin, seeds[i], tols[i])
		} else {
			pt, _, err = e.estimate(ctx, k, bins[i].Rep, 0, itersPerBin, seeds[i])
		}
		binSpan.End()
		if err != nil {
			return fmt.Errorf("core: %s bin %d: %w", stage, i, err)
		}
		if err := done(i, pt, conv); err != nil {
			return err
		}
	}
	return nil
}

// integrate is the checkpointed Eq. 8 driver behind FITCtx and
// NeutronFITCtx: restore the completed bins from the checkpoint, run the
// bin runner over the rest, fold the points with AssembleFIT, and guard the
// totals.
//
// Cancellation: ctx is checked before every bin and every cancelCheckEvery
// particles inside it; the error wraps ctx.Err() with the stage identity.
// Checkpointing: with Config.Checkpoint set every completed bin is
// persisted, and a later call with the same configuration resumes from the
// last completed bin bit-identically (per-bin seeds are pre-drawn from
// seed, so bin k's substream does not depend on how many bins ran in this
// process).
func (e *Engine) integrate(ctx context.Context, k kernel, sp phys.Species, bins []spectra.EnergyBin, itersPerBin int, seed uint64) (FITResult, error) {
	if len(bins) == 0 {
		return FITResult{}, errors.New("core: FIT needs at least one energy bin")
	}
	stage := "fit/" + k.name
	fitSpan := e.cfg.Metrics.span(stage)
	defer fitSpan.End()

	seeds := FITSeedSchedule(seed, len(bins))
	adaptive := e.cfg.FITRelErr > 0
	state := fitState{ItersPerBin: itersPerBin, Seeds: seeds, RelErr: e.cfg.FITRelErr}
	ckStage := e.cfg.CheckpointPrefix + stage
	if e.cfg.Checkpoint != nil {
		var prev fitState
		ok, err := e.cfg.Checkpoint.Load(ckStage, &prev)
		if err != nil {
			return FITResult{}, fmt.Errorf("core: %s: checkpoint: %w", ckStage, err)
		}
		if ok {
			if err := compatibleFITState(prev, state, len(bins)); err != nil {
				return FITResult{}, fmt.Errorf("core: %s: checkpoint: %w", ckStage, err)
			}
			// Restored points crossed a disk boundary: re-check them as if
			// they were freshly computed.
			for i, pt := range prev.Points {
				if err := checkPOFPoint(e.cfg.Guard, stage+" (resumed)", pt); err != nil {
					return FITResult{}, err
				}
				if adaptive {
					if err := CheckBinConv(prev.Conv[i], pt); err != nil {
						return FITResult{}, fmt.Errorf("core: %s: checkpoint: %w", ckStage, err)
					}
				}
			}
			state.Points = prev.Points
			state.Conv = prev.Conv
		}
	}

	tracker := obs.NewTracker(e.cfg.Progress, stage, int64(len(bins)*itersPerBin), 0)
	defer tracker.Finish()
	lx, ly := e.arr.DimsCm()
	area := lx * ly
	fitSoFar := 0.0
	emit := func(i int, pt POFPoint, conv BinConv, resumed bool) {
		tracker.Add(int64(pt.Strikes))
		if e.cfg.OnBinDone == nil {
			return
		}
		fitSoFar += pt.Tot * bins[i].IntFlux * area * fitScale
		e.cfg.OnBinDone(BinEvent{Stage: stage, Bin: i + 1, Bins: len(bins), Point: pt, FITSoFar: fitSoFar,
			Resumed: resumed, Adaptive: adaptive, Conv: conv})
	}
	// Replay restored bins so a consumer joining a resumed run still sees
	// the full bin sequence and a correct partial sum.
	for i, pt := range state.Points {
		var conv BinConv
		if adaptive {
			conv = state.Conv[i]
		}
		emit(i, pt, conv, true)
	}

	err := e.runBins(ctx, k, bins, itersPerBin, seeds, len(state.Points), len(bins), fitSpan, func(i int, pt POFPoint, conv BinConv) error {
		state.Points = append(state.Points, pt)
		if adaptive {
			state.Conv = append(state.Conv, conv)
		}
		emit(i, pt, conv, false)
		if e.cfg.Checkpoint != nil {
			if err := e.cfg.Checkpoint.Save(ckStage, state); err != nil {
				return fmt.Errorf("core: %s bin %d: checkpoint: %w", ckStage, i, err)
			}
		}
		return nil
	})
	if err != nil {
		return FITResult{}, err
	}

	// Accumulate from the ordered points — the same float operations in the
	// same order whether the points were computed here, restored from a
	// checkpoint, or merged from distributed shards.
	res := AssembleFIT(sp, e.cfg.Char.SupplyVoltage(), bins, state.Points, area)
	res.Conv = state.Conv
	if g := e.cfg.Guard; g.Enabled() {
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"TotalFIT", res.TotalFIT}, {"SEUFIT", res.SEUFIT},
			{"MBUFIT", res.MBUFIT}, {"TotalFITErr", res.TotalFITErr},
		} {
			if err := g.NonNegativeFinite(stage, c.name, c.v); err != nil {
				return FITResult{}, err
			}
		}
	}
	return res, nil
}
