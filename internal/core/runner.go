package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"finser/internal/faultinject"
	"finser/internal/neutron"
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

// directKernel is the α/p kernel. It resolves the deposit mode up front
// (yieldTable), so the hot loop never touches the table cache.
func (e *Engine) directKernel(ctx context.Context, sp phys.Species) (kernel, error) {
	yieldTab, err := e.yieldTable(ctx, sp)
	if err != nil {
		return kernel{}, err
	}
	return kernel{name: sp.String(), strike: func(src *rng.Source, energyMeV float64, scr *strikeScratch) (strikeOutcome, float64, error) {
		o, err := e.strike(src, sp, energyMeV, e.sampleRay(src, sp), yieldTab, scr)
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
// on cancellation the error wraps ctx.Err(). An empty range is an error,
// so no entry point reports an estimate over zero strikes. hits counts the
// strikes that charged at least one cell; the engine metrics record the
// run.
func fanOut[A any](ctx context.Context, e *Engine, from, to int, seed uint64, trial func(src *rng.Source, scr *strikeScratch, acc *A) (struck int, err error)) (accs []A, hits int, err error) {
	iters := to - from
	if iters <= 0 {
		return nil, 0, fmt.Errorf("empty strike range [%d,%d): need at least one strike", from, to)
	}
	chunks := (iters + strikeChunk - 1) / strikeChunk
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

// runBins is the one bin runner: it estimates the bins of l's plan in
// [from, to) that l does not hold yet, sampling each flat or adaptively
// per the plan's tolerance, and completes each into l in bin order. Bin
// i's estimate is a pure function of (config, seeds[i]), so any split of
// the range — shards, resumed runs — reproduces the one-call result bit
// for bit. Bin spans hang under span and each bin's strikes count on
// tracker (nil disables either).
func (e *Engine) runBins(ctx context.Context, k kernel, l *Ledger, from, to int, span *obs.Span, tracker *obs.Tracker) error {
	p := l.Plan()
	if from < 0 || to > len(p.Bins) || from >= to {
		return fmt.Errorf("core: POF bins: bad shard range [%d,%d) over %d bins", from, to, len(p.Bins))
	}
	var tols []float64
	if p.RelErr > 0 {
		tols = adaptiveTols(p.Bins, p.RelErr)
	}
	for i := from; i < to; i++ {
		if l.Done(i) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s bin %d: %w", l.stage, i, err)
		}
		binSpan := span.Child(fmt.Sprintf("bin%02d@%.3gMeV", i, p.Bins[i].Rep))
		var pt POFPoint
		var conv BinConv
		var err error
		if tols != nil {
			pt, conv, err = e.adaptivePOFBin(ctx, k, p.Bins[i].Rep, p.ItersPerBin, p.Seeds[i], tols[i])
		} else {
			pt, _, err = e.estimate(ctx, k, p.Bins[i].Rep, 0, p.ItersPerBin, p.Seeds[i])
		}
		binSpan.End()
		if err != nil {
			return fmt.Errorf("core: %s bin %d: %w", l.stage, i, err)
		}
		if err := l.Complete(i, []POFPoint{pt}, []BinConv{conv}); err != nil {
			return err
		}
		tracker.Add(int64(pt.Strikes))
	}
	return nil
}

// PlanMismatchError reports a bin plan handed to an engine it was not made
// for: the plan's Vdd is not the one the engine's cell model was
// characterized at, or its Eq. 8 area is not the engine's array. Running
// it would file one cell's POFs under another's voltage, so the engine
// refuses it before it restores or runs a bin. Match with errors.As.
type PlanMismatchError struct {
	Stage string // "fit/<name>"
	Field string // "Vdd" or "area"
	// Plan is the plan's value, Engine the engine's (V or cm²).
	Plan, Engine float64
}

func (e *PlanMismatchError) Error() string {
	if e.Field == "Vdd" {
		return fmt.Sprintf("core: %s: the plan is for Vdd %g V, but the engine's cell model was characterized at %g V", e.Stage, e.Plan, e.Engine)
	}
	return fmt.Sprintf("core: %s: the plan's %s is %g, the engine's %g", e.Stage, e.Field, e.Plan, e.Engine)
}

// ledgerKernel checks that l's plan belongs to this engine and returns its
// strike kernel: the forced neutron interaction of rx when rx is non-nil,
// else the plan species' direct ionization.
func (e *Engine) ledgerKernel(ctx context.Context, l *Ledger, rx *neutron.Reactions) (kernel, error) {
	p := l.Plan()
	lx, ly := e.arr.DimsCm()
	if vdd := e.cfg.Char.SupplyVoltage(); p.Vdd != vdd {
		return kernel{}, &PlanMismatchError{Stage: l.stage, Field: "Vdd", Plan: p.Vdd, Engine: vdd}
	}
	if p.AreaCm2 != lx*ly {
		return kernel{}, &PlanMismatchError{Stage: l.stage, Field: "area", Plan: p.AreaCm2, Engine: lx * ly}
	}
	if rx != nil {
		return e.neutronKernel(rx), nil
	}
	return e.directKernel(ctx, p.Species)
}

// RunLedgerCtx is the engine's Eq. 8 integration of a ledger its caller
// owns: it restores l from l's checkpoint store, runs every bin l still
// lacks, and returns l's FIT with the totals checked by the guard. rx
// selects the strike kernel: nil for the plan species' direct ionization
// (α, p), the reaction model for the neutron forced interaction. The run
// reports under the "fit/<name>" span, one child span per computed bin,
// and on Config.Progress; restored bins count as done. The plan must be
// this engine's (*PlanMismatchError otherwise).
//
// Cancellation: ctx is checked before every bin and every cancelCheckEvery
// particles inside it; the error wraps ctx.Err() with the stage identity.
// Each completed bin is in l (and l's store) before the next starts, so a
// rerun over a ledger on the same store resumes bit-identically; a record
// that fails the ledger's restore checks fails the stage.
func (e *Engine) RunLedgerCtx(ctx context.Context, l *Ledger, rx *neutron.Reactions) (FITResult, error) {
	k, err := e.ledgerKernel(ctx, l, rx)
	if err != nil {
		return FITResult{}, err
	}
	p := l.Plan()
	fitSpan := e.cfg.Metrics.span(l.stage)
	defer fitSpan.End()
	tracker := obs.NewTracker(e.cfg.Progress, l.stage, int64(len(p.Bins)*p.ItersPerBin), 0)
	defer tracker.Finish()
	if err := l.Restore(); err != nil {
		return FITResult{}, err
	}
	for _, pt := range l.FIT().Points {
		tracker.Add(int64(pt.Strikes))
	}
	if err := e.runBins(ctx, k, l, 0, len(p.Bins), fitSpan, tracker); err != nil {
		return FITResult{}, err
	}

	res := l.FIT()
	if g := e.cfg.Guard; g.Enabled() {
		for _, c := range []struct {
			name string
			v    float64
		}{
			{"TotalFIT", res.TotalFIT}, {"SEUFIT", res.SEUFIT},
			{"MBUFIT", res.MBUFIT}, {"TotalFITErr", res.TotalFITErr},
		} {
			if err := g.NonNegativeFinite(l.stage, c.name, c.v); err != nil {
				return FITResult{}, err
			}
		}
	}
	return res, nil
}

// RunShardCtx runs one shard of l's α/p plan: the bins in [from, to) that
// l does not hold yet, with no restore, span or progress — the unit of
// work a distributed worker computes for the coordinator that owns the
// job's ledger. The bins are bit-identical to the ones RunLedgerCtx
// computes for the same plan. The plan must be this engine's
// (*PlanMismatchError otherwise).
func (e *Engine) RunShardCtx(ctx context.Context, l *Ledger, from, to int) error {
	k, err := e.ledgerKernel(ctx, l, nil)
	if err != nil {
		return err
	}
	return e.runBins(ctx, k, l, from, to, nil, nil)
}

// ownPlan is the plan FITCtx and NeutronFITCtx run: this engine's Vdd,
// area and Config.FITRelErr, with the seed schedule pre-drawn from seed.
func (e *Engine) ownPlan(name string, sp phys.Species, bins []spectra.EnergyBin, itersPerBin int, seed uint64) BinPlan {
	lx, ly := e.arr.DimsCm()
	return BinPlan{Name: name, Species: sp, Vdd: e.cfg.Char.SupplyVoltage(), Bins: bins, Seeds: FITSeedSchedule(seed, len(bins)),
		ItersPerBin: itersPerBin, RelErr: e.cfg.FITRelErr, AreaCm2: lx * ly}
}

// runOwnPlan is the store-less library form of RunLedgerCtx behind FITCtx
// and NeutronFITCtx: a fresh ledger of the engine's own plan, with no
// checkpoint store and no BinDone stream.
func (e *Engine) runOwnPlan(ctx context.Context, plan BinPlan, rx *neutron.Reactions) (FITResult, error) {
	l, err := NewLedger(plan, nil, nil)
	if err != nil {
		return FITResult{}, err
	}
	return e.RunLedgerCtx(ctx, l, rx)
}
