package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"finser/internal/faultinject"
	"finser/internal/neutron"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/spectra"
	"finser/internal/sram"
	"finser/internal/stats"
)

// Every Monte-Carlo estimate in core runs through the two pieces in this
// file: one worker fan-out (fanOut) and one bin runner (runBins). The only
// per-species difference is the strike kernel — direct ionization for α
// and p, the forced nuclear interaction for neutrons. Only the cell POF
// lookup depends on the supply voltage, so every estimate charges a
// strike's cells once and looks them up in each of its cell models.

// kernel is one species' strike: a single Monte-Carlo trial at energyMeV.
// charge opens the strike in scr, charges its cells and closes them
// (closeCells), returning the trial's probability weight (1 for direct
// ionization, the forced interaction's probability for neutrons); the
// struck cells then stay in scr for lookup in any number of cell models.
// name labels the species in stage names ("fit/<name>") and errors.
type kernel struct {
	name   string
	charge func(src *rng.Source, energyMeV float64, scr *strikeScratch) (float64, error)
}

// directKernel is the α/p kernel. It resolves the deposit mode up front
// (yieldTable), so the hot loop never touches the table cache. Each
// strike's stream is keyed per strike and its track is its last draw, so
// a track that crosses no sensitive fin skips its transport.
func (e *Engine) directKernel(ctx context.Context, sp phys.Species) (kernel, error) {
	yieldTab, err := e.yieldTable(ctx, sp)
	if err != nil {
		return kernel{}, err
	}
	return kernel{name: sp.String(), charge: func(src *rng.Source, energyMeV float64, scr *strikeScratch) (float64, error) {
		return 1, e.chargeStrike(src, sp, energyMeV, e.sampleRay(src, sp), yieldTab, true, scr)
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

// chunksIn is the number of strikeChunk chunks strikes [from, to) fill.
func chunksIn(from, to int) int {
	return max(to-from+strikeChunk-1, 0) / strikeChunk
}

// fanOut is the one Monte-Carlo worker fan-out in core. It runs strikes
// [from, to) of the estimate keyed by seed: strike i draws from the random
// stream keyed by (seed, i), and consecutive strikes share one accumulator
// per strikeChunk, chunk c's starting as newAcc(c). Workers take chunks
// from a shared counter and call trial once per strike with their scratch
// and the chunk's accumulator; trial reports how many cells the strike
// charged. The accumulators come back in chunk order, so merging them in
// slice order makes every estimate a pure function of (seed, from, to),
// whatever the worker count. Workers check ctx every cancelCheckEvery
// strikes and hit FaultSiteParticle before each one. A worker panic is
// recovered into a stack-carrying *faultinject.PanicError that fails this
// estimate instead of the process; on cancellation the error wraps
// ctx.Err(). An empty range is an error, so no entry point reports an
// estimate over zero strikes. hits counts the strikes that charged at
// least one cell; the engine metrics record the run.
func fanOut[A any](ctx context.Context, e *Engine, from, to int, seed uint64, newAcc func(c int) A, trial func(src *rng.Source, scr *strikeScratch, acc *A) (struck int, err error)) (accs []A, hits int, err error) {
	iters := to - from
	if iters <= 0 {
		return nil, 0, fmt.Errorf("empty strike range [%d,%d): need at least one strike", from, to)
	}
	chunks := chunksIn(from, to)
	workers := min(e.cfg.Workers, chunks)

	m := e.m
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
			var acc A
			h, n := 0, 0
		chunkLoop:
			for c := int(next.Add(1) - 1); c < chunks; c = int(next.Add(1) - 1) {
				acc = newAcc(c)
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
						scr.tally.countStruck(struck)
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

// modelTally is one cell model's running weighted POF moments over a
// chunk.
type modelTally struct {
	tot, seu, mbu stats.Welford
}

// chunkTally is one chunk's tallies: the trials' weights, and one
// modelTally per cell model of the estimate.
type chunkTally struct {
	weight stats.Welford
	models []modelTally
}

// estimate runs strikes [from, to) of the kernel's estimate keyed by seed
// at one energy through the fan-out: it charges each strike's cells once,
// looks them up in every model, and merges the chunk tallies in chunk
// order. It returns one POF point per model, each bit-identical to the
// model's estimate on its own, and the mean trial weight. A failure that
// belongs to one model (its cell POF or point under the guard) is a
// *VddError.
func (e *Engine) estimate(ctx context.Context, k kernel, models []sram.POFProvider, energyMeV float64, from, to int, seed uint64) ([]POFPoint, float64, error) {
	iters, n := to-from, len(models)
	// Every chunk's model tallies come from one allocation; a spare tally
	// between chunks keeps two workers' chunks off one cache line.
	stride := n + 1
	buf := make([]modelTally, chunksIn(from, to)*stride)
	accs, hits, err := fanOut(ctx, e, from, to, seed, func(c int) chunkTally {
		return chunkTally{models: buf[c*stride : c*stride+n]}
	}, func(src *rng.Source, scr *strikeScratch, a *chunkTally) (int, error) {
		w, err := k.charge(src, energyMeV, scr)
		if err != nil {
			return 0, err
		}
		for j, m := range models {
			o, err := e.lookup(m, scr)
			if err != nil {
				return 0, vddError(m, err)
			}
			t := &a.models[j]
			t.tot.Add(w * o.pofTot)
			t.seu.Add(w * o.pofSEU)
			t.mbu.Add(w * o.pofMBU)
		}
		a.weight.Add(w)
		return len(scr.touched), nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("core: POF %s @%g MeV: %w", k.name, energyMeV, err)
	}
	var weight stats.Welford
	for i := range accs {
		weight.Merge(accs[i].weight)
	}
	pts := make([]POFPoint, n)
	for j, m := range models {
		var t modelTally
		for i := range accs {
			c := &accs[i].models[j]
			t.tot.Merge(c.tot)
			t.seu.Merge(c.seu)
			t.mbu.Merge(c.mbu)
		}
		pts[j] = POFPoint{
			EnergyMeV: energyMeV,
			Tot:       t.tot.Mean(),
			SEU:       t.seu.Mean(),
			MBU:       t.mbu.Mean(),
			TotStdErr: t.tot.StdErr(),
			Strikes:   iters,
			HitFrac:   float64(hits) / float64(iters),
		}
		if err := checkPOFPoint(e.cfg.Guard, "core.pof", pts[j]); err != nil {
			return nil, 0, vddError(m, err)
		}
	}
	return pts, weight.Mean(), nil
}

// runBins is the one bin runner. It runs the bins in [from, to) of the
// runs' shared plan, each for the runs whose ledger lacks it, sampling
// flat or adaptively per the plan's tolerance. Batch b of a bin is traced
// once and looked up in every run still open; each run's stopping rule
// reads only its own estimator, and a run that stops completes the bin
// into its ledger at once, in run order. A run's bin i is a pure function
// of (config, its cell model, seeds[i]), so any split of the range or of
// the runs — shards, resumed runs, a solo run — reproduces it bit for bit.
// Bin spans hang under span and each completed bin's strikes count on
// tracker (nil disables either).
func (e *Engine) runBins(ctx context.Context, k kernel, runs []LedgerRun, from, to int, span *obs.Span, tracker *obs.Tracker) error {
	p, stage := runs[0].Ledger.Plan(), runs[0].Ledger.stage
	if from < 0 || to > len(p.Bins) || from >= to {
		return fmt.Errorf("core: POF bins: bad shard range [%d,%d) over %d bins", from, to, len(p.Bins))
	}
	batch := p.ItersPerBin
	var tols []float64
	if p.RelErr > 0 {
		batch, tols = adaptiveBatchSize(p.ItersPerBin), adaptiveTols(p.Bins, p.RelErr)
	}
	open := make([]int, 0, len(runs)) // indices of the runs still sampling the bin
	models := make([]sram.POFProvider, 0, len(runs))
	ests := make([]BinEstimator, len(runs))
	for i := from; i < to; i++ {
		open = open[:0]
		for r := range runs {
			if !runs[r].Ledger.Done(i) {
				open = append(open, r)
				ests[r] = BinEstimator{}
			}
		}
		if len(open) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: %s bin %d: %w", stage, i, err)
		}
		binSpan := span.Child("bin") // one name, so span sets do not grow with bin plans
		for b := 0; len(open) > 0; b++ {
			models = models[:0]
			for _, r := range open {
				models = append(models, runs[r].Char)
			}
			pts, _, err := e.estimate(ctx, k, models, p.Bins[i].Rep, b*batch, (b+1)*batch, p.Seeds[i])
			if err != nil {
				binSpan.End()
				return fmt.Errorf("core: %s bin %d: %w", stage, i, err)
			}
			still := open[:0]
			for j, r := range open {
				pt, conv, stop := pts[j], BinConv{}, true
				if tols != nil {
					pt, conv, stop = e.adaptiveStep(&ests[r], pts[j], p.ItersPerBin, tols[i])
				}
				if !stop {
					still = append(still, r)
					continue
				}
				if err := runs[r].Ledger.Complete(i, []POFPoint{pt}, []BinConv{conv}); err != nil {
					binSpan.End()
					return vddError(runs[r].Char, err)
				}
				tracker.Add(int64(pt.Strikes))
			}
			open = still
		}
		binSpan.End()
	}
	return nil
}

// PlanMismatchError reports a bin plan handed to a cell model or engine it
// was not made for: the plan's Vdd is not the one its cell model was
// characterized at, or its Eq. 8 area is not the engine's array. Running
// it would file one cell's POFs under another's voltage, so the engine
// refuses it before it restores or runs a bin. Match with errors.As.
type PlanMismatchError struct {
	Stage string // "fit/<name>"
	Field string // "Vdd" or "area"
	// Plan is the plan's value; Engine is the cell model's Vdd (V) or the
	// engine's area (cm²).
	Plan, Engine float64
}

func (e *PlanMismatchError) Error() string {
	if e.Field == "Vdd" {
		return fmt.Sprintf("core: %s: the plan is for Vdd %g V, but its cell model was characterized at %g V", e.Stage, e.Plan, e.Engine)
	}
	return fmt.Sprintf("core: %s: the plan's %s is %g, the engine's %g", e.Stage, e.Field, e.Plan, e.Engine)
}

// VddError marks a failure of a bin run that belongs to one of its cell
// models: its plan, its checkpoint record, one of its cell POFs or points
// under the guard, or its FIT totals. Vdd is that model's supply voltage.
// Failures every model shares — cancellation, a particle fault, a deposit
// or charge-conservation guard — are not wrapped. The message is the
// wrapped error's; match with errors.As.
type VddError struct {
	Vdd float64
	Err error
}

func (e *VddError) Error() string { return e.Err.Error() }

func (e *VddError) Unwrap() error { return e.Err }

// vddError marks err as belonging to the voltage of cell model m.
func vddError(m sram.POFProvider, err error) error {
	return &VddError{Vdd: m.SupplyVoltage(), Err: err}
}

// ledgerKernel checks that the runs share one plan but for Vdd, that each
// plan belongs to its run's cell model and to this engine, and returns the
// runs' strike kernel: the forced neutron interaction of rx when rx is
// non-nil, else the plan species' direct ionization.
func (e *Engine) ledgerKernel(ctx context.Context, runs []LedgerRun, rx *neutron.Reactions) (kernel, error) {
	if len(runs) == 0 {
		return kernel{}, errors.New("core: FIT needs at least one ledger")
	}
	p0 := runs[0].Ledger.Plan()
	lx, ly := e.arr.DimsCm()
	for _, r := range runs {
		p, stage := r.Ledger.Plan(), r.Ledger.stage
		if r.Char == nil {
			return kernel{}, fmt.Errorf("core: %s at %g V: the run has no cell model (nil Char)", stage, p.Vdd)
		}
		if vdd := r.Char.SupplyVoltage(); p.Vdd != vdd {
			return kernel{}, vddError(r.Char, &PlanMismatchError{Stage: stage, Field: "Vdd", Plan: p.Vdd, Engine: vdd})
		}
		if p.AreaCm2 != lx*ly {
			return kernel{}, vddError(r.Char, &PlanMismatchError{Stage: stage, Field: "area", Plan: p.AreaCm2, Engine: lx * ly})
		}
		if p.Name != p0.Name || p.Species != p0.Species || p.ItersPerBin != p0.ItersPerBin || p.RelErr != p0.RelErr ||
			!slices.Equal(p.Bins, p0.Bins) || !slices.Equal(p.Seeds, p0.Seeds) {
			return kernel{}, vddError(r.Char, fmt.Errorf("core: %s at %g V: a shared bin run needs one plan but for Vdd, and this one differs from the one at %g V", stage, p.Vdd, p0.Vdd))
		}
	}
	if rx != nil {
		return e.neutronKernel(rx), nil
	}
	return e.directKernel(ctx, p0.Species)
}

// LedgerRun is one voltage's share of a bin run (RunLedgersCtx): a ledger,
// and the cell POF model characterized at its plan's Vdd.
type LedgerRun struct {
	Ledger *Ledger
	Char   sram.POFProvider
}

// RunLedgersCtx is the engine's one Eq. 8 integration of ledgers its caller
// owns, over one or more voltages at once, as a Vdd sweep runs them. It
// restores every run's ledger from its checkpoint store, runs every bin a
// ledger still lacks, and returns each run's FIT with the totals checked by
// the guard. The runs' plans must agree in everything but Vdd and
// checkpoint prefix, each plan's Vdd must be its run's Char's and its area
// this engine's (a *PlanMismatchError otherwise), and a run with a nil
// Char is an error. Only the cell POF
// lookups depend on the voltage, so each strike is traced once and looked
// up in the cell model of every run whose ledger lacks the bin. Every
// run's FIT, convergence records, checkpoint record and BinDone events are
// bit-identical to its own run alone; BinDone events interleave the runs in
// run order. A failure that belongs to one run is a *VddError naming its
// voltage. rx selects the strike kernel: nil for the plan species' direct
// ionization (α, p), the reaction model for the neutron forced
// interaction. The run reports under the "fit/<name>" span, one
// "fit/<name>/bin" child span per computed bin, and on Config.Progress;
// restored bins count as done.
//
// Cancellation: ctx is checked before every bin and every cancelCheckEvery
// particles inside it; the error wraps ctx.Err() with the stage identity.
// Each completed bin is in its ledger (and the ledger's store) before the
// next starts, so a rerun over ledgers on the same store resumes
// bit-identically; a record that fails the ledger's restore checks fails
// the stage.
func (e *Engine) RunLedgersCtx(ctx context.Context, runs []LedgerRun, rx *neutron.Reactions) ([]FITResult, error) {
	k, err := e.ledgerKernel(ctx, runs, rx)
	if err != nil {
		return nil, err
	}
	p, stage := runs[0].Ledger.Plan(), runs[0].Ledger.stage
	fitSpan := e.cfg.Metrics.StartSpan(stage)
	defer fitSpan.End()
	tracker := obs.NewTracker(e.cfg.Progress, stage, int64(len(runs)*len(p.Bins)*p.ItersPerBin), 0)
	defer tracker.Finish()
	for _, r := range runs {
		if err := r.Ledger.Restore(); err != nil {
			return nil, vddError(r.Char, err)
		}
		for _, pt := range r.Ledger.FIT().Points {
			tracker.Add(int64(pt.Strikes))
		}
	}
	if err := e.runBins(ctx, k, runs, 0, len(p.Bins), fitSpan, tracker); err != nil {
		return nil, err
	}

	out := make([]FITResult, len(runs))
	for i, r := range runs {
		res := r.Ledger.FIT()
		if g := e.cfg.Guard; g.Enabled() {
			for _, c := range []struct {
				name string
				v    float64
			}{
				{"TotalFIT", res.TotalFIT}, {"SEUFIT", res.SEUFIT},
				{"MBUFIT", res.MBUFIT}, {"TotalFITErr", res.TotalFITErr},
			} {
				if err := g.NonNegativeFinite(stage, c.name, c.v); err != nil {
					return nil, vddError(r.Char, err)
				}
			}
		}
		out[i] = res
	}
	return out, nil
}

// RunShardCtx runs one shard of run's α/p plan: the bins in [from, to)
// that its ledger does not hold yet, looked up in its cell model, with no
// restore, span or progress — the unit of work a distributed worker
// computes for the coordinator that owns the job's ledger. The bins are
// bit-identical to the ones RunLedgersCtx computes for the same run. The
// plan must belong to the run's model and this engine (*PlanMismatchError
// otherwise), and a run with a nil Char is an error.
func (e *Engine) RunShardCtx(ctx context.Context, run LedgerRun, from, to int) error {
	runs := []LedgerRun{run}
	k, err := e.ledgerKernel(ctx, runs, nil)
	if err != nil {
		return err
	}
	return e.runBins(ctx, k, runs, from, to, nil, nil)
}

// ownPlan is the flat-budget plan FITCtx and NeutronFITCtx run in cell
// model m: m's Vdd and this engine's area, with the seed schedule pre-drawn
// from seed.
func (e *Engine) ownPlan(m sram.POFProvider, name string, sp phys.Species, bins []spectra.EnergyBin, itersPerBin int, seed uint64) BinPlan {
	lx, ly := e.arr.DimsCm()
	return BinPlan{Name: name, Species: sp, Vdd: m.SupplyVoltage(), Bins: bins, Seeds: FITSeedSchedule(seed, len(bins)),
		ItersPerBin: itersPerBin, AreaCm2: lx * ly}
}

// runOwnPlan is the store-less library form of RunLedgersCtx behind FITCtx
// and NeutronFITCtx: one run of a fresh ledger of plan in cell model m,
// with no checkpoint store and no BinDone stream.
func (e *Engine) runOwnPlan(ctx context.Context, m sram.POFProvider, plan BinPlan, rx *neutron.Reactions) (FITResult, error) {
	l, err := NewLedger(plan, nil, nil)
	if err != nil {
		return FITResult{}, err
	}
	res, err := e.RunLedgersCtx(ctx, []LedgerRun{{Ledger: l, Char: m}}, rx)
	if err != nil {
		return FITResult{}, err
	}
	return res[0], nil
}
