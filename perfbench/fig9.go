package main

import (
	"fmt"
	"reflect"
	"time"

	"finser"
)

// fig9_sweep: the paper's Fig. 9 Vdd sweep through finser.RunVddSweepCtx,
// configured like serflow (guard warn, no metrics registry) with process
// variation and adaptive FIT at a 2% tolerance.
const (
	fig9Samples = 40
	fig9Iters   = 400_000 // flat reference budget per energy bin
	fig9RelErr  = 0.02
	fig9Workers = 2
	// fig9SweepSeconds is one sweep's nominal wall on the reference machine
	// (2 vCPU); it sizes the number of sweeps per run.
	fig9SweepSeconds = 18
)

var fig9Vdds = []float64{0.7, 0.8, 0.9, 1.0, 1.1}

func fig9Config(seed uint64) finser.FlowConfig {
	return finser.FlowConfig{
		ProcessVariation: true,
		Samples:          fig9Samples,
		ItersPerBin:      fig9Iters,
		FITRelErr:        fig9RelErr,
		Workers:          fig9Workers,
		Guard:            finser.GuardWarn,
		GuardLog:         discardGuardLog,
		Seed:             seed,
	}
}

// fig9Setup has nothing to boot; its warm-up is one small single-Vdd flow,
// which fills the lazy physics tables, the strike scratch pools and the GC
// heap.
func fig9Setup(r *run) error {
	_, err := setup(r,
		func() (struct{}, error) { return struct{}{}, nil },
		func(struct{}) {},
		func(_ struct{}, i int) error {
			cfg := fig9Config(seedFor(r.seed, streamWarm, i))
			cfg.Vdd, cfg.Samples, cfg.ItersPerBin, cfg.FITRelErr = 0.8, 8, 20_000, 0
			_, err := finser.RunFlowCtx(r.ctx, cfg)
			return err
		})
	return err
}

// fig9Sweep runs one timed sweep and checks it. It returns the results, the
// wall time, and the interval before each energy-bin result (the latency a
// user watching BinDone sees).
func fig9Sweep(r *run, seed uint64) ([]*finser.FlowResult, float64, []float64, error) {
	cfg := fig9Config(seed)
	var lat []float64
	last := time.Now()
	cfg.BinDone = func(finser.BinEvent) {
		now := time.Now()
		lat = append(lat, now.Sub(last).Seconds())
		last = now
	}
	start := last
	out, err := finser.RunVddSweepCtx(r.ctx, cfg, fig9Vdds)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, nil, fmt.Errorf("sweep: %w", err)
	}
	prev := map[string]float64{}
	for _, fr := range out {
		var p []string
		for _, sp := range []struct {
			name string
			res  finser.FITResult
		}{{"alpha", fr.Alpha}, {"proton", fr.Proton}} {
			p = append(p, fitProblems(r.ref, refKey("fig9_sweep", fr.Vdd, sp.name), sp.res)...)
			// Paper Fig. 9: FIT falls as Vdd rises.
			if last, ok := prev[sp.name]; ok && sp.res.TotalFIT >= last {
				p = append(p, fmt.Sprintf("fig9 %s FIT %g at %g V does not fall below %g", sp.name, sp.res.TotalFIT, fr.Vdd, last))
			}
			prev[sp.name] = sp.res.TotalFIT
		}
		r.check.op(p)
	}
	return out, wall, lat, nil
}

func runFig9(r *run) error {
	if err := fig9Setup(r); err != nil {
		return err
	}
	if r.trace {
		return traceFig9(r)
	}
	sweeps := opsFor(r.seconds, fig9SweepSeconds, 1)
	r.load["sweeps"] = sweeps
	r.load["vdds"] = fig9Vdds
	r.load["flow_workers"] = fig9Workers
	var lat []float64
	errs := relErrs{}
	t := startTimer()
	for k := 0; k < sweeps; k++ {
		out, _, l, err := fig9Sweep(r, seedFor(r.seed, streamTimed, k))
		if err != nil {
			return err
		}
		lat = append(lat, l...)
		for _, fr := range out {
			errs.add(fr.Vdd, fr.Alpha, fr.Proton)
		}
	}
	r.set("wall_s", t.wall())
	r.set("cpu_s", t.cpu())
	r.set("latency_p50_s", quantile(lat, 0.5))
	r.set("latency_p90_s", quantile(lat, 0.9))
	r.samples["latency_bin_results"] = len(lat)
	r.set("fit_rel_err_max", errs.max())
	return nil
}

// traceFig9 runs one timed sweep, then the same sweep decomposed into its
// public stages (CharacterizeFlowCtx, then SpeciesFITCtx per species) under
// a metrics registry. The decomposition must reproduce the sweep's FIT bit
// for bit; its stage times and the registry give the per-layer ledger.
func traceFig9(r *run) error {
	seed := seedFor(r.seed, streamTimed, 0)
	out, sweepWall, _, err := fig9Sweep(r, seed)
	if err != nil {
		return err
	}
	reg := finser.NewMetrics()
	cfg := fig9Config(seed)
	cfg.Obs = reg
	var charS, fitS float64
	unconverged := 0
	decStart := time.Now()
	for i, v := range fig9Vdds {
		c := cfg
		c.Vdd = v
		t0 := time.Now()
		char, err := finser.CharacterizeFlowCtx(r.ctx, c)
		if err != nil {
			return fmt.Errorf("characterize %g V: %w", v, err)
		}
		charS += time.Since(t0).Seconds()
		var p []string
		for _, sp := range []struct {
			sp   finser.Species
			want finser.FITResult
		}{{finser.Alpha, out[i].Alpha}, {finser.Proton, out[i].Proton}} {
			t1 := time.Now()
			got, err := finser.SpeciesFITCtx(r.ctx, c, char, sp.sp)
			if err != nil {
				return fmt.Errorf("species FIT %g V: %w", v, err)
			}
			fitS += time.Since(t1).Seconds()
			if !reflect.DeepEqual(got, sp.want) {
				p = append(p, fmt.Sprintf("decomposed %v FIT at %g V differs from RunVddSweepCtx", sp.sp, v))
			}
			for _, cv := range got.Conv {
				if !cv.Converged {
					unconverged++
				}
			}
		}
		r.check.op(p)
	}
	decWall := time.Since(decStart).Seconds()

	snap := reg.Snapshot()
	ctr := func(name string) float64 { return float64(snap.Counters[name]) }
	bins := 0
	for _, fr := range out {
		bins += len(fr.Alpha.Points) + len(fr.Proton.Points)
	}
	layerCharCircuit(r, ctr, charS/float64(len(fig9Vdds)))
	layerCore(r, ctr, fitS, 2*len(fig9Vdds))
	r.set("core.adaptive.budget_frac", ratio(ctr("core.particles_generated"), float64(bins*fig9Iters)))
	r.set("core.adaptive.unconverged_bins", float64(unconverged))
	r.set("core.adaptive.early_stops", ctr("core/adaptive/early_stops"))
	// The traced sweep's wall is its stages plus finser.self_s; the traced
	// run's overhead is that wall over the untraced sweep's.
	r.set("finser.self_s", decWall-charS-fitS)
	r.set("trace.overhead_s", decWall-sweepWall)
	r.load["sweep_wall_s"] = sweepWall
	r.load["decomposed_wall_s"] = decWall
	return nil
}

// layerCharCircuit fills the characterization and circuit-solver ledger
// from registry counters; charS is the time per characterization.
func layerCharCircuit(r *run, ctr func(string) float64, charS float64) {
	r.set("sram.characterize_s", charS)
	r.set("sram.flip_sims_per_qcrit", ratio(ctr("sram.bisection_steps"), 3*ctr("sram.variation_samples")))
	r.set("circuit.transient_steps_per_flip_sim", ratio(ctr("circuit.transient_steps"), ctr("sram.flip_sims")))
	r.set("circuit.newton_iters_per_step", ratio(ctr("circuit.newton_iters"), ctr("circuit.transient_steps")))
	r.set("circuit.step_halvings", ctr("circuit.step_halvings"))
}

// layerCore fills the array Monte-Carlo and transport ledger; fitS is the
// total species-FIT time over stages species-FIT stages.
func layerCore(r *run, ctr func(string) float64, fitS float64, stages int) {
	strikes := ctr("core.particles_generated")
	r.set("core.fit_s", fitS/float64(stages))
	r.set("core.strikes", strikes)
	r.set("core.strike_rate", ratio(strikes, fitS))
	r.set("core.hit_frac", ratio(ctr("core.hits"), strikes))
	r.set("core.worker_busy_frac", ratio(ctr("core.worker_busy_ns"), ctr("core.wall_ns")))
	r.set("transport.segments_per_ray", ratio(ctr("transport.segments_deposited"), ctr("transport.rays_traced")))
}
