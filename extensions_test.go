package finser

import (
	"context"
	"math"
	"reflect"
	"sort"
	"testing"

	"finser/internal/core"
)

// Integration tests for the public API surface beyond the paper's core
// flow: neutron SER, MBU/ECC analysis, deposit-mode selection, and
// altitude scaling.

// planFIT runs a store-less ledger of the named plan that Engine.FITCtx
// (rx nil) or NeutronFITCtx runs in model m, at tolerance relErr, through
// RunLedgersCtx: with relErr > 0, the adaptive form of either.
func planFIT(ctx context.Context, eng *Engine, m POFProvider, name string, sp Species, rx *NeutronReactions, bins []EnergyBin, itersPerBin int, seed uint64, relErr float64) (FITResult, error) {
	lx, ly := eng.Array().DimsCm()
	l, err := core.NewLedger(core.BinPlan{
		Name: name, Species: sp, Vdd: m.SupplyVoltage(), Bins: bins, Seeds: core.FITSeedSchedule(seed, len(bins)),
		ItersPerBin: itersPerBin, RelErr: relErr, AreaCm2: lx * ly,
	}, nil, nil)
	if err != nil {
		return FITResult{}, err
	}
	res, err := eng.RunLedgersCtx(ctx, []core.LedgerRun{{Ledger: l, Char: m}}, rx)
	if err != nil {
		return FITResult{}, err
	}
	return res[0], nil
}

func TestNeutronFacade(t *testing.T) {
	res := sharedFlow(t)
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewNeutronSpectrum(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewNeutronSpectrum(0); err == nil {
		t.Error("zero neutron scale accepted")
	}
	bins, err := Bins(spec, 2, 1000, 6)
	if err != nil {
		t.Fatal(err)
	}
	nRes, err := eng.NeutronFITCtx(context.Background(), res.Char, spec, NewNeutronReactions(), bins, 15000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nRes.TotalFIT <= 0 {
		t.Fatal("neutron FIT zero through the facade")
	}
	// SOI suppression: neutron FIT well below alpha FIT.
	if nRes.TotalFIT >= res.Alpha.TotalFIT {
		t.Errorf("neutron FIT %v not below alpha %v", nRes.TotalFIT, res.Alpha.TotalFIT)
	}
}

// TestNeutronFITCtxPlan pins the neutron stage's plan and its one shared
// run: over a sweep's 0.7 and 1.1 V results, NeutronFITCtx gives each
// voltage the sea-level spectrum ×1 over 10 bins of 2–1000 MeV seeded
// Seed+3 in its own characterization, bit for bit: Engine.NeutronFITCtx
// flat, and that plan run through RunLedgersCtx adaptive. It checkpoints
// each voltage as the stage "vdd<V>/fit/neutron", reports one
// flow/fit-neutron span, and traces each strike once: the particle count
// is the per-bin largest voltage's.
func TestNeutronFITCtxPlan(t *testing.T) {
	ctx := context.Background()
	spec, err := NewNeutronSpectrum(1)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := Bins(spec, 2, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	c11 := smallFlowConfig()
	c11.Vdd = 1.1
	char11, err := CharacterizeFlowCtx(ctx, c11)
	if err != nil {
		t.Fatal(err)
	}
	sweep := []*FlowResult{sharedFlow(t), {Vdd: 1.1, Char: char11}}
	vdds := []float64{0.7, 1.1}
	for _, relErr := range []float64{0, 0.1} {
		cfg := smallFlowConfig()
		cfg.ItersPerBin = 1000
		cfg.FITRelErr = relErr
		store, err := CreateCheckpoint(t.TempDir()+"/neutron.ck.json", cfg, vdds)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Checkpoint = store
		cfg.Obs = NewMetrics()
		got, err := NeutronFITCtx(ctx, cfg, sweep)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := NewEngine(EngineConfig{
			Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range sweep {
			var want FITResult
			if relErr == 0 {
				want, err = eng.NeutronFITCtx(ctx, r.Char, spec, NewNeutronReactions(), bins, cfg.ItersPerBin, cfg.Seed+3)
			} else {
				want, err = planFIT(ctx, eng, r.Char, "neutron", spec.Species(), NewNeutronReactions(), bins, cfg.ItersPerBin, cfg.Seed+3, relErr)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Errorf("relErr %g: NeutronFITCtx at %g V differs from the documented plan", relErr, r.Vdd)
			}
		}
		st := store.Stages()
		sort.Strings(st)
		if want := []string{"vdd0.7/fit/neutron", "vdd1.1/fit/neutron"}; !reflect.DeepEqual(st, want) {
			t.Errorf("relErr %g: checkpoint stages %v, want %v", relErr, st, want)
		}
		snap := cfg.Obs.Snapshot()
		spans := int64(0)
		for _, sp := range snap.Spans {
			if sp.Path == "flow/fit-neutron" {
				spans += sp.Count
			}
		}
		if spans != 1 {
			t.Errorf("relErr %g: %d flow/fit-neutron spans, want 1", relErr, spans)
		}
		traced := 0
		for b := range bins {
			traced += max(got[0].Points[b].Strikes, got[1].Points[b].Strikes)
		}
		if n := snap.Counters["core.particles_generated"]; n != int64(traced) {
			t.Errorf("relErr %g: %d particles generated, want %d (each strike traced once)", relErr, n, traced)
		}
	}
}

func TestMBUAndECCFacade(t *testing.T) {
	res := sharedFlow(t)
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := mustMBU(t, eng, res.Char, Alpha, 1, 30000, 6, 5)
	if rep.TotalPairWeight() <= 0 {
		t.Fatal("no MBU pairs through the facade")
	}
	analyses, err := ECCInterleaveSweep(rep, []int{1, 4}, true)
	if err != nil {
		t.Fatal(err)
	}
	if analyses[0].UncorrectableShare <= analyses[1].UncorrectableShare {
		t.Error("interleaving did not reduce the uncorrectable share")
	}
	residual := ResidualMBUFIT(res.Alpha.MBUFIT, analyses[1])
	if residual < 0 || residual > res.Alpha.MBUFIT {
		t.Errorf("residual FIT %v outside [0, MBU FIT]", residual)
	}
	if _, err := AnalyzeECC(rep, ECCScheme{Interleave: 0}); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestDepositModeFacade(t *testing.T) {
	res := sharedFlow(t)
	lutEng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Deposits: DepositLUT, LUTIters: 2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := POFCurveCtx(context.Background(), lutEng, res.Char, Alpha, []float64{1}, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Tot <= 0 {
		t.Error("LUT deposit mode produced zero POF via the facade")
	}
}

func TestAltitudeScaleFacade(t *testing.T) {
	if AltitudeScale(0) != 1 {
		t.Error("sea level scale should be 1")
	}
	denver := AltitudeScale(1600)
	if denver <= 1 {
		t.Error("altitude scale should exceed 1 above sea level")
	}
	// Feeds directly into the proton spectrum.
	p, err := NewProtonSpectrum(denver)
	if err != nil {
		t.Fatal(err)
	}
	p0, _ := NewProtonSpectrum(1)
	r := p.DifferentialFlux(10) / p0.DifferentialFlux(10)
	if math.Abs(r-denver) > 1e-9 {
		t.Errorf("spectrum scale %v != altitude scale %v", r, denver)
	}
}

func TestAdaptiveFacade(t *testing.T) {
	res := sharedFlow(t)
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := NewAlphaSpectrum(DefaultAlphaRate)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := Bins(spec, 0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	fit, err := planFIT(context.Background(), eng, res.Char, "alpha", Alpha, nil, bins, 40000, 9, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Conv) != len(bins) {
		t.Fatalf("adaptive FIT carries %d convergence records for %d bins", len(fit.Conv), len(bins))
	}
	for i, c := range fit.Conv {
		if !c.Converged {
			t.Errorf("bin %d did not converge in %d strikes", i, fit.Points[i].Strikes)
		}
	}
}

func TestGridLUTFacade(t *testing.T) {
	res := sharedFlow(t)
	grid, err := BuildGridLUT(res.Char, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if grid.SupplyVoltage() != res.Char.Vdd {
		t.Error("grid LUT supply voltage mismatch")
	}
	// The serialized LUT drives the engine directly.
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := POFCurveCtx(context.Background(), eng, grid, Alpha, []float64{1}, 8000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Tot <= 0 {
		t.Error("grid-LUT-driven engine gave zero POF")
	}
}

func TestScrubAndLifetimeFacade(t *testing.T) {
	sc := ScrubConfig{Words: 1 << 16, SEUFIT: 500, MBUFIT: 20, UncorrectableShare: 0.05}
	if sc.UncorrectableFIT(24) < sc.MBUFloorFIT() {
		t.Error("scrub model floor violated")
	}
	if MTTFHours(1e9) != 1 {
		t.Error("MTTF conversion wrong")
	}
	res, err := SimulateLifetime(LifetimeConfig{
		Words:              1 << 10,
		SEURatePerHour:     0.2,
		ScrubIntervalHours: 10,
		MaxHours:           1e5,
	}, 50, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 50 {
		t.Errorf("trials = %d", res.Trials)
	}
}
