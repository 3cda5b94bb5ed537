package core

import (
	"context"
	"reflect"
	"testing"

	"finser/internal/finfet"
	"finser/internal/neutron"
	"finser/internal/phys"
	"finser/internal/sram"
)

// TestEngineServesAnyCellModel: an engine holds no cell model, so each of
// the seven model-taking entries gives, on one engine whose calls
// interleave four models (0.7 and 1.1 V with process variation, 0.7 V
// nominal, and a GridLUT of the 0.7 V characterization), exactly what the
// same call gives on a fresh engine — in transport mode, and for the α/p
// entries in DepositLUT mode. Every entry must also tell the models apart,
// or the comparison would hold for an engine that ignored them.
func TestEngineServesAnyCellModel(t *testing.T) {
	ch07, ch11, chNom := fixtures(t)
	grid, err := sram.BuildGridLUT(ch07, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	models := []sram.POFProvider{ch07, ch11, chNom, grid}
	ctx := context.Background()
	rx := neutron.NewReactions()
	aSpec, aBins := alphaEnv(t, 3)
	nSpec, nBins := neutronEnv(t)
	type entry struct {
		name   string
		direct bool // an α/p entry, which the deposit mode changes
		run    func(e *Engine, m sram.POFProvider) (any, error)
	}
	entries := []entry{
		{"POFAtEnergyCtx", true, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.POFAtEnergyCtx(ctx, m, phys.Alpha, 10, 2000, 3)
		}},
		{"NeutronPOFAtEnergyCtx", false, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.NeutronPOFAtEnergyCtx(ctx, m, rx, 100, 2000, 3)
		}},
		{"MBUStatsAtEnergyCtx", true, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.MBUStatsAtEnergyCtx(ctx, m, phys.Alpha, 10, 2000, 6, 3)
		}},
		{"SampleTracksCtx", true, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.SampleTracksCtx(ctx, m, phys.Alpha, 10, 300, 3)
		}},
		{"FITCtx", true, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.FITCtx(ctx, m, aSpec, aBins, 1000, 3)
		}},
		{"NeutronFITCtx", false, func(e *Engine, m sram.POFProvider) (any, error) {
			return e.NeutronFITCtx(ctx, m, nSpec, rx, nBins, 2000, 3)
		}},
		{"RunShardCtx", true, func(e *Engine, m sram.POFProvider) (any, error) {
			plan := e.ownPlan(m, "alpha", phys.Alpha, aBins, 1000, 3)
			plan.RelErr = 0.1
			l, err := NewLedger(plan, nil, nil)
			if err != nil {
				return nil, err
			}
			if err := e.RunShardCtx(ctx, LedgerRun{Ledger: l, Char: m}, 1, 3); err != nil {
				return nil, err
			}
			return l.FIT(), nil
		}},
	}
	for _, mode := range []DepositMode{DepositTransport, DepositLUT} {
		cfg := Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Deposits: mode, LUTIters: 2000,
		}
		shared, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, en := range entries {
			if mode == DepositLUT && !en.direct {
				continue
			}
			results := make([]any, len(models))
			for i, m := range models {
				got, err := en.run(shared, m)
				if err != nil {
					t.Fatalf("mode %d, %s at %g V: %v", mode, en.name, m.SupplyVoltage(), err)
				}
				fresh, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := en.run(fresh, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("mode %d, %s, model %d: the shared engine's result differs from a fresh engine's:\n got  %+v\n want %+v", mode, en.name, i, got, want)
				}
				results[i] = got
			}
			for i := range results {
				for j := i + 1; j < len(results); j++ {
					if reflect.DeepEqual(results[i], results[j]) {
						t.Errorf("mode %d, %s: models %d and %d give the same result", mode, en.name, i, j)
					}
				}
			}
		}
	}
}
