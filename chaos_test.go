package finser

import (
	"context"
	"errors"
	"math"
	"testing"
)

// poisonGrid corrupts every single-strike POF value in the LUT to NaN —
// standing in for bit rot, a torn write, or a bad load slipping past the
// boundary checks. The chaos tests arm it behind a fault-injection hook so
// the corruption lands mid-run, after the engine has already produced good
// particles.
func poisonGrid(g *GridLUT) {
	for a := range g.Single {
		for i := range g.Single[a] {
			g.Single[a][i] = math.NaN()
		}
	}
}

// chaosEngine builds a single-worker engine and a private GridLUT copy of
// the shared characterization for it to look strikes up in, with the LUT
// poisoned at the 25th particle of the worker fan-out. One worker
// keeps the mutation race-free: the corrupting callback runs on the same
// goroutine that reads the LUT.
func chaosEngine(t *testing.T, mode GuardMode, reg *Metrics) (*Engine, *GridLUT) {
	t.Helper()
	grid, err := BuildGridLUT(sharedFlow(t).Char, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults := NewFaultHooks()
	faults.CallAt(FaultSiteParticle, 25, func() { poisonGrid(grid) })
	eng, err := NewEngine(EngineConfig{
		Tech:    Default14nmSOI(),
		Rows:    9,
		Cols:    9,
		Workers: 1,
		Faults:  faults,
		Guard:   NewGuard(mode, reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, grid
}

// TestChaosCorruptedLUTStrictFailsBeforeOutput: with the LUT corrupted
// mid-run, a strict guard must fail the stage with a typed InvariantError
// naming the invariant and the stage — a NaN must never reach the POF (and
// hence FIT) output. Every strike consumer is held to this: the direct-
// ionization POF point, the neutron FIT, the MBU statistics and the sampled
// tracks.
func TestChaosCorruptedLUTStrictFailsBeforeOutput(t *testing.T) {
	nSpec, err := NewNeutronSpectrum(1)
	if err != nil {
		t.Fatal(err)
	}
	nBins, err := Bins(nSpec, 2, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(eng *Engine, grid *GridLUT) (any, error)
	}{
		{"alpha POF", func(eng *Engine, grid *GridLUT) (any, error) {
			return eng.POFAtEnergyCtx(context.Background(), grid, Alpha, 1, 20000, 1)
		}},
		{"neutron FIT", func(eng *Engine, grid *GridLUT) (any, error) {
			return eng.NeutronFITCtx(context.Background(), grid, nSpec, NewNeutronReactions(), nBins, 20000, 1)
		}},
		{"MBU stats", func(eng *Engine, grid *GridLUT) (any, error) {
			return eng.MBUStatsAtEnergyCtx(context.Background(), grid, Alpha, 1, 20000, 6, 1)
		}},
		{"sample tracks", func(eng *Engine, grid *GridLUT) (any, error) {
			// The sequential track loop hits no fault site: corrupt up front.
			poisonGrid(grid)
			return eng.SampleTracksCtx(context.Background(), grid, Alpha, 1, 2000, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewMetrics()
			eng, grid := chaosEngine(t, GuardStrict, reg)
			pt, err := tc.run(eng, grid)
			if err == nil {
				t.Fatalf("corrupted LUT produced a result without error: %+v", pt)
			}
			var inv *InvariantError
			if !errors.As(err, &inv) {
				t.Fatalf("error is %T (%v), want *InvariantError", err, err)
			}
			if inv.Invariant != "pof-range" {
				t.Errorf("invariant = %q, want pof-range", inv.Invariant)
			}
			if inv.Stage != "core.strike" {
				t.Errorf("stage = %q, want core.strike", inv.Stage)
			}
			if !math.IsNaN(inv.Value) {
				t.Errorf("offending value = %v, want NaN", inv.Value)
			}
		})
	}
}

// TestChaosCorruptedLUTWarnCompletesAndCounts: the same corruption under a
// warn guard must let the run complete while counting every violation in
// the metrics registry.
func TestChaosCorruptedLUTWarnCompletesAndCounts(t *testing.T) {
	reg := NewMetrics()
	eng, grid := chaosEngine(t, GuardWarn, reg)
	if _, err := eng.POFAtEnergyCtx(context.Background(), grid, Alpha, 1, 20000, 1); err != nil {
		t.Fatalf("warn mode failed the run: %v", err)
	}
	if n := reg.Counter("guard/violations").Value(); n == 0 {
		t.Error("no guard violations counted despite corrupted LUT")
	}
	if n := reg.Counter("guard/violations/pof-range").Value(); n == 0 {
		t.Error("pof-range violations not counted per invariant")
	}
}

// TestChaosHealthyRunIsGuardClean: strict guarding of an uncorrupted run
// must neither fail nor count violations — the invariants hold on healthy
// physics, so guards can stay on in production.
func TestChaosHealthyRunIsGuardClean(t *testing.T) {
	reg := NewMetrics()
	grid, err := BuildGridLUT(sharedFlow(t).Char, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Workers: 1, Guard: NewGuard(GuardStrict, reg, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.POFAtEnergyCtx(context.Background(), grid, Alpha, 1, 10000, 1); err != nil {
		t.Fatalf("strict guard tripped on a healthy run: %v", err)
	}
	if n := reg.Counter("guard/violations").Value(); n != 0 {
		t.Errorf("healthy run counted %d violations", n)
	}
}
