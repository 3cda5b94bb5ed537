package finser

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
)

// TestVddSweepRejectsBadVoltageFirst: a sweep validates every voltage
// before any work, so a non-finite voltage late in the list fails it with
// a *SweepError naming that voltage over the *ConfigError, no voltage
// completed and not one characterization sample drawn.
func TestVddSweepRejectsBadVoltageFirst(t *testing.T) {
	cfg := resilienceFlowConfig()
	reg := NewMetrics()
	cfg.Obs = reg
	out, err := RunVddSweepCtx(context.Background(), cfg, []float64{0.8, math.Inf(1)})
	var se *SweepError
	if !errors.As(err, &se) || !math.IsInf(se.Vdd, 1) || se.Completed != 0 {
		t.Fatalf("err = %v, want a *SweepError at +Inf V with 0 completed", err)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) || ce.Field != "Vdd" {
		t.Errorf("err = %v, want it to wrap a Vdd *ConfigError", err)
	}
	if len(out) != 0 {
		t.Errorf("sweep returned %d results, want none", len(out))
	}
	if n := reg.Counter("sram.variation_samples").Value(); n != 0 {
		t.Errorf("sweep drew %d variation samples before failing, want 0", n)
	}
}

// TestVddSweepMatchesDecomposition: a sweep traces each strike once for
// all of its voltages, yet every voltage's FIT — points and convergence
// records — must equal that voltage's flow decomposed into its public
// stages, CharacterizeFlowCtx then SpeciesFITCtx per species, flat and
// adaptive.
func TestVddSweepMatchesDecomposition(t *testing.T) {
	vdds := []float64{0.7, 0.9, 1.1}
	ctx := context.Background()
	for _, relErr := range []float64{0, 0.1} {
		cfg := resilienceFlowConfig()
		cfg.FITRelErr = relErr
		out, err := RunVddSweepCtx(ctx, cfg, vdds)
		if err != nil {
			t.Fatalf("relErr %g: sweep: %v", relErr, err)
		}
		for i, v := range vdds {
			c := cfg
			c.Vdd = v
			char, err := CharacterizeFlowCtx(ctx, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range []struct {
				sp   Species
				want FITResult
			}{{Alpha, out[i].Alpha}, {Proton, out[i].Proton}} {
				got, err := SpeciesFITCtx(ctx, c, char, sp.sp)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, sp.want) {
					t.Errorf("relErr %g: %v FIT at %g V differs from the sweep's:\n decomposed %+v\n sweep      %+v", relErr, sp.sp, v, got, sp.want)
				}
			}
		}
	}
}

// TestVddSweepFITFaultKeepsFinishedBins: a particle fault in the proton
// stage of a checkpointed two-voltage sweep fails the whole sweep — the
// voltages share each strike, so none completes — with a *SweepError that
// wraps the fault and names the first voltage. Both voltages' alpha stages
// finished before it and are in the checkpoint, and resuming lands on the
// uninterrupted sweep's bits.
func TestVddSweepFITFaultKeepsFinishedBins(t *testing.T) {
	cfg := resilienceFlowConfig()
	vdds := []float64{0.7, 0.8}
	ctx := context.Background()
	base, err := RunVddSweepCtx(ctx, cfg, vdds)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	path := t.TempDir() + "/run.ck.json"
	store, err := CreateCheckpoint(path, cfg, vdds)
	if err != nil {
		t.Fatal(err)
	}
	errBoom := errors.New("synthetic particle fault")
	hooks := NewFaultHooks()
	// The flat alpha stage traces AlphaBins×ItersPerBin strikes once for
	// both voltages; this hit lands in the first proton bin.
	hooks.ErrorAt(FaultSiteParticle, int64(cfg.AlphaBins*cfg.ItersPerBin+cfg.ItersPerBin/2), errBoom)
	c := cfg
	c.Checkpoint, c.Faults = store, hooks
	out, err := RunVddSweepCtx(ctx, c, vdds)
	var se *SweepError
	if !errors.As(err, &se) || se.Completed != 0 || se.Vdd != vdds[0] || !errors.Is(err, errBoom) {
		t.Fatalf("err = %v, want a *SweepError at %g V with 0 completed wrapping the fault", err, vdds[0])
	}
	if len(out) != 0 {
		t.Fatalf("failed sweep returned %d results, want none", len(out))
	}

	for _, v := range vdds {
		rc := cfg
		rc.Vdd, rc.Checkpoint = v, store
		l, err := SpeciesLedger(rc, Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Restore(); err != nil {
			t.Fatal(err)
		}
		if n := len(l.FIT().Points); n != cfg.AlphaBins {
			t.Errorf("%g V: checkpoint holds %d alpha bins, want all %d", v, n, cfg.AlphaBins)
		}
	}

	resumed, err := ResumeCheckpoint(path, cfg, vdds)
	if err != nil {
		t.Fatal(err)
	}
	c = cfg
	c.Checkpoint = resumed
	again, err := RunVddSweepCtx(ctx, c, vdds)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for i := range base {
		if !reflect.DeepEqual(again[i].Alpha, base[i].Alpha) || !reflect.DeepEqual(again[i].Proton, base[i].Proton) {
			t.Errorf("%g V: resumed FIT differs from the uninterrupted sweep's", vdds[i])
		}
	}
}

// TestVddSweepNamesFailingVoltage: a FIT failure that belongs to one
// voltage — here its checkpoint record fails the restore checks — names
// that voltage in the *SweepError, not the sweep's first.
func TestVddSweepNamesFailingVoltage(t *testing.T) {
	cfg := resilienceFlowConfig()
	vdds := []float64{0.7, 0.8}
	store, err := CreateCheckpoint(t.TempDir()+"/run.ck.json", cfg, vdds)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save("vdd0.8/fit/alpha", map[string]int{"iters_per_bin": 1}); err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store
	out, err := RunVddSweepCtx(context.Background(), cfg, vdds)
	var se *SweepError
	if !errors.As(err, &se) || se.Vdd != 0.8 || se.Completed != 0 || len(out) != 0 {
		t.Fatalf("err = %v with %d results, want a *SweepError at 0.8 V with no result", err, len(out))
	}
}
