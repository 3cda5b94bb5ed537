package finser

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"finser/internal/checkpoint"
)

// resilienceFlowConfig is a deliberately small flow whose FIT stage still
// runs long enough to be interrupted mid-bin.
func resilienceFlowConfig() FlowConfig {
	return FlowConfig{
		Vdd:              0.7,
		ProcessVariation: true,
		Samples:          12,
		ItersPerBin:      1500,
		AlphaBins:        3,
		ProtonBins:       3,
		Seed:             7,
		Workers:          2,
	}
}

// TestRunFlowCtxCancelLatency is the ISSUE's latency acceptance test: a
// context cancelled mid-FIT must surface (wrapping ctx.Err()) within
// 100 ms of the cancellation.
func TestRunFlowCtxCancelLatency(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.ProcessVariation = false // fast characterization; FIT dominates
	cfg.Samples = 0
	cfg.ItersPerBin = 5_000_000 // would run for minutes if not cancelled
	cfg.Workers = 0             // all cores, the production shape

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt atomic.Int64
	hooks := NewFaultHooks()
	// Fire well inside the first alpha bin, long before it completes.
	hooks.CallAt(FaultSiteParticle, 2000, func() {
		cancelledAt.Store(time.Now().UnixNano())
		cancel()
	})
	cfg.Faults = hooks

	_, err := RunFlowCtx(ctx, cfg)
	returned := time.Now()
	if err == nil {
		t.Fatal("RunFlowCtx returned nil error after mid-FIT cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}
	if !strings.Contains(err.Error(), "FIT") {
		t.Errorf("error lost the stage identity: %v", err)
	}
	at := cancelledAt.Load()
	if at == 0 {
		t.Fatal("cancellation hook never fired")
	}
	if lat := returned.Sub(time.Unix(0, at)); lat > 100*time.Millisecond {
		t.Errorf("cancellation latency %v exceeds 100ms", lat)
	}
}

// TestWorkerPanicIsolatedCore injects a panic into an array-MC worker and
// checks it fails the stage with a stack-carrying error instead of
// crashing the process.
func TestWorkerPanicIsolatedCore(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.ItersPerBin = 800
	hooks := NewFaultHooks()
	hooks.PanicAt(FaultSiteParticle, 300, "injected array-MC panic")
	cfg.Faults = hooks

	_, err := RunFlowCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("RunFlowCtx returned nil error despite injected worker panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not carry *PanicError: %v", err)
	}
	if pe.Site != "core.worker" {
		t.Errorf("panic recovered at %q, want core.worker", pe.Site)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
	if !strings.Contains(err.Error(), "injected array-MC panic") {
		t.Errorf("panic value lost from error: %v", err)
	}
}

// TestWorkerPanicIsolatedCharacterize does the same for the
// characterization workers.
func TestWorkerPanicIsolatedCharacterize(t *testing.T) {
	cfg := resilienceFlowConfig()
	hooks := NewFaultHooks()
	hooks.PanicAt(FaultSiteSample, 3, "injected solver panic")
	cfg.Faults = hooks

	_, err := RunFlowCtx(context.Background(), cfg)
	if err == nil {
		t.Fatal("RunFlowCtx returned nil error despite injected sample panic")
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error does not carry *PanicError: %v", err)
	}
	if pe.Site != "sram.worker" {
		t.Errorf("panic recovered at %q, want sram.worker", pe.Site)
	}
	if len(pe.Stack) == 0 {
		t.Error("recovered panic carries no stack")
	}
}

// TestResumeDeterminism is the ISSUE's checkpoint acceptance test: a run
// interrupted mid-FIT and resumed from its checkpoint — under another
// worker count — must reproduce the uninterrupted result bit-identically.
func TestResumeDeterminism(t *testing.T) {
	cfg := resilienceFlowConfig()
	vdds := []float64{cfg.Vdd}
	path := t.TempDir() + "/run.ck.json"

	// Uninterrupted baseline (no checkpoint wiring at all).
	base, err := RunVddSweepCtx(context.Background(), cfg, vdds)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	// Interrupted run: cancel mid-alpha-FIT, after the first bin (1500
	// particles) has completed and been checkpointed.
	store, err := CreateCheckpoint(path, cfg, vdds)
	if err != nil {
		t.Fatalf("CreateCheckpoint: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooks := NewFaultHooks()
	hooks.CallAt(FaultSiteParticle, 2300, cancel)
	c2 := cfg
	c2.Checkpoint = store
	c2.Faults = hooks
	partial, err := RunVddSweepCtx(ctx, c2, vdds)
	if err == nil {
		t.Fatal("interrupted sweep returned nil error")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("interrupted sweep error is not *SweepError: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error does not wrap context.Canceled: %v", err)
	}
	if len(partial) != 0 {
		t.Fatalf("interrupted sweep completed %d voltages, want 0", len(partial))
	}

	// Resume on one worker instead of two and finish the run.
	c3 := cfg
	c3.Workers = 1
	store2, err := ResumeCheckpoint(path, c3, vdds)
	if err != nil {
		t.Fatalf("ResumeCheckpoint: %v", err)
	}
	if len(store2.Stages()) == 0 {
		t.Fatal("checkpoint holds no completed stages; interruption landed before any bin finished")
	}
	c3.Checkpoint = store2
	resumed, err := RunVddSweepCtx(context.Background(), c3, vdds)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}

	if len(resumed) != len(base) {
		t.Fatalf("resumed sweep has %d results, want %d", len(resumed), len(base))
	}
	for i := range base {
		assertFITEqual(t, "alpha", base[i].Alpha, resumed[i].Alpha)
		assertFITEqual(t, "proton", base[i].Proton, resumed[i].Proton)
	}
}

// TestAdaptiveResumeDeterminism is the adaptive-mode version of
// TestResumeDeterminism: a confidence-driven run interrupted mid-FIT and
// resumed from its checkpoint must reproduce the uninterrupted adaptive
// result bit-identically, convergence records included.
func TestAdaptiveResumeDeterminism(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.FITRelErr = 0.1
	vdds := []float64{cfg.Vdd}
	path := t.TempDir() + "/run.ck.json"

	base, err := RunVddSweepCtx(context.Background(), cfg, vdds)
	if err != nil {
		t.Fatalf("baseline sweep: %v", err)
	}

	// Interrupt inside the FIT stage. Every adaptive bin consumes at least
	// one batch (ItersPerBin/10 = 150 particles), so across the 6 bins the
	// run is guaranteed to reach particle 850 — and the saturated first
	// alpha bin converges (and is checkpointed) well before it.
	store, err := CreateCheckpoint(path, cfg, vdds)
	if err != nil {
		t.Fatalf("CreateCheckpoint: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hooks := NewFaultHooks()
	hooks.CallAt(FaultSiteParticle, 850, cancel)
	c2 := cfg
	c2.Checkpoint = store
	c2.Faults = hooks
	if _, err := RunVddSweepCtx(ctx, c2, vdds); err == nil {
		t.Fatal("interrupted adaptive sweep returned nil error")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep error does not wrap context.Canceled: %v", err)
	}

	store2, err := ResumeCheckpoint(path, cfg, vdds)
	if err != nil {
		t.Fatalf("ResumeCheckpoint: %v", err)
	}
	if len(store2.Stages()) == 0 {
		t.Fatal("checkpoint holds no completed stages; interruption landed before any bin finished")
	}
	c3 := cfg
	c3.Checkpoint = store2
	resumed, err := RunVddSweepCtx(context.Background(), c3, vdds)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	for i := range base {
		assertFITEqual(t, "alpha", base[i].Alpha, resumed[i].Alpha)
		assertFITEqual(t, "proton", base[i].Proton, resumed[i].Proton)
		assertConvEqual(t, "alpha", base[i].Alpha.Conv, resumed[i].Alpha.Conv)
		assertConvEqual(t, "proton", base[i].Proton.Conv, resumed[i].Proton.Conv)
	}

	// Tolerance is part of the fingerprint: the checkpoint must not be
	// resumable under a different (or flat) tolerance.
	flat := cfg
	flat.FITRelErr = 0
	if _, err := ResumeCheckpoint(path, flat, vdds); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("flat resume over adaptive checkpoint: err = %v, want ErrCheckpointMismatch", err)
	}
	tighter := cfg
	tighter.FITRelErr = 0.05
	if _, err := ResumeCheckpoint(path, tighter, vdds); !errors.Is(err, ErrCheckpointMismatch) {
		t.Errorf("different-tolerance resume: err = %v, want ErrCheckpointMismatch", err)
	}
}

// assertConvEqual requires bit-identical per-bin convergence records.
func assertConvEqual(t *testing.T, label string, a, b []BinConv) {
	t.Helper()
	if len(a) != len(b) {
		t.Errorf("%s conv count diverged: %d vs %d", label, len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("%s bin %d conv diverged:\n baseline %+v\n resumed  %+v", label, i, a[i], b[i])
		}
	}
}

// TestAdaptiveMatchesFlatReference is the accuracy half of the adaptive
// speedup claim: at a 2%% tolerance the adaptive estimate must land within
// the flat-budget reference's confidence interval (same seed, same bins).
func TestAdaptiveMatchesFlatReference(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.Vdd = 0.8
	flat, err := RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("flat reference: %v", err)
	}
	cfg.FITRelErr = 0.02
	ad, err := RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("adaptive run: %v", err)
	}
	check := func(label string, f, a FITResult) {
		if len(a.Conv) != len(a.Points) {
			t.Fatalf("%s: %d conv records for %d bins", label, len(a.Conv), len(a.Points))
		}
		diff := a.TotalFIT - f.TotalFIT
		if diff < 0 {
			diff = -diff
		}
		// 4σ combined band: failures here mean bias, not bad luck.
		band := 4 * (a.TotalFITErr + f.TotalFITErr)
		if diff > band {
			t.Errorf("%s: adaptive %g vs flat %g differ beyond noise (band %g)", label, a.TotalFIT, f.TotalFIT, band)
		}
	}
	check("alpha", flat.Alpha, ad.Alpha)
	check("proton", flat.Proton, ad.Proton)
}

// assertFITEqual requires bit-identical FIT results (exact float equality —
// the resume path must replay the identical arithmetic, not approximate it).
func assertFITEqual(t *testing.T, label string, a, b FITResult) {
	t.Helper()
	if a.TotalFIT != b.TotalFIT || a.SEUFIT != b.SEUFIT || a.MBUFIT != b.MBUFIT ||
		a.TotalFITErr != b.TotalFITErr || a.MBUToSEU != b.MBUToSEU {
		t.Errorf("%s FIT diverged after resume:\n baseline %+v\n resumed  %+v", label, a, b)
	}
	if len(a.Points) != len(b.Points) {
		t.Errorf("%s point count diverged: %d vs %d", label, len(a.Points), len(b.Points))
		return
	}
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Errorf("%s bin %d diverged after resume:\n baseline %+v\n resumed  %+v",
				label, i, a.Points[i], b.Points[i])
		}
	}
}

// TestVddSweepPartialResults checks that a fault in a later voltage
// preserves the completed voltages and names the failing one.
func TestVddSweepPartialResults(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.Samples = 10
	cfg.ItersPerBin = 300
	cfg.AlphaBins = 2
	cfg.ProtonBins = 2
	vdds := []float64{0.7, 0.65}

	errBoom := errors.New("synthetic solver failure")
	hooks := NewFaultHooks()
	// Samples=10 per voltage: hit 14 lands in the second voltage's
	// characterization.
	hooks.ErrorAt(FaultSiteSample, 14, errBoom)
	cfg.Faults = hooks

	out, err := RunVddSweepCtx(context.Background(), cfg, vdds)
	if err == nil {
		t.Fatal("sweep returned nil error despite injected failure")
	}
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("sweep error is not *SweepError: %v", err)
	}
	if se.Vdd != 0.65 {
		t.Errorf("SweepError.Vdd = %g, want 0.65", se.Vdd)
	}
	if se.Completed != 1 {
		t.Errorf("SweepError.Completed = %d, want 1", se.Completed)
	}
	if !errors.Is(err, errBoom) {
		t.Errorf("sweep error does not wrap the injected error: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("sweep preserved %d results, want 1", len(out))
	}
	if out[0].Vdd != 0.7 {
		t.Errorf("preserved result is vdd %g, want 0.7", out[0].Vdd)
	}
}

// TestFlowConfigNamedFieldValidation checks the named-field rejection of
// negative budgets and unknown patterns.
func TestFlowConfigNamedFieldValidation(t *testing.T) {
	base := FlowConfig{Vdd: 0.8}
	cases := []struct {
		name   string
		mutate func(*FlowConfig)
	}{
		{"Samples", func(c *FlowConfig) { c.Samples = -1 }},
		{"ItersPerBin", func(c *FlowConfig) { c.ItersPerBin = -5 }},
		{"Rows", func(c *FlowConfig) { c.Rows = -2 }},
		{"Cols", func(c *FlowConfig) { c.Cols = -2 }},
		{"AlphaBins", func(c *FlowConfig) { c.AlphaBins = -1 }},
		{"ProtonBins", func(c *FlowConfig) { c.ProtonBins = -1 }},
	}
	for _, tc := range cases {
		c := base
		tc.mutate(&c)
		_, err := RunFlowCtx(context.Background(), c)
		if err == nil {
			t.Errorf("%s: negative value accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.name) {
			t.Errorf("%s: error does not name the field: %v", tc.name, err)
		}
	}

	c := base
	c.Pattern = DataPattern(99)
	if _, err := RunFlowCtx(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Pattern") {
		t.Errorf("unknown pattern accepted or unnamed: %v", err)
	}

	c = base
	c.Vdd = 0
	if _, err := RunFlowCtx(context.Background(), c); err == nil || !strings.Contains(err.Error(), "Vdd") {
		t.Errorf("zero Vdd accepted or unnamed: %v", err)
	}
}

// TestConfigErrorsTyped checks that every validation failure surfaces as a
// *ConfigError naming the field — the contract the serving layer relies on
// to map caller mistakes to HTTP 400 instead of retrying them.
func TestConfigErrorsTyped(t *testing.T) {
	cases := []struct {
		field string
		cfg   FlowConfig
	}{
		{"Vdd", FlowConfig{}},
		{"Samples", FlowConfig{Vdd: 0.8, Samples: -1}},
		{"ItersPerBin", FlowConfig{Vdd: 0.8, ItersPerBin: -1}},
		{"Rows", FlowConfig{Vdd: 0.8, Rows: -1}},
		{"Cols", FlowConfig{Vdd: 0.8, Cols: -1}},
		{"AlphaBins", FlowConfig{Vdd: 0.8, AlphaBins: -1}},
		{"ProtonBins", FlowConfig{Vdd: 0.8, ProtonBins: -1}},
		{"Pattern", FlowConfig{Vdd: 0.8, Pattern: DataPattern(42)}},
		{"FITRelErr", FlowConfig{Vdd: 0.8, FITRelErr: 0.6}},
		{"FITRelErr", FlowConfig{Vdd: 0.8, FITRelErr: -0.1}},
		{"Vdd", FlowConfig{Vdd: math.NaN()}},
		{"Vdd", FlowConfig{Vdd: math.Inf(1)}},
		{"Vdd", FlowConfig{Vdd: math.Inf(-1)}},
		{"AlphaRate", FlowConfig{Vdd: 0.8, AlphaRate: -1}},
		{"AlphaRate", FlowConfig{Vdd: 0.8, AlphaRate: math.Inf(1)}},
		{"AlphaRate", FlowConfig{Vdd: 0.8, AlphaRate: math.NaN()}},
		{"ProtonScale", FlowConfig{Vdd: 0.8, ProtonScale: -1}},
		{"ProtonScale", FlowConfig{Vdd: 0.8, ProtonScale: math.Inf(1)}},
		// Above twice the 14 nm card's nominal 0.8 V.
		{"Vdd", FlowConfig{Vdd: 1.7}},
		{"Vdd", FlowConfig{Vdd: 1e308}},
		// Finite scales whose largest FIT overflows.
		{"AlphaRate", FlowConfig{Vdd: 0.8, AlphaRate: 1e308}},
		{"ProtonScale", FlowConfig{Vdd: 0.8, ProtonScale: 1e308}},
		// One past each admission bound.
		{"Rows", FlowConfig{Vdd: 0.8, Rows: 257, Cols: 256}},
		{"Rows", FlowConfig{Vdd: 0.8, Rows: 1 << 32, Cols: 1 << 32}}, // the product wraps to 0
		{"Cols", FlowConfig{Vdd: 0.8, Cols: 256*256 + 1}},
		{"AlphaBins", FlowConfig{Vdd: 0.8, AlphaBins: 4097}},
		{"AlphaBins", FlowConfig{Vdd: 0.8, AlphaBins: math.MaxInt}},
		{"ProtonBins", FlowConfig{Vdd: 0.8, ProtonBins: 4097}},
		{"Samples", FlowConfig{Vdd: 0.8, Samples: 100_001}},
		{"ItersPerBin", FlowConfig{Vdd: 0.8, ItersPerBin: 100_000_001}},
		{"Workers", FlowConfig{Vdd: 0.8, Workers: 257}},
	}
	for _, tc := range cases {
		_, err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.field)
			continue
		}
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%s: error is not *ConfigError: %v", tc.field, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("ConfigError.Field = %q, want %q (err: %v)", ce.Field, tc.field, err)
		}
	}
	got, err := (FlowConfig{Vdd: 0.8}).Validate()
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// The resolved config carries the flow's defaults.
	if got.Samples != 1000 || got.ItersPerBin != 50000 || got.AlphaBins != 12 || got.ProtonBins != 16 || got.Rows != 9 {
		t.Errorf("resolved samples/iters/bins/rows = %d/%d/%d+%d/%d, want 1000/50000/12+16/9",
			got.Samples, got.ItersPerBin, got.AlphaBins, got.ProtonBins, got.Rows)
	}
	// A config at every bound is valid and plans its 4,096 bins.
	atBounds := FlowConfig{Vdd: 0.8, Rows: 256, Cols: 256, Samples: 100_000, ItersPerBin: 100_000_000,
		AlphaBins: 4096, ProtonBins: 4096, Workers: 256}
	if _, err := atBounds.Validate(); err != nil {
		t.Fatalf("config at every bound rejected: %v", err)
	}
	for _, sp := range []Species{Alpha, Proton} {
		l, err := SpeciesLedger(atBounds, sp)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(l.Plan().Bins); n != 4096 {
			t.Errorf("%v ledger plans %d bins, want 4096", sp, n)
		}
	}
}

// TestNilCharacterizationRefused checks that the stage entries taking a
// pre-built characterization refuse a nil one by name instead of
// dereferencing it.
func TestNilCharacterizationRefused(t *testing.T) {
	cfg := FlowConfig{Vdd: 0.8, ItersPerBin: 100}
	_, fitErr := SpeciesFITCtx(context.Background(), cfg, nil, Alpha)
	_, _, shardErr := SpeciesShardPOFConvCtx(context.Background(), cfg, nil, Alpha, 0, 1)
	for _, err := range []error{fitErr, shardErr} {
		if err == nil || !strings.Contains(err.Error(), "no characterization") {
			t.Errorf("err = %v, want a refusal naming the missing characterization", err)
		}
	}
}

// TestStagedFlowMatchesRunFlow checks the serving layer's staged pipeline
// (CharacterizeFlowCtx + per-species SpeciesFITCtx) reproduces the
// monolithic RunFlowCtx bit-identically — the invariant that makes daemon
// results interchangeable with CLI results.
func TestStagedFlowMatchesRunFlow(t *testing.T) {
	cfg := resilienceFlowConfig()
	cfg.Samples = 8
	cfg.ItersPerBin = 400
	cfg.AlphaBins = 2
	cfg.ProtonBins = 2

	base, err := RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("RunFlowCtx: %v", err)
	}

	ctx := context.Background()
	char, err := CharacterizeFlowCtx(ctx, cfg)
	if err != nil {
		t.Fatalf("CharacterizeFlowCtx: %v", err)
	}
	alpha, err := SpeciesFITCtx(ctx, cfg, char, Alpha)
	if err != nil {
		t.Fatalf("SpeciesFITCtx(alpha): %v", err)
	}
	proton, err := SpeciesFITCtx(ctx, cfg, char, Proton)
	if err != nil {
		t.Fatalf("SpeciesFITCtx(proton): %v", err)
	}
	assertFITEqual(t, "alpha", base.Alpha, alpha)
	assertFITEqual(t, "proton", base.Proton, proton)

	if _, err := SpeciesFITCtx(ctx, cfg, char, Species(99)); err == nil {
		t.Error("unsupported species accepted")
	}
}

// TestStagesRefuseCharacterizationAtAnotherVdd: every stage that takes a
// pre-built characterization refuses one built at another Vdd than the
// flow's with a *PlanMismatchError naming both voltages, before any bin is
// filed under the flow's voltage in the checkpoint.
func TestStagesRefuseCharacterizationAtAnotherVdd(t *testing.T) {
	char07 := sharedFlow(t).Char
	cfg := smallFlowConfig()
	cfg.Vdd = 0.8
	store, err := CreateCheckpoint(t.TempDir()+"/run.ck.json", cfg, []float64{cfg.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Checkpoint = store
	ctx := context.Background()
	for _, st := range []struct {
		name string
		run  func() error
	}{
		{"RunFlowWithCharCtx", func() error { _, err := RunFlowWithCharCtx(ctx, cfg, char07); return err }},
		{"SpeciesFITCtx", func() error { _, err := SpeciesFITCtx(ctx, cfg, char07, Proton); return err }},
		{"NeutronFITCtx", func() error {
			_, err := NeutronFITCtx(ctx, cfg, []*FlowResult{{Vdd: cfg.Vdd, Char: char07}})
			return err
		}},
		{"SpeciesShardPOFConvCtx", func() error { _, _, err := SpeciesShardPOFConvCtx(ctx, cfg, char07, Alpha, 0, 2); return err }},
	} {
		err := st.run()
		var pm *PlanMismatchError
		if !errors.As(err, &pm) || pm.Field != "Vdd" || pm.Plan != 0.8 || pm.Engine != 0.7 {
			t.Errorf("%s: err = %v, want a Vdd *PlanMismatchError (plan 0.8 V, characterization 0.7 V)", st.name, err)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "0.8 V") || !strings.Contains(msg, "0.7 V") {
			t.Errorf("%s: error %q does not name both voltages", st.name, msg)
		}
	}
	if got := store.Stages(); len(got) != 0 {
		t.Errorf("refused stages checkpointed %v", got)
	}
}

// TestResumeCheckpointRejectsConfigChange checks that a checkpoint taken
// under one configuration cannot be resumed under another.
func TestResumeCheckpointRejectsConfigChange(t *testing.T) {
	cfg := resilienceFlowConfig()
	vdds := []float64{cfg.Vdd}
	path := t.TempDir() + "/run.ck.json"
	if _, err := CreateCheckpoint(path, cfg, vdds); err != nil {
		t.Fatalf("CreateCheckpoint: %v", err)
	}

	// Same configuration resumes fine.
	if _, err := ResumeCheckpoint(path, cfg, vdds); err != nil {
		t.Fatalf("same-config resume rejected: %v", err)
	}

	mutations := []struct {
		name string
		cfg  FlowConfig
		vdds []float64
	}{
		{"seed", func() FlowConfig { c := cfg; c.Seed++; return c }(), vdds},
		{"iters", func() FlowConfig { c := cfg; c.ItersPerBin *= 2; return c }(), vdds},
		{"fit tolerance", func() FlowConfig { c := cfg; c.FITRelErr = 0.1; return c }(), vdds},
		{"vdd list", cfg, []float64{0.7, 0.8}},
	}
	for _, m := range mutations {
		if _, err := ResumeCheckpoint(path, m.cfg, m.vdds); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("%s change: resume error = %v, want ErrCheckpointMismatch", m.name, err)
		}
	}

	// A missing file is a plain error, not a silent fresh start.
	if _, err := ResumeCheckpoint(path+".nope", cfg, vdds); err == nil {
		t.Error("resume of a missing checkpoint file succeeded")
	}
}

// TestFlowFingerprintCoversPhysicsRevision pins that the strike-physics
// revision enters the flow fingerprint and the worker count does not: the
// CI interrupt-resume configuration no longer hashes to its digests from
// before the inter-fin range lookup, from before the per-strike random
// stream or from before the analytic FinFET Jacobian, a checkpoint stamped
// with any of them is refused, and every worker count hashes alike.
func TestFlowFingerprintCoversPhysicsRevision(t *testing.T) {
	old := map[string]string{
		"before the inter-fin range lookup":   "eb887a74b6c46009ca4dddc33bc472b390f6f11d60551d10fdbafbfd7639392e",
		"before the per-strike stream":        "b9018e22b9c890574bc9b56cf2a8665f7454b9a54a99a98d5e9cccc92230232b",
		"before the analytic FinFET Jacobian": "ba1905e5ef3f0979925083e4197d450cd773e530f67b442fc30753e5b3759547",
	}
	cfg := FlowConfig{Vdd: 0.8, ProcessVariation: true, Samples: 40, ItersPerBin: 400000, Workers: 2, Seed: 7}
	vdds := []float64{0.8}
	fp, err := FlowFingerprint(cfg, vdds)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		c := cfg
		c.Workers = workers
		if got, err := FlowFingerprint(c, vdds); err != nil || got != fp {
			t.Errorf("fingerprint under %d workers = %s (err %v), want %s as under 2", workers, got, err, fp)
		}
	}
	for name, digest := range old {
		if fp == digest {
			t.Errorf("fingerprint %s is the one from %s", fp, name)
		}
		path := t.TempDir() + "/old.ck.json"
		if _, err := checkpoint.Create(path, digest); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeCheckpoint(path, cfg, vdds); !errors.Is(err, ErrCheckpointMismatch) {
			t.Errorf("resume of a checkpoint from %s: err = %v, want ErrCheckpointMismatch", name, err)
		}
	}
}
