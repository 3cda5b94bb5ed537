package core

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"finser/internal/finfet"
	"finser/internal/phys"
	"finser/internal/spectra"
	"finser/internal/sram"
)

// memStore is a minimal in-memory CheckpointStore for resume tests.
type memStore struct{ m map[string]json.RawMessage }

func newMemStore() *memStore { return &memStore{m: map[string]json.RawMessage{}} }

func (s *memStore) Load(stage string, v any) (bool, error) {
	raw, ok := s.m[stage]
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(raw, v)
}

func (s *memStore) Save(stage string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	s.m[stage] = b
	return nil
}

// workerEngine is the 9×9 engine under the given worker count.
func workerEngine(t *testing.T, workers int) *Engine {
	t.Helper()
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Workers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// alphaPlan is the α plan FITCtx runs in model m, at tolerance relErr: run
// through RunLedgersCtx, it is the adaptive form of FITCtx.
func alphaPlan(e *Engine, m sram.POFProvider, relErr float64, bins []spectra.EnergyBin, itersPerBin int, seed uint64) BinPlan {
	p := e.ownPlan(m, "alpha", phys.Alpha, bins, itersPerBin, seed)
	p.RelErr = relErr
	return p
}

// runPlan runs plan alone in model m over a fresh store-less ledger.
func runPlan(t *testing.T, e *Engine, m sram.POFProvider, plan BinPlan) FITResult {
	t.Helper()
	l, err := NewLedger(plan, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := soloRun(context.Background(), e, m, l, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func alphaEnv(t *testing.T, nBins int) (spectra.Spectrum, []spectra.EnergyBin) {
	t.Helper()
	spec, err := spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := spectra.Bins(spec, 0.5, 10, nBins)
	if err != nil {
		t.Fatal(err)
	}
	return spec, bins
}

// Adaptive FIT must be a pure function of the configuration: re-running the
// identical config — under any worker count — reproduces every point and
// convergence record bit for bit, and any shard partitioning of the bin
// range concatenates to the exact single-call result (what the distributed
// merge relies on).
func TestAdaptiveFITDeterministicAndShardEquivalent(t *testing.T) {
	ch, _, _ := fixtures(t)
	_, bins := alphaEnv(t, 6)
	e := workerEngine(t, 2)
	plan := alphaPlan(e, ch, 0.05, bins, 3000, 42)

	r1 := runPlan(t, e, ch, plan)
	r2 := runPlan(t, e, ch, plan)
	if !reflect.DeepEqual(r1.Points, r2.Points) || !reflect.DeepEqual(r1.Conv, r2.Conv) || r1.TotalFIT != r2.TotalFIT {
		t.Fatal("adaptive FIT not deterministic across re-runs")
	}
	for _, workers := range []int{1, 8} {
		rw := runPlan(t, workerEngine(t, workers), ch, plan)
		if !reflect.DeepEqual(rw.Points, r1.Points) || !reflect.DeepEqual(rw.Conv, r1.Conv) || rw.TotalFIT != r1.TotalFIT {
			t.Fatalf("adaptive FIT under %d workers differs from 2 workers", workers)
		}
	}

	ctx := context.Background()
	shard := func(from, to int) ([]POFPoint, []BinConv) {
		l, err := NewLedger(plan, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.RunShardCtx(ctx, LedgerRun{Ledger: l, Char: ch}, from, to); err != nil {
			t.Fatal(err)
		}
		res := l.FIT()
		return res.Points, res.Conv
	}
	fullPts, fullConv := shard(0, len(bins))
	if !reflect.DeepEqual(fullPts, r1.Points) || !reflect.DeepEqual(fullConv, r1.Conv) {
		t.Fatal("RunShardCtx over the whole plan disagrees with RunLedgersCtx")
	}
	for _, cut := range []int{1, 2, 4} {
		aPts, aConv := shard(0, cut)
		bPts, bConv := shard(cut, len(bins))
		if !reflect.DeepEqual(append(aPts, bPts...), fullPts) {
			t.Fatalf("shard split at %d changes points", cut)
		}
		if !reflect.DeepEqual(append(aConv, bConv...), fullConv) {
			t.Fatalf("shard split at %d changes convergence records", cut)
		}
	}
}

// Every adaptive bin must carry a self-consistent convergence record, the
// targets must match the statically derived tolerances, and a flat run must
// carry none.
func TestAdaptiveFITConvRecords(t *testing.T) {
	ch, _, _ := fixtures(t)
	spec, bins := alphaEnv(t, 6)
	itersPerBin := 3000
	e := workerEngine(t, 2)
	r := runPlan(t, e, ch, alphaPlan(e, ch, 0.1, bins, itersPerBin, 42))
	if len(r.Conv) != len(bins) {
		t.Fatalf("conv records = %d, want %d", len(r.Conv), len(bins))
	}
	tols := adaptiveTols(bins, 0.1)
	saved := 0
	for i, c := range r.Conv {
		if err := CheckBinConv(c, r.Points[i]); err != nil {
			t.Errorf("bin %d: %v", i, err)
		}
		if c.Tol != tols[i] {
			t.Errorf("bin %d: tol %g, want %g", i, c.Tol, tols[i])
		}
		if c.Converged && r.Points[i].Tot > 0 && c.RelErr > c.Tol {
			t.Errorf("bin %d: converged with rel err %g > tol %g", i, c.RelErr, c.Tol)
		}
		if want := itersPerBin - r.Points[i].Strikes; c.StrikesSaved != want {
			t.Errorf("bin %d: strikes saved %d, want %d", i, c.StrikesSaved, want)
		}
		saved += c.StrikesSaved
	}
	// Alpha bins at 0.7 V are saturated and cheap: the sampler must free a
	// real fraction of the flat budget (that is the whole point).
	if saved <= 0 {
		t.Errorf("adaptive run saved %d strikes on an easy spectrum", saved)
	}

	flat, err := e.FITCtx(context.Background(), ch, spec, bins, itersPerBin, 42)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Conv != nil {
		t.Error("flat run carries convergence records")
	}
}

// The adaptive estimate must agree statistically with the flat-budget
// reference on the same spectrum — early stopping trades precision for
// wall-clock, never bias.
func TestAdaptiveFITMatchesFlatWithinError(t *testing.T) {
	ch, _, _ := fixtures(t)
	spec, bins := alphaEnv(t, 6)
	e := workerEngine(t, 2)
	ad := runPlan(t, e, ch, alphaPlan(e, ch, 0.05, bins, 3000, 42))
	flat, err := e.FITCtx(context.Background(), ch, spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	diff := ad.TotalFIT - flat.TotalFIT
	if diff < 0 {
		diff = -diff
	}
	if band := 5 * (ad.TotalFITErr + flat.TotalFITErr); diff > band {
		t.Errorf("adaptive %g vs flat %g differ beyond noise (band %g)", ad.TotalFIT, flat.TotalFIT, band)
	}
}

// A checkpointed adaptive run interrupted after k bins must resume to the
// bit-identical uninterrupted result, and checkpoints taken under a
// different tolerance must be rejected, not silently reinterpreted.
func TestAdaptiveFITCheckpointResume(t *testing.T) {
	ch, _, _ := fixtures(t)
	_, bins := alphaEnv(t, 6)
	e := workerEngine(t, 2)
	want := runPlan(t, e, ch, alphaPlan(e, ch, 0.05, bins, 3000, 42))
	// run integrates the α plan at tolerance relErr over a ledger on store.
	run := func(relErr float64, store CheckpointStore) (FITResult, error) {
		l, err := NewLedger(alphaPlan(e, ch, relErr, bins, 3000, 42), store, nil)
		if err != nil {
			t.Fatal(err)
		}
		return soloRun(context.Background(), e, ch, l, nil)
	}

	store := newMemStore()
	if _, err := run(0.05, store); err != nil {
		t.Fatal(err)
	}
	// Truncate the persisted state to the first two bins — the on-disk
	// shape of a run killed mid-flight — then resume.
	const stage = "fit/alpha"
	var st binRecord
	if ok, err := store.Load(stage, &st); err != nil || !ok {
		t.Fatalf("checkpoint missing: ok=%v err=%v", ok, err)
	}
	st.Points = st.Points[:2]
	st.Conv = st.Conv[:2]
	if err := store.Save(stage, st); err != nil {
		t.Fatal(err)
	}
	got, err := run(0.05, store)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) || !reflect.DeepEqual(got.Conv, want.Conv) || got.TotalFIT != want.TotalFIT {
		t.Fatal("resumed adaptive FIT differs from uninterrupted run")
	}

	// Tolerance is result-determining: a flat resume over an adaptive
	// checkpoint (and vice versa) must fail loudly.
	if _, err := run(0, store); err == nil || !strings.Contains(err.Error(), "tolerance") {
		t.Errorf("flat resume over adaptive checkpoint: err = %v", err)
	}
	// A checkpoint with conv records stripped is corrupt, not flat.
	st.Conv = nil
	if err := store.Save(stage, st); err != nil {
		t.Fatal(err)
	}
	if _, err := run(0.05, store); err == nil {
		t.Error("adaptive resume accepted checkpoint without convergence records")
	}
}

// adaptiveOneBin runs one energy bin in the 0.7 V model through the bin
// runner: the shard entry over a one-bin plan, where the bin's tolerance is
// the plan's RelErr itself.
func adaptiveOneBin(t *testing.T, relErr float64, sp phys.Species, energyMeV float64, itersPerBin int, seed uint64) (POFPoint, BinConv) {
	t.Helper()
	ch, _, _ := fixtures(t)
	e := workerEngine(t, 2)
	plan := e.ownPlan(ch, sp.String(), sp, []spectra.EnergyBin{{Rep: energyMeV, IntFlux: 1}}, itersPerBin, seed)
	plan.RelErr = relErr
	l, err := NewLedger(plan, nil, nil)
	if err == nil {
		err = e.RunShardCtx(context.Background(), LedgerRun{Ledger: l, Char: ch}, 0, 1)
	}
	if err != nil {
		t.Fatal(err)
	}
	res := l.FIT()
	pts, conv := res.Points, res.Conv
	if conv[0].Tol != relErr {
		t.Fatalf("one-bin tolerance %g, want %g", conv[0].Tol, relErr)
	}
	if err := CheckBinConv(conv[0], pts[0]); err != nil {
		t.Fatal(err)
	}
	return pts[0], conv[0]
}

// A reachable tolerance converges, and the converged estimate agrees with a
// big fixed-budget run.
func TestAdaptivePOFConverges(t *testing.T) {
	pt, c := adaptiveOneBin(t, 0.05, phys.Alpha, 1, 50000, 3)
	if !c.Converged || c.RelErr > c.Tol {
		t.Fatalf("alpha at 1 MeV: converged=%v rel err %g (tol %g) after %d strikes", c.Converged, c.RelErr, c.Tol, pt.Strikes)
	}
	ch, _, _ := fixtures(t)
	ref := mustPOF(t, workerEngine(t, 2), ch, phys.Alpha, 1, 100000, 17)
	if diff := math.Abs(pt.Tot - ref.Tot); diff > 5*(pt.TotStdErr+ref.TotStdErr) {
		t.Errorf("adaptive %v vs fixed %v beyond noise", pt.Tot, ref.Tot)
	}
}

// An unreachable tolerance must come back flagged unconverged, in whole
// batches within the per-bin cap, rather than looping.
func TestAdaptivePOFBudgetExhaustion(t *testing.T) {
	pt, c := adaptiveOneBin(t, 0.001, phys.Alpha, 1, 2000, 5)
	if c.Converged {
		t.Errorf("impossible precision reported as converged (rel err %g)", c.RelErr)
	}
	if c.Batches > adaptiveCapBatches || pt.Strikes != c.Batches*adaptiveBatchSize(2000) {
		t.Errorf("%d strikes over %d batches, want whole batches within the %d-batch cap", pt.Strikes, c.Batches, adaptiveCapBatches)
	}
}

// The whole point: a rare-event point must consume more strikes than a
// saturated point at the same tolerance.
func TestAdaptivePOFRareEventNeedsMoreStrikes(t *testing.T) {
	common, _ := adaptiveOneBin(t, 0.1, phys.Alpha, 1, 40000, 7)
	rare, _ := adaptiveOneBin(t, 0.1, phys.Proton, 0.5, 40000, 7)
	if rare.Strikes <= common.Strikes {
		t.Errorf("rare event used %d strikes, saturated used %d", rare.Strikes, common.Strikes)
	}
}

// The shard entry is a trust boundary (its bin range and seed schedule
// arrive over the wire), so the ledger and the bin runner must reject
// malformed plans instead of indexing past them.
func TestAdaptivePOFValidation(t *testing.T) {
	ch, _, _ := fixtures(t)
	_, bins := alphaEnv(t, 4)
	seeds := FITSeedSchedule(42, len(bins))
	e := workerEngine(t, 2)
	for _, tc := range []struct {
		name     string
		seeds    []uint64
		from, to int
		iters    int
	}{
		{"seed count mismatch", seeds[:3], 0, 4, 100},
		{"empty range", seeds, 2, 2, 100},
		{"negative start", seeds, -1, 2, 100},
		{"range past plan", seeds, 2, 5, 100},
		{"zero iterations", seeds, 0, 4, 0},
	} {
		plan := alphaPlan(e, ch, 0.05, bins, tc.iters, 42)
		plan.Seeds = tc.seeds
		l, err := NewLedger(plan, nil, nil)
		if err == nil {
			err = e.RunShardCtx(context.Background(), LedgerRun{Ledger: l, Char: ch}, tc.from, tc.to)
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestAdaptiveTols(t *testing.T) {
	relErr := 0.02
	uniform := []spectra.EnergyBin{{IntFlux: 1}, {IntFlux: 1}, {IntFlux: 1}, {IntFlux: 1}}
	for i, tol := range adaptiveTols(uniform, relErr) {
		if diff := tol - relErr; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("uniform bin %d: tol %g, want %g", i, tol, relErr)
		}
	}
	skewed := []spectra.EnergyBin{{IntFlux: 1e6}, {IntFlux: 1e-9}, {IntFlux: 0}}
	tols := adaptiveTols(skewed, relErr)
	if tols[0] != relErr {
		t.Errorf("dominant bin: tol %g, want clamp at %g", tols[0], relErr)
	}
	if tols[1] != 10*relErr {
		t.Errorf("negligible bin: tol %g, want clamp at %g", tols[1], 10*relErr)
	}
	if tols[2] != 10*relErr {
		t.Errorf("zero-flux bin: tol %g, want %g", tols[2], 10*relErr)
	}
	for _, tol := range tols {
		if tol < relErr || tol > 10*relErr {
			t.Errorf("tol %g outside [relErr, 10 relErr]", tol)
		}
	}
}

func TestCheckBinConv(t *testing.T) {
	good := BinConv{RelErr: 0.03, Tol: 0.05, Converged: true, Batches: 4, StrikesSaved: 1800}
	pt := POFPoint{Strikes: 1200}
	if err := CheckBinConv(good, pt); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
	cases := []struct {
		name string
		c    BinConv
		pt   POFPoint
	}{
		{"negative rel err", BinConv{RelErr: -1, Tol: 0.05, Batches: 4}, pt},
		{"nan rel err", BinConv{RelErr: nan(), Tol: 0.05, Batches: 4}, pt},
		{"zero tol", BinConv{RelErr: 0.03, Tol: 0, Batches: 4}, pt},
		{"zero batches", BinConv{RelErr: 0.03, Tol: 0.05, Batches: 0}, pt},
		{"batches over cap", BinConv{RelErr: 0.03, Tol: 0.05, Batches: adaptiveCapBatches + 1}, pt},
		{"strikes not divisible", BinConv{RelErr: 0.03, Tol: 0.05, Batches: 7}, pt},
		{"zero strikes", good, POFPoint{}},
	}
	for _, tc := range cases {
		if err := CheckBinConv(tc.c, tc.pt); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func nan() float64 {
	zero := 0.0
	return zero / zero
}
