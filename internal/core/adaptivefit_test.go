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
	"finser/internal/transport"
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

func adaptiveEngine(t *testing.T, relErr float64, ck CheckpointStore) *Engine {
	t.Helper()
	ch, _, _ := fixtures(t)
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Char: ch, Transport: transport.DefaultConfig(),
		Workers: 2, FITRelErr: relErr, Checkpoint: ck,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
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
	spec, bins := alphaEnv(t, 6)
	e := adaptiveEngine(t, 0.05, nil)

	r1, err := e.FITCtx(context.Background(), spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.FITCtx(context.Background(), spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Points, r2.Points) || !reflect.DeepEqual(r1.Conv, r2.Conv) || r1.TotalFIT != r2.TotalFIT {
		t.Fatal("adaptive FIT not deterministic across re-runs")
	}
	for _, workers := range []int{1, 8} {
		ch, _, _ := fixtures(t)
		ew, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Char: ch, Transport: transport.DefaultConfig(),
			Workers: workers, FITRelErr: 0.05,
		})
		if err != nil {
			t.Fatal(err)
		}
		rw, err := ew.FITCtx(context.Background(), spec, bins, 3000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rw.Points, r1.Points) || !reflect.DeepEqual(rw.Conv, r1.Conv) || rw.TotalFIT != r1.TotalFIT {
			t.Fatalf("adaptive FIT under %d workers differs from 2 workers", workers)
		}
	}

	ctx := context.Background()
	seeds := FITSeedSchedule(42, len(bins))
	fullPts, fullConv, err := e.POFBinsConvCtx(ctx, phys.Alpha, bins, 3000, seeds, 0, len(bins))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullPts, r1.Points) || !reflect.DeepEqual(fullConv, r1.Conv) {
		t.Fatal("POFBinsConvCtx disagrees with FITCtx")
	}
	for _, cut := range []int{1, 2, 4} {
		aPts, aConv, err := e.POFBinsConvCtx(ctx, phys.Alpha, bins, 3000, seeds, 0, cut)
		if err != nil {
			t.Fatal(err)
		}
		bPts, bConv, err := e.POFBinsConvCtx(ctx, phys.Alpha, bins, 3000, seeds, cut, len(bins))
		if err != nil {
			t.Fatal(err)
		}
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
	spec, bins := alphaEnv(t, 6)
	itersPerBin := 3000
	e := adaptiveEngine(t, 0.1, nil)
	r, err := e.FITCtx(context.Background(), spec, bins, itersPerBin, 42)
	if err != nil {
		t.Fatal(err)
	}
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

	flat, err := adaptiveEngine(t, 0, nil).FITCtx(context.Background(), spec, bins, itersPerBin, 42)
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
	spec, bins := alphaEnv(t, 6)
	ad, err := adaptiveEngine(t, 0.05, nil).FITCtx(context.Background(), spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := adaptiveEngine(t, 0, nil).FITCtx(context.Background(), spec, bins, 3000, 42)
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
	spec, bins := alphaEnv(t, 6)
	e := adaptiveEngine(t, 0.05, nil)
	want, err := e.FITCtx(context.Background(), spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}

	store := newMemStore()
	if _, err := adaptiveEngine(t, 0.05, store).FITCtx(context.Background(), spec, bins, 3000, 42); err != nil {
		t.Fatal(err)
	}
	// Truncate the persisted state to the first two bins — the on-disk
	// shape of a run killed mid-flight — then resume.
	const stage = "fit/alpha"
	var st fitState
	if ok, err := store.Load(stage, &st); err != nil || !ok {
		t.Fatalf("checkpoint missing: ok=%v err=%v", ok, err)
	}
	st.Points = st.Points[:2]
	st.Conv = st.Conv[:2]
	if err := store.Save(stage, st); err != nil {
		t.Fatal(err)
	}
	got, err := adaptiveEngine(t, 0.05, store).FITCtx(context.Background(), spec, bins, 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Points, want.Points) || !reflect.DeepEqual(got.Conv, want.Conv) || got.TotalFIT != want.TotalFIT {
		t.Fatal("resumed adaptive FIT differs from uninterrupted run")
	}

	// Tolerance is result-determining: a flat resume over an adaptive
	// checkpoint (and vice versa) must fail loudly.
	if _, err := adaptiveEngine(t, 0, store).FITCtx(context.Background(), spec, bins, 3000, 42); err == nil || !strings.Contains(err.Error(), "tolerance") {
		t.Errorf("flat resume over adaptive checkpoint: err = %v", err)
	}
	// A checkpoint with conv records stripped is corrupt, not flat.
	st.Conv = nil
	if err := store.Save(stage, st); err != nil {
		t.Fatal(err)
	}
	if _, err := adaptiveEngine(t, 0.05, store).FITCtx(context.Background(), spec, bins, 3000, 42); err == nil {
		t.Error("adaptive resume accepted checkpoint without convergence records")
	}
}

// adaptiveOneBin runs one energy bin through the bin runner: the shard
// entry over a one-bin plan, where the bin's tolerance is FITRelErr itself.
func adaptiveOneBin(t *testing.T, relErr float64, sp phys.Species, energyMeV float64, itersPerBin int, seed uint64) (POFPoint, BinConv) {
	t.Helper()
	bins := []spectra.EnergyBin{{Rep: energyMeV, IntFlux: 1}}
	pts, conv, err := adaptiveEngine(t, relErr, nil).POFBinsConvCtx(context.Background(), sp, bins, itersPerBin, FITSeedSchedule(seed, 1), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
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
	ref := mustPOF(t, adaptiveEngine(t, 0, nil), phys.Alpha, 1, 100000, 17)
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
// arrive over the wire), so the bin runner must reject malformed plans
// instead of indexing past them.
func TestAdaptivePOFValidation(t *testing.T) {
	_, bins := alphaEnv(t, 4)
	seeds := FITSeedSchedule(42, len(bins))
	e := adaptiveEngine(t, 0.05, nil)
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
		if _, _, err := e.POFBinsConvCtx(context.Background(), phys.Alpha, bins, tc.iters, tc.seeds, tc.from, tc.to); err == nil {
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
