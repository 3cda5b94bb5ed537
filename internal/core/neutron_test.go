package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"finser/internal/finfet"
	"finser/internal/neutron"
	"finser/internal/spectra"
	"finser/internal/transport"
)

func TestNeutronPOFBasics(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rx := neutron.NewReactions()
	pt := mustNeutronPOF(t, e, rx, 14, 60000, 3)
	// The weighted POF must be positive but tiny (interaction probability
	// ~1e-7 per crossing fin chord, and most tracks miss fins entirely).
	if pt.Tot <= 0 {
		t.Fatal("14 MeV neutron weighted POF is zero")
	}
	if pt.Tot > 1e-6 {
		t.Fatalf("weighted POF %v implausibly large for neutrons", pt.Tot)
	}
	if pt.SEU < 0 || pt.MBU < 0 || pt.Tot < pt.SEU {
		t.Fatalf("POF split inconsistent: %+v", pt)
	}
	// Mean interaction weight per track should be ~1e-8..1e-6 (only a
	// fraction of tracks cross any fin at all).
	if pt.InteractionWeight <= 0 || pt.InteractionWeight > 1e-5 {
		t.Errorf("interaction weight = %v", pt.InteractionWeight)
	}
}

func TestNeutronPOFDeterministic(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rx := neutron.NewReactions()
	a := mustNeutronPOF(t, e, rx, 14, 20000, 9)
	b := mustNeutronPOF(t, e, rx, 14, 20000, 9)
	if a.Tot != b.Tot || a.MBU != b.MBU {
		t.Error("neutron POF not deterministic for equal seeds")
	}
}

func TestNeutronEnergyDependence(t *testing.T) {
	// Higher-energy neutrons produce harder, longer-range secondaries, so
	// the POF *per interaction* (weighted POF over mean interaction weight)
	// must grow with energy, even though the total cross-section falls.
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rx := neutron.NewReactions()
	low := mustNeutronPOF(t, e, rx, 1, 80000, 5)
	high := mustNeutronPOF(t, e, rx, 14, 80000, 5)
	if low.InteractionWeight <= 0 || high.InteractionWeight <= 0 {
		t.Fatal("zero interaction weights")
	}
	condLow := low.Tot / low.InteractionWeight
	condHigh := high.Tot / high.InteractionWeight
	if condHigh <= condLow {
		t.Errorf("per-interaction POF at 14 MeV (%v) not above 1 MeV (%v)", condHigh, condLow)
	}
}

func TestNeutronFIT(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rx := neutron.NewReactions()
	spec, err := neutron.NewSeaLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := spectra.Bins(spec, 2, 1000, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.NeutronFITCtx(context.Background(), spec, rx, bins, 30000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFIT <= 0 {
		t.Fatal("neutron FIT is zero")
	}
	if math.Abs(res.TotalFIT-(res.SEUFIT+res.MBUFIT))/res.TotalFIT > 1e-9 {
		t.Error("neutron FIT split inconsistent")
	}
	if len(res.Points) != len(bins) {
		t.Errorf("points = %d", len(res.Points))
	}
	// Validation errors.
	if _, err := e.NeutronFITCtx(context.Background(), spec, rx, nil, 10, 1); err == nil {
		t.Error("empty bins accepted")
	}
	if _, err := e.NeutronFITCtx(context.Background(), spec, rx, bins, 0, 1); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestNeutronVsAlphaMagnitude(t *testing.T) {
	// Sea-level neutron SER of SRAM is typically the same order as (or
	// larger than) the alpha SER — sanity-check we are not off by orders of
	// magnitude in either direction (accept a wide band: two decades).
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rx := neutron.NewReactions()
	nSpec, _ := neutron.NewSeaLevel(1)
	nBins, _ := spectra.Bins(nSpec, 2, 1000, 8)
	nRes, err := e.NeutronFITCtx(context.Background(), nSpec, rx, nBins, 40000, 11)
	if err != nil {
		t.Fatal(err)
	}
	aSpec, _ := spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
	aBins, _ := spectra.Bins(aSpec, 0.5, 10, 8)
	aRes, err := e.FITCtx(context.Background(), aSpec, aBins, 20000, 12)
	if err != nil {
		t.Fatal(err)
	}
	ratio := nRes.TotalFIT / aRes.TotalFIT
	if ratio < 1e-2 || ratio > 1e2 {
		t.Errorf("neutron/alpha FIT ratio = %v, want within two decades", ratio)
	}
}

func TestNeutronMBUOccurs(t *testing.T) {
	// Hard recoils are densely ionizing and long enough to cross cells:
	// MBUs must appear at high neutron energy.
	tech := finfet.Default14nmSOI()
	ch, _, _ := fixtures(t)
	e, err := New(Config{
		Tech: tech, Rows: 9, Cols: 9, Char: ch,
		Transport: transport.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rx := neutron.NewReactions()
	pt := mustNeutronPOF(t, e, rx, 100, 150000, 13)
	if pt.Tot <= 0 {
		t.Skip("no interactions sampled at this budget")
	}
	if pt.MBU <= 0 {
		t.Error("no neutron MBU at 100 MeV")
	}
}

// neutronEnv is a small neutron FIT plan: the sea-level spectrum over four
// bins.
func neutronEnv(t *testing.T) (spectra.Spectrum, []spectra.EnergyBin) {
	t.Helper()
	spec, err := neutron.NewSeaLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	bins, err := spectra.Bins(spec, 2, 1000, 4)
	if err != nil {
		t.Fatal(err)
	}
	return spec, bins
}

// A neutron FIT at 8 workers must be a pure function of its configuration:
// chunk partials merge in chunk order, not in the order workers finish.
func TestNeutronFITBitIdenticalAcrossRuns(t *testing.T) {
	ch, _, _ := fixtures(t)
	spec, bins := neutronEnv(t)
	rx := neutron.NewReactions()
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Char: ch, Transport: transport.DefaultConfig(), Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	var first FITResult
	for run := 0; run < 20; run++ {
		res, err := e.NeutronFITCtx(context.Background(), spec, rx, bins, 2000, 5)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = res
		} else if !reflect.DeepEqual(res, first) {
			t.Fatalf("run %d differs from run 0:\n%+v\n%+v", run, res, first)
		}
	}
}

// The neutron FIT reports an honest 1σ error: the per-bin standard errors
// propagated through Eq. 8, exactly as AssembleFIT does for α and p.
func TestNeutronFITErr(t *testing.T) {
	ch, _, _ := fixtures(t)
	spec, bins := neutronEnv(t)
	e := engineWith(t, ch)
	res, err := e.NeutronFITCtx(context.Background(), spec, neutron.NewReactions(), bins, 4000, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !(res.TotalFITErr > 0) {
		t.Fatalf("neutron TotalFITErr = %g, want > 0", res.TotalFITErr)
	}
	lx, ly := e.Array().DimsCm()
	want := AssembleFIT(res.Species, res.Vdd, bins, res.Points, lx*ly)
	if res.TotalFITErr != want.TotalFITErr {
		t.Errorf("TotalFITErr %g, AssembleFIT propagation gives %g", res.TotalFITErr, want.TotalFITErr)
	}
}

// A neutron FIT cancelled mid-run and resumed from its checkpoint must be
// bit-identical to an uninterrupted run, flat and adaptive alike.
func TestNeutronFITCheckpointResume(t *testing.T) {
	ch, _, _ := fixtures(t)
	spec, bins := neutronEnv(t)
	rx := neutron.NewReactions()
	for _, relErr := range []float64{0, 0.1} {
		mk := func(ck CheckpointStore, onBin func(BinEvent)) *Engine {
			e, err := New(Config{
				Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
				Char: ch, Transport: transport.DefaultConfig(), Workers: 2,
				FITRelErr: relErr, Checkpoint: ck, OnBinDone: onBin,
			})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		want, err := mk(nil, nil).NeutronFITCtx(context.Background(), spec, rx, bins, 3000, 42)
		if err != nil {
			t.Fatal(err)
		}

		store := newMemStore()
		ctx, cancel := context.WithCancel(context.Background())
		stopAfterTwo := func(ev BinEvent) {
			if ev.Bin == 2 {
				cancel()
			}
		}
		if _, err := mk(store, stopAfterTwo).NeutronFITCtx(ctx, spec, rx, bins, 3000, 42); !errors.Is(err, context.Canceled) {
			t.Fatalf("relErr %g: interrupted run: err = %v, want context.Canceled", relErr, err)
		}
		var st fitState
		if ok, err := store.Load("fit/neutron", &st); err != nil || !ok || len(st.Points) != 2 {
			t.Fatalf("relErr %g: checkpoint after cancel: ok=%v err=%v bins=%d, want 2", relErr, ok, err, len(st.Points))
		}
		var resumed []bool
		got, err := mk(store, func(ev BinEvent) { resumed = append(resumed, ev.Resumed) }).NeutronFITCtx(context.Background(), spec, rx, bins, 3000, 42)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("relErr %g: resumed neutron FIT differs from uninterrupted run", relErr)
		}
		if !reflect.DeepEqual(resumed, []bool{true, true, false, false}) {
			t.Errorf("relErr %g: bin events resumed=%v, want the two restored bins first", relErr, resumed)
		}
	}
}
