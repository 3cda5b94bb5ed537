package core

import (
	"testing"

	"finser/internal/finfet"
	"finser/internal/phys"
	"finser/internal/sram"
)

func lutEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Deposits: DepositLUT, LUTIters: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLUTModeProducesPOF(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := lutEngine(t)
	pt := mustPOF(t, e, ch, phys.Alpha, 1, 10000, 3)
	if pt.Tot <= 0 {
		t.Fatal("LUT mode produced zero POF")
	}
	// Determinism holds in LUT mode too.
	again := mustPOF(t, e, ch, phys.Alpha, 1, 10000, 3)
	if pt.Tot != again.Tot {
		t.Error("LUT mode not deterministic")
	}
}

func TestLUTModeTracksTransportMode(t *testing.T) {
	// The paper's LUT shortcut replaces chord-resolved deposits with the
	// single-fin mean yield. The two modes must agree on the qualitative
	// orderings and stay within a small factor of each other where POF is
	// well away from threshold.
	ch, _, _ := fixtures(t)
	full := newEngine(t)
	lutE := lutEngine(t)
	for _, en := range []float64{0.5, 1} {
		a := mustPOF(t, full, ch, phys.Alpha, en, 20000, 5)
		b := mustPOF(t, lutE, ch, phys.Alpha, en, 20000, 5)
		if b.Tot <= 0 {
			t.Fatalf("LUT mode zero at %v MeV", en)
		}
		if r := b.Tot / a.Tot; r < 0.3 || r > 3 {
			t.Errorf("at %v MeV LUT/transport POF ratio = %v, want within 3×", en, r)
		}
	}
	// Ordering preserved: alpha ≫ proton in both modes.
	ap := mustPOF(t, lutE, ch, phys.Alpha, 1, 20000, 7)
	pp := mustPOF(t, lutE, ch, phys.Proton, 1, 20000, 7)
	if ap.Tot <= pp.Tot {
		t.Error("LUT mode lost the alpha ≫ proton ordering")
	}
}

func TestLUTModeFasterSetupReuse(t *testing.T) {
	// The LUT is built once per species and reused; a second call must not
	// rebuild (observable as identical results with a warm engine).
	ch, _, _ := fixtures(t)
	e := lutEngine(t)
	_ = mustPOF(t, e, ch, phys.Alpha, 1, 2000, 1)
	if len(e.yieldLUTs) != 1 {
		t.Fatalf("expected 1 cached LUT, got %d", len(e.yieldLUTs))
	}
	_ = mustPOF(t, e, ch, phys.Alpha, 5, 2000, 1)
	if len(e.yieldLUTs) != 1 {
		t.Fatalf("second energy rebuilt the LUT table map: %d", len(e.yieldLUTs))
	}
	_ = mustPOF(t, e, ch, phys.Proton, 1, 2000, 1)
	if len(e.yieldLUTs) != 2 {
		t.Fatalf("expected 2 cached LUTs after proton run, got %d", len(e.yieldLUTs))
	}
}

func TestEngineWithGridLUTProvider(t *testing.T) {
	// The paper's exact architecture: the array MC consults serialized POF
	// LUTs, not the live sample set. Results must track the sample-based
	// provider closely.
	ch, _, _ := fixtures(t)
	grid, err := sram.BuildGridLUT(ch, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t)
	a := mustPOF(t, e, ch, phys.Alpha, 1, 20000, 3)
	b := mustPOF(t, e, grid, phys.Alpha, 1, 20000, 3)
	if b.Tot <= 0 {
		t.Fatal("grid-LUT provider produced zero POF")
	}
	if r := b.Tot / a.Tot; r < 0.9 || r > 1.1 {
		t.Errorf("grid-LUT POF %v vs sample POF %v (ratio %v)", b.Tot, a.Tot, r)
	}
}
