package core

import (
	"testing"

	"finser/internal/finfet"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/transport"
)

// TestMetricsConservation checks the engine's particle accounting on a seeded
// run: every generated particle is counted exactly once, and every particle
// is classified as either a hit or a miss.
func TestMetricsConservation(t *testing.T) {
	ch, _, _ := fixtures(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Transport: transport.DefaultConfig(),
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}

	const iters = 20000
	mustPOF(t, e, ch, phys.Alpha, 1, iters, 42)

	if got := m.Particles.Value(); got != iters {
		t.Errorf("particles generated = %d, want %d", got, iters)
	}
	hits, misses := m.Hits.Value(), m.Misses.Value()
	if hits+misses != iters {
		t.Errorf("hits (%d) + misses (%d) = %d, want %d", hits, misses, hits+misses, iters)
	}
	if hits == 0 {
		t.Error("expected some hits at 1 MeV alpha")
	}
	// Every hitting particle contributes exactly one multiplicity observation.
	if got := m.StruckCellMultiplicity.Count(); got != hits {
		t.Errorf("multiplicity observations = %d, want hits = %d", got, hits)
	}
	if rate := m.HitRate(); rate <= 0 || rate >= 1 {
		t.Errorf("hit rate %g outside (0,1)", rate)
	}
}

// TestMetricsDoNotPerturbResults checks the instrumented engine produces
// bit-identical POF estimates to the uninstrumented one on the same seed.
func TestMetricsDoNotPerturbResults(t *testing.T) {
	ch, _, _ := fixtures(t)
	plain := newEngine(t)
	reg := obs.NewRegistry()
	inst, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Transport: transport.DefaultConfig(),
		Metrics:   NewMetrics(reg),
	})
	if err != nil {
		t.Fatal(err)
	}
	a := mustPOF(t, plain, ch, phys.Alpha, 2, 10000, 7)
	b := mustPOF(t, inst, ch, phys.Alpha, 2, 10000, 7)
	if a != b {
		t.Errorf("metrics perturbed results: %+v vs %+v", a, b)
	}
}
