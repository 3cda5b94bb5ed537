package core

import (
	"context"
	"slices"
	"testing"

	"finser/internal/finfet"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/transport"
)

// TestMetricsConservation checks the engine's particle accounting on a seeded
// run: every generated particle is counted exactly once, and every particle
// is classified as either a hit or a miss.
func TestMetricsConservation(t *testing.T) {
	ch, _, _ := fixtures(t)
	reg := obs.NewRegistry()
	m := NewMetrics(reg) // the engine's own counters, by name
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Metrics: reg,
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
		Metrics: reg,
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

// TestScratchTalliesReachRegistry: workers tally rays, crossings,
// deposited segments and struck-cell multiplicities in their scratch, and
// once an estimate returns the registry holds exactly what the same keyed
// strikes tally one by one, on one worker or three, with every returned
// scratch cleared.
func TestScratchTalliesReachRegistry(t *testing.T) {
	ch, _, _ := fixtures(t)
	const iters, seed, energy = 3000, 42, 1.0
	var want strikeTally
	for _, workers := range []int{1, 3} {
		reg := obs.NewRegistry()
		tm, m := transport.NewMetrics(reg), NewMetrics(reg) // the engine's counters, by name
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Metrics: reg, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			k, err := e.directKernel(context.Background(), phys.Alpha)
			if err != nil {
				t.Fatal(err)
			}
			scr := newStrikeScratch(e.arr.NumCells())
			var src rng.Source
			for i := uint64(0); i < iters; i++ {
				src.Reset(seed, i)
				if _, err := k.charge(&src, energy, scr); err != nil {
					t.Fatal(err)
				}
				if n := len(scr.touched); n > 0 {
					scr.tally.countStruck(n)
				}
			}
			want = scr.tally
			if want.rays == 0 || want.segments == 0 || len(want.struck) < 2 {
				t.Fatalf("hand tally %+v counts nothing", want)
			}
		}
		mustPOF(t, e, ch, phys.Alpha, energy, iters, seed)
		if got := (strikeTally{rays: tm.RaysTraced.Value(), crossings: tm.FinIntersections.Value(),
			segments: tm.SegmentsDeposited.Value()}); got.rays != want.rays || got.crossings != want.crossings || got.segments != want.segments {
			t.Errorf("workers %d: registry counts %d rays, %d crossings, %d segments; the strikes tally %d, %d, %d",
				workers, got.rays, got.crossings, got.segments, want.rays, want.crossings, want.segments)
		}
		hits, sum, most := int64(0), 0.0, 0
		for cells, n := range want.struck {
			hits += n
			sum += float64(cells) * float64(n)
			if n > 0 {
				most = cells
			}
		}
		h := m.StruckCellMultiplicity
		if h.Count() != hits || h.Count() != m.Hits.Value() || h.Sum() != sum || h.Quantile(1) != float64(most) {
			t.Errorf("workers %d: multiplicity count %d, sum %g, max %g; the strikes tally %d hits, sum %g, max %d (core.hits %d)",
				workers, h.Count(), h.Sum(), h.Quantile(1), hits, sum, most, m.Hits.Value())
		}
		scr := e.getScratch()
		if scr.tally.rays != 0 || scr.tally.crossings != 0 || scr.tally.segments != 0 || slices.ContainsFunc(scr.tally.struck, func(n int64) bool { return n != 0 }) {
			t.Errorf("workers %d: pooled scratch keeps a tally %+v", workers, scr.tally)
		}
		e.putScratch(scr)
	}
}
