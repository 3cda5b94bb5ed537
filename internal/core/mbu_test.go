package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/phys"
	"finser/internal/sram"
)

func TestMBUStatsBasics(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	rep := mustMBU(t, e, ch, phys.Alpha, 1, 40000, 6, 3)
	if rep.Species != phys.Alpha || rep.EnergyMeV != 1 || rep.Strikes != 40000 {
		t.Fatalf("metadata wrong: %+v", rep)
	}
	// PMF is a distribution.
	sum := 0.0
	for _, p := range rep.MultiplicityPMF {
		if p < 0 {
			t.Fatal("negative PMF entry")
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sums to %v", sum)
	}
	// Most strikes flip nothing; some flip one; a few flip two or more.
	if rep.MultiplicityPMF[0] < 0.5 {
		t.Errorf("P(0 flips) = %v, expected dominant", rep.MultiplicityPMF[0])
	}
	if rep.MultiplicityPMF[1] <= 0 {
		t.Error("no single-bit upsets recorded")
	}
	if rep.MultiplicityPMF[2] <= 0 {
		t.Error("no double-bit upsets recorded for 1 MeV alphas")
	}
	// Mean flips consistent with the PMF mean (overflow bucket aside).
	pmfMean := 0.0
	for k, p := range rep.MultiplicityPMF {
		pmfMean += float64(k) * p
	}
	if rep.MeanFlips <= 0 || math.Abs(pmfMean-rep.MeanFlips)/rep.MeanFlips > 0.05 {
		t.Errorf("mean flips %v inconsistent with PMF mean %v", rep.MeanFlips, pmfMean)
	}
}

func TestMBUPairsAreLocal(t *testing.T) {
	// MBU pairs should concentrate at small separations: a single track
	// only reaches adjacent cells.
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	rep := mustMBU(t, e, ch, phys.Alpha, 1, 40000, 6, 5)
	if len(rep.PairWeights) == 0 {
		t.Fatal("no pairs recorded")
	}
	total := rep.TotalPairWeight()
	local := 0.0
	for key, w := range rep.PairWeights {
		if key.DRow <= 1 && key.DCol >= -2 && key.DCol <= 2 {
			local += w
		}
	}
	if local/total < 0.6 {
		t.Errorf("only %v of pair weight within 2 cells; MBUs should be local", local/total)
	}
	// Keys are canonical.
	for key := range rep.PairWeights {
		if key.DRow < 0 || (key.DRow == 0 && key.DCol < 0) {
			t.Fatalf("non-canonical pair key %+v", key)
		}
	}
	// Sorted keys lead with the heaviest.
	keys := rep.SortedPairKeys()
	if len(keys) > 1 && rep.PairWeights[keys[0]] < rep.PairWeights[keys[1]] {
		t.Error("SortedPairKeys not weight-descending")
	}
}

func TestMBUStatsMatchPOFAtEnergy(t *testing.T) {
	// MBU stats and POFAtEnergyCtx run the same keyed strikes through the
	// same strike body, in either deposit mode, so the PMF's marginals
	// reproduce the primary estimator up to summation order: P(≥1 flip) is
	// POFtot and P(≥2 flips) is POFMBU.
	ch, _, _ := fixtures(t)
	for _, e := range []struct {
		name string
		e    *Engine
	}{{"transport", newEngine(t)}, {"lut", lutEngine(t)}} {
		rep := mustMBU(t, e.e, ch, phys.Alpha, 1, 60000, 6, 7)
		pt := mustPOF(t, e.e, ch, phys.Alpha, 1, 60000, 7)
		if pt.Tot == 0 || pt.MBU == 0 {
			t.Fatalf("%s: zero POF in cross-check: %+v", e.name, pt)
		}
		pGe1 := 1 - rep.MultiplicityPMF[0]
		if d := math.Abs(pGe1 - pt.Tot); d > 1e-12 {
			t.Errorf("%s: PMF P(≥1) = %v, POFtot = %v (off by %g)", e.name, pGe1, pt.Tot, d)
		}
		pGe2 := pGe1 - rep.MultiplicityPMF[1]
		if d := math.Abs(pGe2 - pt.MBU); d > 1e-12 {
			t.Errorf("%s: PMF P(≥2) = %v, POFMBU = %v (off by %g)", e.name, pGe2, pt.MBU, d)
		}
	}
}

// TestSampleTracksGeometry: every sampled track enters and leaves through
// the array bounds, records only fins that are sensitive under the stored
// pattern, and carries a probability that is positive only when it charged
// a sensitive fin — in both deposit modes.
func TestSampleTracksGeometry(t *testing.T) {
	ch, _, _ := fixtures(t)
	checker, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Pattern: PatternCheckerboard,
	})
	if err != nil {
		t.Fatal(err)
	}
	onFace := func(b geom.AABB, p geom.Vec3) bool {
		const tol = 1e-6
		in := p.X >= b.Min.X-tol && p.X <= b.Max.X+tol && p.Y >= b.Min.Y-tol &&
			p.Y <= b.Max.Y+tol && p.Z >= b.Min.Z-tol && p.Z <= b.Max.Z+tol
		near := func(a, b float64) bool { return math.Abs(a-b) <= tol }
		return in && (near(p.X, b.Min.X) || near(p.X, b.Max.X) || near(p.Y, b.Min.Y) ||
			near(p.Y, b.Max.Y) || near(p.Z, b.Min.Z) || near(p.Z, b.Max.Z))
	}
	for _, tc := range []struct {
		name string
		e    *Engine
		sp   phys.Species
	}{
		{"transport/zeros/alpha", newEngine(t), phys.Alpha},
		{"transport/checkerboard/proton", checker, phys.Proton},
		{"lut/zeros/alpha", lutEngine(t), phys.Alpha},
	} {
		tracks, err := tc.e.SampleTracksCtx(context.Background(), ch, tc.sp, 1, 3000, 5)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tracks) != 3000 {
			t.Fatalf("%s: %d tracks, want 3000", tc.name, len(tracks))
		}
		bounds := tc.e.Array().Bounds()
		fins := tc.e.Array().Fins()
		charged, flipping := 0, 0
		for i, tr := range tracks {
			if !onFace(bounds, tr.Entry) || !onFace(bounds, tr.Exit) {
				t.Fatalf("%s: track %d chord %+v → %+v off the array bounds %+v", tc.name, i, tr.Entry, tr.Exit, bounds)
			}
			for _, fi := range tr.StruckFins {
				f := fins[fi]
				if _, ok := sram.SensitiveAxisForRole(f.Role, tc.e.cfg.Pattern.Bit(f.Row, f.Col)); !ok {
					t.Fatalf("%s: track %d records fin %d, not sensitive under the pattern", tc.name, i, fi)
				}
			}
			if !(tr.POF >= 0 && tr.POF <= 1) {
				t.Fatalf("%s: track %d POF %v outside [0,1]", tc.name, i, tr.POF)
			}
			if tr.POF > 0 && len(tr.StruckFins) == 0 {
				t.Fatalf("%s: track %d has POF %v without a struck sensitive fin", tc.name, i, tr.POF)
			}
			if len(tr.StruckFins) > 0 {
				charged++
			}
			if tr.POF > 0 {
				flipping++
			}
		}
		if charged == 0 || flipping == 0 {
			t.Errorf("%s: %d tracks charged a sensitive fin, %d have POF > 0; want some of each", tc.name, charged, flipping)
		}
	}
}

func TestMBUMaxKClamp(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	rep := mustMBU(t, e, ch, phys.Alpha, 1, 2000, 1, 11) // maxK below minimum
	if len(rep.MultiplicityPMF) != 3 {                   // clamped to 2 → entries 0,1,2
		t.Errorf("PMF length = %d, want 3", len(rep.MultiplicityPMF))
	}
}

// MBU statistics at 8 workers must be bit-identical across runs: chunk
// sums merge in chunk order, not in the order workers finish.
func TestMBUStatsBitIdenticalAcrossRuns(t *testing.T) {
	ch, _, _ := fixtures(t)
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := mustMBU(t, e, ch, phys.Alpha, 1, 4000, 6, 3)
	for run := 1; run < 20; run++ {
		rep := mustMBU(t, e, ch, phys.Alpha, 1, 4000, 6, 3)
		if rep.MeanFlips != first.MeanFlips ||
			!reflect.DeepEqual(rep.MultiplicityPMF, first.MultiplicityPMF) ||
			!reflect.DeepEqual(rep.PairWeights, first.PairWeights) {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
}

// TestTotalPairWeightOrderFixed checks that TotalPairWeight sums in
// PairKeys order, so repeated calls agree to the bit. The first key in
// that order weighs 1 and the 15 others half an ulp of 1 each: in that
// order every half ulp rounds away and the sum is 1, while any order that
// puts two small weights before the 1 adds them up first and ends above 1,
// so a sum in map iteration order misses within a few calls.
func TestTotalPairWeightOrderFixed(t *testing.T) {
	rep := MBUReport{PairWeights: map[PairKey]float64{}}
	for r := 0; r < 4; r++ {
		for c := 1; c <= 4; c++ {
			rep.PairWeights[PairKey{DRow: r, DCol: c}] = 0x1p-53
		}
	}
	rep.PairWeights[PairKey{DRow: 0, DCol: 1}] = 1
	keys := rep.PairKeys()
	if keys[0] != (PairKey{DRow: 0, DCol: 1}) || keys[len(keys)-1] != (PairKey{DRow: 3, DCol: 4}) {
		t.Fatalf("PairKeys = %v, want (DRow, DCol) ascending", keys)
	}
	reversed := 0.0
	for i := len(keys) - 1; i >= 0; i-- {
		reversed += rep.PairWeights[keys[i]]
	}
	if reversed == 1 {
		t.Fatal("the weights sum to 1 in reverse order too; the test shows nothing")
	}
	for call := 0; call < 100; call++ {
		if got := rep.TotalPairWeight(); got != 1 {
			t.Fatalf("call %d: TotalPairWeight = %v, want 1, the PairKeys-order sum", call, got)
		}
	}
}
