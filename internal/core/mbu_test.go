package core

import (
	"math"
	"reflect"
	"testing"

	"finser/internal/finfet"
	"finser/internal/phys"
	"finser/internal/transport"
)

func TestMBUStatsBasics(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rep := mustMBU(t, e, phys.Alpha, 1, 40000, 6, 3)
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
	e := engineWith(t, ch)
	rep := mustMBU(t, e, phys.Alpha, 1, 40000, 6, 5)
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
	// The marginal quantities must agree with the primary estimator:
	// P(≥1 flip) from the PMF ≈ POFtot, and the pair-derived MBU ≈ POFMBU.
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rep := mustMBU(t, e, phys.Alpha, 1, 60000, 6, 7)
	pt := mustPOF(t, e, phys.Alpha, 1, 60000, 7)
	pGe1 := 1 - rep.MultiplicityPMF[0]
	if pt.Tot == 0 {
		t.Fatal("zero POF in cross-check")
	}
	if r := pGe1 / pt.Tot; r < 0.9 || r > 1.1 {
		t.Errorf("PMF P(≥1) / POFtot = %v, want ≈ 1", r)
	}
	pGe2 := pGe1 - rep.MultiplicityPMF[1]
	if r := pGe2 / pt.MBU; r < 0.8 || r > 1.25 {
		t.Errorf("PMF P(≥2) / POFMBU = %v, want ≈ 1", r)
	}
}

func TestMBUMaxKClamp(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	rep := mustMBU(t, e, phys.Alpha, 1, 2000, 1, 11) // maxK below minimum
	if len(rep.MultiplicityPMF) != 3 {               // clamped to 2 → entries 0,1,2
		t.Errorf("PMF length = %d, want 3", len(rep.MultiplicityPMF))
	}
}

// MBU statistics at 8 workers must be bit-identical across runs: worker
// sums merge in worker order, not in the order workers finish.
func TestMBUStatsBitIdenticalAcrossRuns(t *testing.T) {
	ch, _, _ := fixtures(t)
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Char: ch, Transport: transport.DefaultConfig(), Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := mustMBU(t, e, phys.Alpha, 1, 4000, 6, 3)
	for run := 1; run < 20; run++ {
		rep := mustMBU(t, e, phys.Alpha, 1, 4000, 6, 3)
		if rep.MeanFlips != first.MeanFlips ||
			!reflect.DeepEqual(rep.MultiplicityPMF, first.MultiplicityPMF) ||
			!reflect.DeepEqual(rep.PairWeights, first.PairWeights) {
			t.Fatalf("run %d differs from run 0", run)
		}
	}
}
