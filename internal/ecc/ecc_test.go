package ecc

import (
	"math"
	"testing"

	"finser/internal/core"
)

func report(pairs map[core.PairKey]float64) core.MBUReport {
	return core.MBUReport{PairWeights: pairs}
}

func TestSchemeValidate(t *testing.T) {
	if err := (Scheme{Interleave: 0}).Validate(); err == nil {
		t.Error("zero interleave accepted")
	}
	if err := (Scheme{Interleave: 4}).Validate(); err != nil {
		t.Errorf("valid scheme rejected: %v", err)
	}
	if _, err := Analyze(core.MBUReport{}, Scheme{Interleave: -1}); err == nil {
		t.Error("Analyze accepted bad scheme")
	}
}

func TestSameWord(t *testing.T) {
	s := Scheme{Interleave: 4, SameRowOnly: true}
	cases := []struct {
		dr, dc int
		want   bool
	}{
		{0, 0, true},  // same cell position class
		{0, 4, true},  // one word apart in interleave stride
		{0, -8, true}, // negative separations normalize
		{0, 1, false}, // adjacent columns → different words
		{0, 3, false}, //
		{1, 4, false}, // different rows excluded when SameRowOnly
		{2, 0, false}, //
	}
	for _, c := range cases {
		if got := s.SameWord(c.dr, c.dc); got != c.want {
			t.Errorf("SameWord(%d,%d) = %v, want %v", c.dr, c.dc, got, c.want)
		}
	}
	// Without the row restriction, cross-row pairs can share a word.
	s2 := Scheme{Interleave: 4}
	if !s2.SameWord(1, 4) {
		t.Error("cross-row same-word pair rejected without SameRowOnly")
	}
	// No interleaving: every same-row pair shares a word.
	s3 := Scheme{Interleave: 1, SameRowOnly: true}
	if !s3.SameWord(0, 1) || !s3.SameWord(0, 7) {
		t.Error("interleave=1 should put all same-row pairs in one word")
	}
}

func TestAnalyze(t *testing.T) {
	rep := report(map[core.PairKey]float64{
		{DRow: 0, DCol: 1}: 0.6, // adjacent-column pair (the common MBU)
		{DRow: 0, DCol: 4}: 0.1, // rare long-range pair
		{DRow: 1, DCol: 0}: 0.3, // adjacent-row pair
	})
	a, err := Analyze(rep, Scheme{Interleave: 4, SameRowOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.TotalPairWeight-1.0) > 1e-12 {
		t.Errorf("total = %v", a.TotalPairWeight)
	}
	if math.Abs(a.SameWordPairWeight-0.1) > 1e-12 {
		t.Errorf("same-word = %v", a.SameWordPairWeight)
	}
	if math.Abs(a.UncorrectableShare-0.1) > 1e-12 {
		t.Errorf("share = %v", a.UncorrectableShare)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	a, err := Analyze(report(nil), Scheme{Interleave: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.UncorrectableShare != 0 || a.TotalPairWeight != 0 {
		t.Error("empty report should yield zeros")
	}
}

func TestResidualMBUFIT(t *testing.T) {
	a := Analysis{UncorrectableShare: 0.25}
	if got := ResidualMBUFIT(8.0, a); got != 2.0 {
		t.Errorf("residual = %v", got)
	}
}

func TestInterleaveSweepMonotone(t *testing.T) {
	// MBU pairs concentrate at small column separations, so increasing the
	// interleave factor must not increase the uncorrectable share.
	rep := report(map[core.PairKey]float64{
		{DRow: 0, DCol: 1}: 0.55,
		{DRow: 0, DCol: 2}: 0.25,
		{DRow: 0, DCol: 3}: 0.10,
		{DRow: 0, DCol: 4}: 0.06,
		{DRow: 0, DCol: 6}: 0.03,
		{DRow: 0, DCol: 8}: 0.01,
	})
	factors := []int{1, 2, 4, 8}
	as, err := InterleaveSweep(rep, factors, true)
	if err != nil {
		t.Fatal(err)
	}
	if as[0].UncorrectableShare != 1 {
		t.Errorf("no interleaving should leave all pairs uncorrectable, got %v",
			as[0].UncorrectableShare)
	}
	prev := math.Inf(1)
	for i, a := range as {
		if a.UncorrectableShare > prev+1e-12 {
			t.Errorf("share not non-increasing at factor %d", factors[i])
		}
		prev = a.UncorrectableShare
	}
	if last := as[len(as)-1].UncorrectableShare; last != 0.01 {
		t.Errorf("8-way interleave share = %v, want 0.01", last)
	}
	if _, err := InterleaveSweep(rep, []int{0}, true); err == nil {
		t.Error("bad factor accepted")
	}
}

// TestAnalyzeSumsInKeyOrder checks that Analyze sums the pair weights in
// the report's PairKeys order, so repeated calls agree to the bit. The
// first key in that order weighs 1 and the 15 others half an ulp of 1
// each: in that order the sum is 1, and in any order that puts two small
// weights before the 1 it exceeds 1.
func TestAnalyzeSumsInKeyOrder(t *testing.T) {
	pairs := map[core.PairKey]float64{}
	for r := 0; r < 4; r++ {
		for c := 1; c <= 4; c++ {
			pairs[core.PairKey{DRow: r, DCol: c}] = 0x1p-53
		}
	}
	pairs[core.PairKey{DRow: 0, DCol: 1}] = 1
	rep := report(pairs)
	for call := 0; call < 100; call++ {
		a, err := Analyze(rep, Scheme{Interleave: 1}) // every pair lands in one word
		if err != nil {
			t.Fatal(err)
		}
		if a.TotalPairWeight != 1 || a.SameWordPairWeight != 1 {
			t.Fatalf("call %d: total %v, same-word %v; want both 1, the PairKeys-order sum",
				call, a.TotalPairWeight, a.SameWordPairWeight)
		}
	}
}
