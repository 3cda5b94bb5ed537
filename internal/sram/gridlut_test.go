package sram

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
)

func buildTestLUT(t *testing.T) (*Characterization, *GridLUT) {
	t.Helper()
	ch, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGridLUT(ch, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ch, g
}

func TestGridLUTSingleAxisAgreement(t *testing.T) {
	ch, g := buildTestLUT(t)
	med := ch.QcritQuantile(AxisI1, 0.5)
	for _, f := range []float64{0.3, 0.7, 0.9, 1.0, 1.1, 1.5, 3} {
		q := med * f
		want := ch.POFSingle(AxisI1, q)
		got := g.POF(chargeOn(AxisI1, q))
		if math.Abs(got-want) > 0.08 {
			t.Errorf("single-axis LUT at %v×median: %v vs reference %v", f, got, want)
		}
	}
	// Exactly zero below the grid floor and saturated above the ceiling.
	if g.POF(chargeOn(AxisI1, g.QGrid[0]/10)) != g.Single[AxisI1][0] {
		t.Error("below-floor lookup should clamp")
	}
	if got := g.POF(chargeOn(AxisI1, g.QGrid[len(g.QGrid)-1]*10)); got != 1 {
		t.Errorf("far-above-ceiling POF = %v, want 1", got)
	}
}

func TestGridLUTMultiAxisAgreement(t *testing.T) {
	ch, g := buildTestLUT(t)
	med := ch.QcritQuantile(AxisI1, 0.5)
	cases := [][NumAxes]float64{
		{med * 0.6, med * 0.6, 0},
		{med * 0.4, 0, med * 0.7},
		{0, med * 0.9, med * 0.3},
		{med * 0.4, med * 0.4, med * 0.4},
		{med * 1.2, med * 0.1, med * 0.1},
	}
	for _, q := range cases {
		want := ch.POF(q)
		got := g.POF(q)
		if math.Abs(got-want) > 0.15 {
			t.Errorf("multi-axis LUT at %v: %v vs reference %v", q, got, want)
		}
	}
}

func TestGridLUTMonotone(t *testing.T) {
	_, g := buildTestLUT(t)
	// Single-axis interpolation must be monotone in charge.
	prev := -1.0
	lo, hi := g.QGrid[0], g.QGrid[len(g.QGrid)-1]
	for f := 0.0; f <= 1.0; f += 0.01 {
		q := lo * math.Pow(hi/lo, f)
		v := g.POF(chargeOn(AxisI2, q))
		if v < prev-1e-12 {
			t.Fatalf("LUT not monotone at %v", q)
		}
		prev = v
	}
}

func TestGridLUTZeroVector(t *testing.T) {
	_, g := buildTestLUT(t)
	if g.POF([NumAxes]float64{}) != 0 {
		t.Error("zero vector should give 0")
	}
}

func TestGridLUTJSONRoundTrip(t *testing.T) {
	ch, g := buildTestLUT(t)
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGridLUT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI3, 0.5)
	for _, f := range []float64{0.5, 1, 2} {
		q := chargeOn(AxisI3, med*f)
		if got.POF(q) != g.POF(q) {
			t.Errorf("round-trip mismatch at %v×median", f)
		}
	}
}

func TestReadGridLUTRejectsGarbage(t *testing.T) {
	if _, err := ReadGridLUT(bytes.NewBufferString("{}")); err == nil {
		t.Error("empty LUT accepted")
	}
	if _, err := ReadGridLUT(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReadGridLUTRejectsFallingRow: a table whose single-axis POF falls
// with charge by more than the sampling tolerance is refused at load time,
// naming the row, while a dip within the tolerance loads.
func TestReadGridLUTRejectsFallingRow(t *testing.T) {
	_, g := buildTestLUT(t)
	row := g.Single[AxisI2]
	i := len(row) - 1 // the top of the curve, where there is room to fall
	if row[i-1] < 2*pofMonotoneTol {
		t.Fatalf("test LUT tops out at %g", row[i-1])
	}
	load := func(v float64) error {
		bad := *g
		bad.Single[AxisI2] = append([]float64(nil), row...)
		bad.Single[AxisI2][i] = v
		var buf bytes.Buffer
		if err := bad.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := ReadGridLUT(&buf)
		return err
	}
	err := load(row[i-1] - 2*pofMonotoneTol)
	if want := fmt.Sprintf("single[%d] falls with charge", AxisI2); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("falling row: err = %v, want %q", err, want)
	}
	if err := load(row[i-1] - pofMonotoneTol/2); err != nil {
		t.Fatalf("dip within the tolerance rejected: %v", err)
	}
}

func TestBuildGridLUTNominal(t *testing.T) {
	// A nominal (binary) characterization yields a step-like LUT.
	ch, err := CharacterizeCtx(context.Background(), CharConfig{Tech: tech(), Vdd: 0.8, ProcessVariation: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGridLUT(ch, 32, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	qc := ch.Axis[AxisI1][0]
	if got := g.POF(chargeOn(AxisI1, qc*0.2)); got != 0 {
		t.Errorf("well below Qcrit: %v, want 0", got)
	}
	if got := g.POF(chargeOn(AxisI1, qc*4)); got != 1 {
		t.Errorf("well above Qcrit: %v, want 1", got)
	}
}
