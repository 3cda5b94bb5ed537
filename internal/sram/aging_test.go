package sram

import (
	"context"
	"math"
	"testing"
)

func TestBTIShiftScaling(t *testing.T) {
	m := DefaultBTI()
	// Definitional anchor: 10 years at full duty gives the 10-year shift.
	if got := m.Shift(m.NBTIShift10y, 10, 1); math.Abs(got-0.040) > 1e-12 {
		t.Errorf("10y shift = %v", got)
	}
	// Power law in time: doubling time scales by 2^n.
	r := m.Shift(0.04, 20, 1) / m.Shift(0.04, 10, 1)
	if math.Abs(r-math.Pow(2, m.Exponent)) > 1e-9 {
		t.Errorf("time scaling = %v", r)
	}
	// Zero age or duty → zero shift; duty clamps at 1.
	if m.Shift(0.04, 0, 1) != 0 || m.Shift(0.04, 10, 0) != 0 {
		t.Error("degenerate stress should give zero shift")
	}
	if m.Shift(0.04, 10, 2) != m.Shift(0.04, 10, 1) {
		t.Error("duty not clamped")
	}
	// Monotone in years.
	prev := 0.0
	for y := 1.0; y <= 16; y *= 2 {
		v := m.Shift(0.04, y, 1)
		if v <= prev {
			t.Fatalf("shift not monotone at %v years", y)
		}
		prev = v
	}
}

func TestAgedShiftsStressMap(t *testing.T) {
	m := DefaultBTI()
	// Pure Q=0 lifetime: only PUR (NBTI) and PDL (PBTI) age.
	s, err := AgedShifts(m, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s[PUR] != 0.040 || math.Abs(s[PDL]-0.020) > 1e-12 {
		t.Errorf("stressed pair shifts wrong: PUR=%v PDL=%v", s[PUR], s[PDL])
	}
	if s[PUL] != 0 || s[PDR] != 0 || s[PGL] != 0 || s[PGR] != 0 {
		t.Errorf("unstressed transistors aged: %+v", s)
	}
	// Balanced duty stresses both sides equally (but less than full duty).
	sb, err := AgedShifts(m, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if sb[PUL] != sb[PUR] || sb[PDL] != sb[PDR] {
		t.Errorf("balanced duty not symmetric: %+v", sb)
	}
	if sb[PUR] >= s[PUR] {
		t.Error("half duty should age less than full duty")
	}
	// Validation.
	if _, err := AgedShifts(m, -1, 0.5); err == nil {
		t.Error("negative age accepted")
	}
	if _, err := AgedShifts(m, 1, 1.5); err == nil {
		t.Error("duty > 1 accepted")
	}
}

func TestAgingCreatesSERAsymmetry(t *testing.T) {
	// The headline result: a cell that mostly held one value becomes easier
	// to flip out of that value — aging converts symmetric SER into
	// data-dependent SER.
	m := DefaultBTI()
	fresh := mustCell(t, 0.8, VthShifts{})
	aged, err := AgedCell(tech(), 0.8, m, 10, 1) // 10 years holding Q=0
	if err != nil {
		t.Fatal(err)
	}
	qFresh, err := fresh.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	// Axis I1 attacks the held Q=0 state; the aged PUR (its restoring
	// feedback inverter's pull-up) is weakened.
	qAged, err := aged.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if qAged >= qFresh {
		t.Errorf("aged Qcrit %v not below fresh %v", qAged, qFresh)
	}
	// The asymmetry: the aged cell's SNM against flipping the held state
	// drops below the margin against the opposite flip.
	shifts, _ := AgedShifts(m, 10, 1)
	snm, err := StaticNoiseMargin(tech(), 0.8, shifts, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snm.Flip0-snm.Flip1) < 0.003 {
		t.Errorf("aged cell margins not asymmetric: %v vs %v", snm.Flip0, snm.Flip1)
	}
}

func TestBalancedAgingStaysSymmetric(t *testing.T) {
	m := DefaultBTI()
	shifts, err := AgedShifts(m, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	snm, err := StaticNoiseMargin(tech(), 0.8, shifts, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(snm.Flip0-snm.Flip1) > 0.005 {
		t.Errorf("balanced aging produced asymmetry: %v vs %v", snm.Flip0, snm.Flip1)
	}
}

func TestCharacterizeWithBaseShifts(t *testing.T) {
	// An aged baseline under process variation: the characterization's
	// median Qcrit on the attacked axis drops relative to the fresh cell.
	m := DefaultBTI()
	aged, err := AgedShifts(m, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 30, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	old, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 30, Seed: 1,
		BaseShifts: aged,
	})
	if err != nil {
		t.Fatal(err)
	}
	if old.QcritQuantile(AxisI1, 0.5) >= fresh.QcritQuantile(AxisI1, 0.5) {
		t.Errorf("aged median Qcrit %v not below fresh %v",
			old.QcritQuantile(AxisI1, 0.5), fresh.QcritQuantile(AxisI1, 0.5))
	}
}
