package sram

import (
	"testing"
)

func TestHoldSNMReasonable(t *testing.T) {
	res, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	// Hold SNM of a balanced 6T cell is a substantial fraction of Vdd/2.
	if res.SNM < 0.1 || res.SNM > 0.45 {
		t.Errorf("hold SNM = %v V at 0.8 V, implausible", res.SNM)
	}
	// A symmetric cell has near-equal margins per attacked state.
	if diff := res.Flip0 - res.Flip1; diff > 0.03 || diff < -0.03 {
		t.Errorf("margins asymmetric on a symmetric cell: %v vs %v", res.Flip0, res.Flip1)
	}
}

func TestSNMDecreasesWithVdd(t *testing.T) {
	prev := 0.0
	for _, vdd := range []float64{0.7, 0.9, 1.1} {
		res, err := StaticNoiseMargin(tech(), vdd, VthShifts{}, HoldMode)
		if err != nil {
			t.Fatal(err)
		}
		if res.SNM <= prev {
			t.Errorf("SNM(%v V) = %v not increasing with Vdd", vdd, res.SNM)
		}
		prev = res.SNM
	}
}

func TestReadSNMBelowHoldSNM(t *testing.T) {
	// The conducting pass gate degrades the low lobe: read SNM < hold SNM —
	// the textbook result, and the DC cousin of the read-mode Qcrit drop.
	hold, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	read, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	if read.SNM >= hold.SNM {
		t.Errorf("read SNM %v not below hold SNM %v", read.SNM, hold.SNM)
	}
	if read.SNM <= 0 {
		t.Error("read SNM should remain positive (cell is read-stable)")
	}
}

func TestSNMVariationSkewsLobes(t *testing.T) {
	// Skewing one inverter shrinks one lobe: the worst-case SNM drops.
	var sk VthShifts
	sk[PDL] = 0.09
	skewed, err := StaticNoiseMargin(tech(), 0.8, sk, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	nominal, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.SNM >= nominal.SNM {
		t.Errorf("skewed SNM %v not below nominal %v", skewed.SNM, nominal.SNM)
	}
}

func TestSNMTracksQcrit(t *testing.T) {
	// The DC and transient stability metrics must move together across Vdd:
	// their ratio should vary far less than either quantity.
	type point struct{ snm, qc float64 }
	var pts []point
	for _, vdd := range []float64{0.7, 1.1} {
		s, err := StaticNoiseMargin(tech(), vdd, VthShifts{}, HoldMode)
		if err != nil {
			t.Fatal(err)
		}
		cell := mustCell(t, vdd, VthShifts{})
		qc, err := cell.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{snm: s.SNM, qc: qc})
	}
	snmRatio := pts[1].snm / pts[0].snm
	qcRatio := pts[1].qc / pts[0].qc
	if snmRatio <= 1 || qcRatio <= 1 {
		t.Fatalf("both metrics should grow with Vdd: snm×%v qc×%v", snmRatio, qcRatio)
	}
	// Agreement within a factor of 2 on the growth rates.
	rel := snmRatio / qcRatio
	if rel < 0.5 || rel > 2 {
		t.Errorf("SNM and Qcrit diverge across Vdd: ratios %v vs %v", snmRatio, qcRatio)
	}
}

func TestSNMValidation(t *testing.T) {
	if _, err := StaticNoiseMargin(tech(), 0, VthShifts{}, HoldMode); err == nil {
		t.Error("zero vdd accepted")
	}
}
