package sram

import (
	"testing"
)

func TestWriteMarginBasics(t *testing.T) {
	wm, err := WriteMargin(tech(), 0.8, VthShifts{})
	if err != nil {
		t.Fatal(err)
	}
	// A functional cell writes with comfortable WL headroom: the margin is
	// a substantial fraction of Vdd but below it (some WL drive is needed).
	if wm < 0.1 || wm > 0.75 {
		t.Errorf("write margin = %v V at Vdd=0.8, implausible", wm)
	}
	if _, err := WriteMargin(tech(), 0, VthShifts{}); err == nil {
		t.Error("zero vdd accepted")
	}
}

func TestWriteMarginGrowsWithVdd(t *testing.T) {
	prev := 0.0
	for _, vdd := range []float64{0.7, 0.9, 1.1} {
		wm, err := WriteMargin(tech(), vdd, VthShifts{})
		if err != nil {
			t.Fatal(err)
		}
		if wm <= prev {
			t.Errorf("write margin not increasing at %v V: %v", vdd, wm)
		}
		prev = wm
	}
}

func TestWriteMarginStrongPassGateHelps(t *testing.T) {
	// A stronger pass gate (lower Vth) writes more easily.
	var strong VthShifts
	strong[PGL] = -0.06
	strong[PGR] = -0.06
	wmStrong, err := WriteMargin(tech(), 0.8, strong)
	if err != nil {
		t.Fatal(err)
	}
	wmNom, err := WriteMargin(tech(), 0.8, VthShifts{})
	if err != nil {
		t.Fatal(err)
	}
	if wmStrong <= wmNom {
		t.Errorf("strong pass gate margin %v not above nominal %v", wmStrong, wmNom)
	}
	// A stronger holding pull-up (on the Q=1 side, PUL) fights the write.
	var stubborn VthShifts
	stubborn[PUL] = -0.08
	wmStubborn, err := WriteMargin(tech(), 0.8, stubborn)
	if err != nil {
		t.Fatal(err)
	}
	if wmStubborn >= wmNom {
		t.Errorf("stronger pull-up margin %v not below nominal %v", wmStubborn, wmNom)
	}
}

func TestWriteMarginReadStabilityTradeoff(t *testing.T) {
	// Upsizing the pull-downs improves read SNM but must not improve the
	// write margin (the classic design trade-off).
	t2 := tech()
	t2.FinsPD = 2
	wm2, err := WriteMargin(t2, 0.8, VthShifts{})
	if err != nil {
		t.Fatal(err)
	}
	wm1, err := WriteMargin(tech(), 0.8, VthShifts{})
	if err != nil {
		t.Fatal(err)
	}
	if wm2 > wm1+1e-3 {
		t.Errorf("2-fin PD write margin %v above 1-fin %v", wm2, wm1)
	}
	r2, err := StaticNoiseMargin(t2, 0.8, VthShifts{}, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SNM <= r1.SNM {
		t.Errorf("2-fin PD read SNM %v not above 1-fin %v", r2.SNM, r1.SNM)
	}
}
