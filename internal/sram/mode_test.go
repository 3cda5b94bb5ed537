package sram

import (
	"testing"
)

func TestCellModeString(t *testing.T) {
	if HoldMode.String() != "hold" || ReadMode.String() != "read" {
		t.Error("mode names wrong")
	}
}

func TestReadModeDisturbsZeroNode(t *testing.T) {
	rd, err := NewCellMode(tech(), 0.8, VthShifts{}, ReadMode)
	if err != nil {
		t.Fatal(err)
	}
	hold := mustCell(t, 0.8, VthShifts{})
	// The conducting pass gate lifts Q above the hold level but keeps it
	// below the read-stability bound.
	if rd.ReadDisturbVoltage() <= hold.ReadDisturbVoltage() {
		t.Errorf("read disturb %v not above hold level %v",
			rd.ReadDisturbVoltage(), hold.ReadDisturbVoltage())
	}
	if rd.ReadDisturbVoltage() <= 0.01 {
		t.Errorf("read disturb %v suspiciously small", rd.ReadDisturbVoltage())
	}
	// QB stays high.
	_, qb := rd.HoldVoltages()
	if qb < 0.75*0.8 {
		t.Errorf("read-mode qb = %v", qb)
	}
}

func TestNewCellModeHoldDelegates(t *testing.T) {
	a, err := NewCellMode(tech(), 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	b := mustCell(t, 0.8, VthShifts{})
	qa, _ := a.HoldVoltages()
	qb, _ := b.HoldVoltages()
	if qa != qb {
		t.Error("HoldMode should match NewCell")
	}
	if _, err := NewCellMode(tech(), 0, VthShifts{}, ReadMode); err == nil {
		t.Error("zero vdd accepted in read mode")
	}
}

func TestReadModeLowersCriticalCharge(t *testing.T) {
	// Accessed cells are the soft spot: the eroded noise margin lowers the
	// critical charge on both remaining sensitive axes.
	for _, vdd := range []float64{0.8, 1.0} {
		hold := mustCell(t, vdd, VthShifts{})
		rd, err := NewCellMode(tech(), vdd, VthShifts{}, ReadMode)
		if err != nil {
			t.Fatal(err)
		}
		for _, axis := range []Axis{AxisI1, AxisI2} {
			qh, err := hold.CriticalCharge(axis, 1e-18, 5e-14, ShapeRect)
			if err != nil {
				t.Fatal(err)
			}
			qr, err := rd.CriticalCharge(axis, 1e-18, 5e-14, ShapeRect)
			if err != nil {
				t.Fatal(err)
			}
			if qr >= qh {
				t.Errorf("vdd=%v axis %v: read Qcrit %v not below hold %v", vdd, axis, qr, qh)
			}
		}
	}
}

func TestTemperatureEffects(t *testing.T) {
	// Temperature shifts both inverters symmetrically, so the separatrix of
	// a balanced cell barely moves: the charge-dominated Qcrit is nearly
	// temperature-invariant (a genuine prediction of the SOI femtosecond-
	// pulse regime). The DC stability, however, degrades: the shallower
	// subthreshold slope at high T reduces inverter gain and with it the
	// static noise margin.
	cold := mustCell(t, 0.8, VthShifts{})
	hotTech := tech().AtTemperature(400)
	hot, err := NewCell(hotTech, 0.8, VthShifts{})
	if err != nil {
		t.Fatal(err)
	}
	qCold, err := cold.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	qHot, err := hot.CriticalCharge(AxisI1, 1e-18, 5e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if r := qHot / qCold; r < 0.95 || r > 1.05 {
		t.Errorf("Qcrit temperature drift %v, expected near-invariance", r)
	}
	sCold, err := StaticNoiseMargin(tech(), 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	sHot, err := StaticNoiseMargin(hotTech, 0.8, VthShifts{}, HoldMode)
	if err != nil {
		t.Fatal(err)
	}
	if sHot.SNM >= sCold.SNM {
		t.Errorf("hot SNM %v not below cold %v", sHot.SNM, sCold.SNM)
	}
}
