package sram

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

func tech() finfet.Technology { return finfet.Default14nmSOI() }

func mustCell(t *testing.T, vdd float64, shifts VthShifts) *Cell {
	t.Helper()
	c, err := NewCell(tech(), vdd, shifts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoleAndAxisStrings(t *testing.T) {
	if PUL.String() != "pu_l" || PGR.String() != "pg_r" {
		t.Error("role names wrong")
	}
	if Role(99).String() == "" || Axis(9).String() == "" {
		t.Error("out-of-range strings empty")
	}
	if AxisI1.String() != "I1(pu)" {
		t.Error("axis name wrong")
	}
}

func TestSensitiveRoleMapping(t *testing.T) {
	// Canonical state Q=0.
	if AxisI1.SensitiveRole() != PUL || AxisI2.SensitiveRole() != PDR || AxisI3.SensitiveRole() != PGL {
		t.Error("axis→role mapping wrong")
	}
	// Role→axis for both stored bits; exactly three sensitive roles each.
	for _, bit := range []bool{false, true} {
		n := 0
		for r := Role(0); r < NumRoles; r++ {
			if _, ok := SensitiveAxisForRole(r, bit); ok {
				n++
			}
		}
		if n != 3 {
			t.Errorf("bit=%v: %d sensitive roles, want 3", bit, n)
		}
	}
	// Mirror property: the sensitive set for bit=1 is the L/R mirror.
	if a, ok := SensitiveAxisForRole(PUR, true); !ok || a != AxisI1 {
		t.Error("PUR should be I1 for bit=1")
	}
	if a, ok := SensitiveAxisForRole(PDL, true); !ok || a != AxisI2 {
		t.Error("PDL should be I2 for bit=1")
	}
	if _, ok := SensitiveAxisForRole(PUL, true); ok {
		t.Error("PUL should not be sensitive for bit=1")
	}
}

func TestCellHoldState(t *testing.T) {
	for _, vdd := range []float64{0.7, 0.9, 1.1} {
		c := mustCell(t, vdd, VthShifts{})
		q, qb := c.HoldVoltages()
		if q > 0.02*vdd {
			t.Errorf("vdd=%v: q=%v not low", vdd, q)
		}
		if qb < 0.98*vdd {
			t.Errorf("vdd=%v: qb=%v not high", vdd, qb)
		}
	}
}

func TestNewCellValidation(t *testing.T) {
	if _, err := NewCell(tech(), 0, VthShifts{}); err == nil {
		t.Error("zero vdd accepted")
	}
	if _, err := NewCell(tech(), -0.8, VthShifts{}); err == nil {
		t.Error("negative vdd accepted")
	}
}

func TestNoStrikeNoFlip(t *testing.T) {
	c := mustCell(t, 0.8, VthShifts{})
	res, err := c.SimulateStrike([NumAxes]float64{}, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flipped {
		t.Error("cell flipped with no strike")
	}
	if res.QFinal > 0.05 || res.QBFinal < 0.75 {
		t.Errorf("hold state drifted: q=%v qb=%v", res.QFinal, res.QBFinal)
	}
}

func TestStrikeFlipMonotoneInCharge(t *testing.T) {
	c := mustCell(t, 0.8, VthShifts{})
	for _, axis := range []Axis{AxisI1, AxisI2, AxisI3} {
		small, err := c.SimulateStrike(chargeOn(axis, 1e-17), ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		big, err := c.SimulateStrike(chargeOn(axis, 1e-15), ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		if small.Flipped {
			t.Errorf("axis %v: 0.01 fC flipped the cell", axis)
		}
		if !big.Flipped {
			t.Errorf("axis %v: 1 fC did not flip the cell", axis)
		}
	}
}

func chargeOn(a Axis, q float64) [NumAxes]float64 {
	var out [NumAxes]float64
	out[a] = q
	return out
}

func TestCriticalChargeBisection(t *testing.T) {
	c := mustCell(t, 0.8, VthShifts{})
	qc, err := c.CriticalCharge(AxisI1, 1e-18, 2e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if qc < 1e-17 || qc > 1e-15 {
		t.Fatalf("Qcrit = %v C, implausible", qc)
	}
	// Just below must not flip; just above must flip.
	below, _ := c.SimulateStrike(chargeOn(AxisI1, qc*0.9), ShapeRect)
	above, _ := c.SimulateStrike(chargeOn(AxisI1, qc*1.1), ShapeRect)
	if below.Flipped {
		t.Error("charge below Qcrit flipped")
	}
	if !above.Flipped {
		t.Error("charge above Qcrit did not flip")
	}
}

func TestCriticalChargeEdgeCases(t *testing.T) {
	c := mustCell(t, 0.8, VthShifts{})
	if _, err := c.CriticalCharge(AxisI1, 0, 1e-15, ShapeRect); err == nil {
		t.Error("zero lo accepted")
	}
	if _, err := c.CriticalCharge(AxisI1, 1e-15, 1e-16, ShapeRect); err == nil {
		t.Error("inverted bracket accepted")
	}
	// hi too small to flip → +Inf.
	qc, err := c.CriticalCharge(AxisI1, 1e-19, 1e-18, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(qc, 1) {
		t.Errorf("unflippable bracket gave %v, want +Inf", qc)
	}
	// lo already flips → lo.
	qc, err = c.CriticalCharge(AxisI1, 1e-15, 1e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if qc != 1e-15 {
		t.Errorf("always-flipping bracket gave %v, want lo", qc)
	}
}

func TestQcritIncreasesWithVdd(t *testing.T) {
	// Paper Fig. 8/9 mechanism: cells are more robust at higher supply.
	prev := 0.0
	for _, vdd := range []float64{0.7, 0.8, 0.9, 1.0, 1.1} {
		c := mustCell(t, vdd, VthShifts{})
		qc, err := c.CriticalCharge(AxisI1, 1e-18, 2e-14, ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		if qc <= prev {
			t.Errorf("Qcrit(%v V) = %v not increasing", vdd, qc)
		}
		prev = qc
	}
}

func TestPulseShapeEquivalence(t *testing.T) {
	// Paper §4: POF depends on deposited charge, not pulse width or shape.
	// Critical charges across rect/triangle/double-exp must agree within a
	// few percent.
	c := mustCell(t, 0.8, VthShifts{})
	var qcs []float64
	for _, shape := range []PulseShape{ShapeRect, ShapeTriangle, ShapeDoubleExp} {
		qc, err := c.CriticalCharge(AxisI2, 1e-18, 2e-14, shape)
		if err != nil {
			t.Fatal(err)
		}
		qcs = append(qcs, qc)
	}
	for i := 1; i < len(qcs); i++ {
		if r := qcs[i] / qcs[0]; r < 0.93 || r > 1.07 {
			t.Errorf("shape %d Qcrit ratio = %v, want ≈ 1 (charge equivalence)", i, r)
		}
	}
}

func TestPulseWidthInsensitivity(t *testing.T) {
	// Same charge at 1× and 4× the transit-time width: same flip outcome
	// near threshold (POF has "no sensitivity to the current pulse width").
	c := mustCell(t, 0.8, VthShifts{})
	qc, err := c.CriticalCharge(AxisI1, 1e-18, 2e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	tau := c.Tech.TransitTime(c.Vdd)
	for _, widthScale := range []float64{0.5, 2, 4} {
		// Re-arm manually with a scaled-width, equal-charge pulse.
		q := qc * 1.15
		c.strikes[AxisI1].w = buildPulseWidth(q, tau*widthScale)
		res, err := c.runArmed(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Flipped {
			t.Errorf("width ×%v: equal charge did not flip", widthScale)
		}
		c.strikes[AxisI1].w = buildPulseWidth(qc*0.85, tau*widthScale)
		res, err = c.runArmed(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Flipped {
			t.Errorf("width ×%v: sub-critical charge flipped", widthScale)
		}
		c.strikes[AxisI1].w = nil
	}
}

func TestVthShiftMovesQcrit(t *testing.T) {
	// Weakening the restoring pull-down (higher Vth on PDL) makes the cell
	// easier to flip via I1.
	nom := mustCell(t, 0.8, VthShifts{})
	qNom, err := nom.CriticalCharge(AxisI1, 1e-18, 2e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	var weak VthShifts
	weak[PDL] = 0.09 // +3σ
	wc := mustCell(t, 0.8, weak)
	qWeak, err := wc.CriticalCharge(AxisI1, 1e-18, 2e-14, ShapeRect)
	if err != nil {
		t.Fatal(err)
	}
	if qWeak >= qNom {
		t.Errorf("weakened cell Qcrit %v >= nominal %v", qWeak, qNom)
	}
}

func TestCharacterizeNominal(t *testing.T) {
	ch, err := CharacterizeCtx(context.Background(), CharConfig{Tech: tech(), Vdd: 0.8, ProcessVariation: false, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Samples != 1 || ch.PV {
		t.Fatalf("nominal characterization has %d samples, PV=%v", ch.Samples, ch.PV)
	}
	qc := ch.Axis[AxisI1][0]
	// Binary POF: 0 below, 1 at/above.
	if p := ch.POFSingle(AxisI1, qc*0.99); p != 0 {
		t.Errorf("POF below Qcrit = %v, want 0", p)
	}
	if p := ch.POFSingle(AxisI1, qc*1.01); p != 1 {
		t.Errorf("POF above Qcrit = %v, want 1", p)
	}
	if p := ch.POFSingle(AxisI1, -1); p != 0 {
		t.Errorf("POF of negative charge = %v", p)
	}
}

func TestCharacterizePV(t *testing.T) {
	ch, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 60, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ch.Samples != 60 {
		t.Fatalf("samples = %d", ch.Samples)
	}
	// POF is a smooth, monotone function of charge between 0 and 1.
	med := ch.QcritQuantile(AxisI1, 0.5)
	prev := -1.0
	sawFraction := false
	for _, f := range []float64{0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 2} {
		p := ch.POFSingle(AxisI1, med*f)
		if p < prev {
			t.Errorf("POF not monotone at %v×median", f)
		}
		if p > 0 && p < 1 {
			sawFraction = true
		}
		prev = p
	}
	if !sawFraction {
		t.Error("PV characterization produced no fractional POF values")
	}
	// The variation spread must widen the distribution: some sample below
	// 0.9× median and some above 1.1× median.
	if ch.POFSingle(AxisI1, med*0.9) <= 0 && ch.POFSingle(AxisI1, med*1.1) >= 1 {
		t.Error("Qcrit distribution suspiciously narrow")
	}
}

func TestCharacterizeDeterministic(t *testing.T) {
	// Identical runs, and runs on any number of workers, agree bit for bit:
	// the guide every sample's bisection starts from depends on sample 0
	// alone.
	cfg := CharConfig{Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 10, Seed: 42, Workers: 1}
	a, err := CharacterizeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		cfg.Workers = workers
		b, err := CharacterizeCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for ax := range a.Axis {
			for i := range a.Axis[ax] {
				if math.Float64bits(a.Axis[ax][i]) != math.Float64bits(b.Axis[ax][i]) {
					t.Fatalf("workers=%d: axis %d sample %d differs from the 1-worker run", workers, ax, i)
				}
			}
		}
	}
}

func TestPOFVectorConsistency(t *testing.T) {
	ch, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	med := ch.QcritQuantile(AxisI2, 0.5)
	// Zero vector → 0.
	if ch.POF([NumAxes]float64{}) != 0 {
		t.Error("POF of zero vector not 0")
	}
	// Single-axis vector agrees with POFSingle.
	v := chargeOn(AxisI2, med)
	if got, want := ch.POF(v), ch.POFSingle(AxisI2, med); math.Abs(got-want) > 1e-12 {
		t.Errorf("vector POF %v != single POF %v", got, want)
	}
	// Adding charge on a second axis can only increase POF.
	v2 := v
	v2[AxisI1] = med / 2
	if ch.POF(v2) < ch.POF(v) {
		t.Error("adding charge decreased POF")
	}
	// Splitting the critical charge across two equivalent axes still flips
	// under the linear surface when the halves sum past the surface.
	var split [NumAxes]float64
	split[AxisI1] = ch.QcritQuantile(AxisI1, 0.95)
	split[AxisI2] = ch.QcritQuantile(AxisI2, 0.95)
	if p := ch.POF(split); p < 0.9 {
		t.Errorf("two near-critical charges give POF %v, want ≈ 1", p)
	}
}

// TestCharacterizationJSONRoundTrip writes and reads back a variation
// characterization and a mixed one whose second sample no charge flips
// (+Inf, spelled null in JSON): every Qcrit and every POF survives.
func TestCharacterizationJSONRoundTrip(t *testing.T) {
	pv, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.7, ProcessVariation: true, Samples: 12, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	nom, err := CharacterizeCtx(context.Background(), CharConfig{Tech: tech(), Vdd: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed := &Characterization{Vdd: 0.8, Samples: 2, Shifts: make([]VthShifts, 2)}
	for a := range mixed.Axis {
		mixed.Axis[a] = []float64{nom.Axis[a][0], math.Inf(1)}
	}
	if err := mixed.finish(); err != nil {
		t.Fatal(err)
	}
	for name, ch := range map[string]*Characterization{"variation": pv, "mixed +Inf": mixed} {
		var buf bytes.Buffer
		if err := ch.WriteJSON(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadCharacterization(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Axis, ch.Axis) || got.Vdd != ch.Vdd || got.PV != ch.PV {
			t.Errorf("%s: round trip changed the characterization:\n got  %v\n want %v", name, got.Axis, ch.Axis)
		}
		med := ch.QcritQuantile(AxisI3, 0.5)
		for _, f := range []float64{0.5, 1, 1.5} {
			if got.POFSingle(AxisI3, med*f) != ch.POFSingle(AxisI3, med*f) {
				t.Errorf("%s: round-trip POF differs at %v×median", name, f)
			}
		}
	}
}

func TestReadCharacterizationRejectsGarbage(t *testing.T) {
	if _, err := ReadCharacterization(bytes.NewBufferString("nope")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadCharacterization(bytes.NewBufferString(`{"samples":5,"axis_qcrit":[[1],[1],[1]]}`)); err == nil {
		t.Error("inconsistent sample count accepted")
	}
	for name, body := range map[string]string{
		"zero":          `{"vdd":0.8,"samples":1,"axis_qcrit":[[0],[1e-16],[1e-16]]}`,
		"negative":      `{"vdd":0.8,"samples":1,"axis_qcrit":[[-1e-16],[1e-16],[1e-16]]}`,
		"unknown field": `{"vdd":0.8,"samples":1,"axis_qcrit":[[1e-16],[1e-16],[1e-16]],"bogus":1}`,
	} {
		if _, err := ReadCharacterization(bytes.NewBufferString(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ch := &Characterization{Vdd: 0.8, Samples: 1}
	for _, q := range []float64{math.NaN(), math.Inf(-1)} {
		for a := range ch.Axis {
			ch.Axis[a] = []float64{q}
		}
		if _, err := json.Marshal(ch); err == nil {
			t.Errorf("critical charge %v marshaled", q)
		}
	}
}

func TestValidateFlipSurface(t *testing.T) {
	cfg := CharConfig{Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 15, Seed: 5}
	ch, err := CharacterizeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	agreement, err := ch.ValidateFlipSurface(cfg, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	// The linear surface is an approximation; it must agree with direct
	// simulation on a strong majority of near-surface strikes.
	if agreement < 0.8 {
		t.Errorf("flip-surface agreement = %v, want ≥ 0.8", agreement)
	}
}

// --- helpers for the width-insensitivity test ---

func buildPulseWidth(charge, width float64) waveformAlias {
	return waveformAlias{t0: strikeStart, width: width, amp: charge / width}
}

type waveformAlias struct{ t0, width, amp float64 }

func (w waveformAlias) Value(t float64) float64 {
	if t >= w.t0 && t < w.t0+w.width {
		return w.amp
	}
	return 0
}

func (w waveformAlias) Breakpoints() []float64 { return []float64{w.t0, w.t0 + w.width} }

// runArmed runs the transient with the currently armed strike sources from
// t = 0, not from the cell's saved state, ending early once settled (when
// non-nil) says the cell has settled.
func (c *Cell) runArmed(settled func(float64, circuit.Solution) bool) (StrikeResult, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	res, err := c.ckt.Transient(c.init, circuit.TransientSpec{
		TStop:    simWindow,
		InitStep: tau / 8,
		MaxStep:  simWindow / 40,
		Settled:  settled,
	})
	if err != nil {
		return StrikeResult{}, err
	}
	return StrikeResult{
		Flipped: res.Final(c.q) > res.Final(c.qb),
		QFinal:  res.Final(c.q),
		QBFinal: res.Final(c.qb),
	}, nil
}
