package sram

import (
	"fmt"
	"math"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// Static noise margin (SNM) extraction, by Seevinck's operational
// definition: the largest DC noise voltage that can be inserted in series
// with both inverter inputs, in the worst-case polarity, without
// destroying the stored state. It is the DC counterpart of the critical
// charge (both measure the same separatrix), so the two must track each
// other across supply voltage and operating mode; the flow uses SNM as an
// independent cross-check on the transient Qcrit extraction and as the
// designer-facing stability number.

// SNMResult carries the extracted noise margins.
type SNMResult struct {
	Vdd float64
	// SNM is the worst-case margin: min over the two noise polarities.
	SNM float64
	// Flip0 and Flip1 are the margins against flipping the Q=0 and Q=1
	// states respectively (equal for a symmetric cell).
	Flip0, Flip1 float64
	Mode         CellMode
}

// snmCell builds the cell with series noise sources of value vn inserted
// at both inverter inputs in the polarity that attacks the Q=0 state
// (raises the left gate's view of QB? no — lowers the right inverter's
// input headroom and lifts Q's image). attack1 mirrors the polarity to
// attack the Q=1 state instead.
func snmBistable(tech finfet.Technology, vdd float64, shifts VthShifts, mode CellMode, vn float64, attack1 bool) (bool, error) {
	c := circuit.New()
	q := c.Node("q")
	qb := c.Node("qb")
	qIn := c.Node("q_in")   // right inverter's input (Q side, after noise)
	qbIn := c.Node("qb_in") // left inverter's input (QB side, after noise)
	vddN := c.Node("vdd")
	bl := c.Node("bl")
	blb := c.Node("blb")
	wl := c.Node("wl")

	c.AddVSource("vdd", vddN, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vbl", bl, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vblb", blb, circuit.Ground, circuit.DC(vdd))
	wlV := 0.0
	if mode == ReadMode {
		wlV = vdd
	}
	c.AddVSource("vwl", wl, circuit.Ground, circuit.DC(wlV))

	// Worst-case polarity against Q=0: make the left inverter see a LOWER
	// QB (weakens its pull-down of Q... the left inverter drives Q from
	// input QB) and the right inverter see a HIGHER Q — both push toward
	// the flip. attack1 mirrors the signs.
	sign := 1.0
	if attack1 {
		sign = -1
	}
	// qb_in = qb - sign*vn ; q_in = q + sign*vn.
	c.AddVSource("vn_l", qb, qbIn, circuit.DC(sign*vn))
	c.AddVSource("vn_r", qIn, q, circuit.DC(sign*vn))

	addCore(c, tech, shifts, q, qb, qbIn, qIn, vddN, bl, blb, wl)

	// Does the attacked state still exist? Converge from its basin and see
	// where Newton lands.
	var nodeset map[circuit.Node]float64
	if attack1 {
		nodeset = map[circuit.Node]float64{q: vdd, qb: 0, vddN: vdd, bl: vdd, blb: vdd}
	} else {
		nodeset = map[circuit.Node]float64{q: 0, qb: vdd, vddN: vdd, bl: vdd, blb: vdd}
	}
	sol, err := c.OperatingPoint(nodeset)
	if err != nil {
		// Non-convergence at the bifurcation point counts as state loss.
		return false, nil
	}
	if attack1 {
		return sol[q] > sol[qb], nil
	}
	return sol[qb] > sol[q], nil
}

// StaticNoiseMargin extracts the hold- or read-mode SNM by bisecting the
// series noise voltage to the bistability boundary (resolution ~0.5 mV).
func StaticNoiseMargin(tech finfet.Technology, vdd float64, shifts VthShifts, mode CellMode) (SNMResult, error) {
	if vdd <= 0 {
		return SNMResult{}, fmt.Errorf("sram: SNM needs positive vdd")
	}
	margin := func(attack1 bool) (float64, error) {
		ok, err := snmBistable(tech, vdd, shifts, mode, 0, attack1)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, nil // state does not exist even without noise
		}
		lo, hi := 0.0, vdd/2
		okHi, err := snmBistable(tech, vdd, shifts, mode, hi, attack1)
		if err != nil {
			return 0, err
		}
		if okHi {
			return hi, nil // margin saturates at the search ceiling
		}
		for hi-lo > 5e-4 {
			mid := (lo + hi) / 2
			ok, err := snmBistable(tech, vdd, shifts, mode, mid, attack1)
			if err != nil {
				return 0, err
			}
			if ok {
				lo = mid
			} else {
				hi = mid
			}
		}
		return (lo + hi) / 2, nil
	}
	f0, err := margin(false)
	if err != nil {
		return SNMResult{}, err
	}
	f1, err := margin(true)
	if err != nil {
		return SNMResult{}, err
	}
	return SNMResult{
		Vdd:   vdd,
		Mode:  mode,
		Flip0: f0,
		Flip1: f1,
		SNM:   math.Min(f0, f1),
	}, nil
}
