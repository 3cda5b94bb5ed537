package sram

import (
	"fmt"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// Write-margin extraction. The third classic cell metric alongside hold
// and read SNM: how much bit-line drive headroom the cell leaves when
// being written. The operational definition used here is the word-line
// write margin (WWM): with the bit lines set for a write (BL low, BLB
// high, attacking the stored Q = 1), the word line is swept down from Vdd;
// the margin is the lowest WL voltage that still flips the cell. A large
// WWM means the cell writes easily (and, by the same token, is easier to
// disturb); WWM trades off directly against the read SNM, which is why the
// pull-down/pass-gate/pull-up strength ratios — and their aging and
// variation — matter.

// WriteMargin returns the word-line write margin in volts: Vdd minus the
// minimum WL level that flips a cell holding Q = 1 with BL = 0, BLB = Vdd.
// Zero means the cell cannot be written even at full WL (write failure).
func WriteMargin(tech finfet.Technology, vdd float64, shifts VthShifts) (float64, error) {
	if vdd <= 0 {
		return 0, fmt.Errorf("sram: write margin needs positive vdd")
	}
	flipsAt := func(wl float64) (bool, error) {
		return writeFlips(tech, vdd, shifts, wl)
	}
	full, err := flipsAt(vdd)
	if err != nil {
		return 0, err
	}
	if !full {
		return 0, nil // write failure even at full word-line drive
	}
	lo, hi := 0.0, vdd // lo: does not flip (WL off), hi: flips
	for hi-lo > 1e-3 {
		mid := (lo + hi) / 2
		ok, err := flipsAt(mid)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return vdd - (lo+hi)/2, nil
}

// writeFlips builds the write condition and reports whether the stored
// Q = 1 is overwritten at the given word-line level.
func writeFlips(tech finfet.Technology, vdd float64, shifts VthShifts, wlLevel float64) (bool, error) {
	c := circuit.New()
	q := c.Node("q")
	qb := c.Node("qb")
	vddN := c.Node("vdd")
	bl := c.Node("bl")
	blb := c.Node("blb")
	wl := c.Node("wl")

	c.AddVSource("vdd", vddN, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vbl", bl, circuit.Ground, circuit.DC(0)) // write 0 into Q
	c.AddVSource("vblb", blb, circuit.Ground, circuit.DC(vdd))
	c.AddVSource("vwl", wl, circuit.Ground, circuit.DC(wlLevel))

	addCore(c, tech, shifts, q, qb, qb, q, vddN, bl, blb, wl)

	// Converge from the stored state Q = 1; if the write succeeds, the DC
	// solution lands at Q = 0.
	sol, err := c.OperatingPoint(map[circuit.Node]float64{
		q: vdd, qb: 0, vddN: vdd, bl: 0, blb: vdd, wl: wlLevel,
	})
	if err != nil {
		// Failure to converge at the write boundary counts as flipped
		// (the held state no longer exists).
		return true, nil
	}
	return sol[q] < sol[qb], nil
}
