package sram

import (
	"fmt"

	"finser/internal/circuit"
	"finser/internal/finfet"
)

// The 8T read-decoupled cell: a 6T core plus a two-transistor read stack
// (read pass-gate RPG under read word line, read pull-down RPD gated by
// QB, discharging a separate read bit line). Reads never connect the
// storage nodes to a bit line, so the 8T cell has no read-disturb — and,
// for soft errors, a strike on the read stack dumps its charge into the
// read bit line path instead of a storage node. The cell trades area
// (two more fins of strike cross-section, all benign) for read stability.
type Cell8T struct {
	*Cell
	readStrike *settableWaveform
	rblNode    circuit.Node
	xNode      circuit.Node
}

// NewCell8T builds the 8T cell in hold or read mode (read mode drives the
// read word line high; the write word line stays low either way, which is
// exactly how the 8T is operated). shifts index the shared 6T roles; the
// read stack uses nominal devices.
func NewCell8T(tech finfet.Technology, vdd float64, shifts VthShifts, mode CellMode) (*Cell8T, error) {
	base, err := buildCell(tech, vdd, shifts, 0) // write WL low in both modes
	if err != nil {
		return nil, err
	}
	c := base.ckt

	rwl := c.Node("rwl")
	rbl := c.Node("rbl")
	x := c.Node("rx")
	rwlV := 0.0
	if mode == ReadMode {
		rwlV = vdd
	}
	c.AddVSource("vrwl", rwl, circuit.Ground, circuit.DC(rwlV))
	c.AddVSource("vrbl", rbl, circuit.Ground, circuit.DC(vdd)) // precharged

	pgN := finfet.ParamsFor(tech, finfet.NChannel, tech.PGFins())
	pdN := finfet.ParamsFor(tech, finfet.NChannel, tech.PDFins())
	// Read stack: RBL → RPG → X → RPD → GND, RPD gated by QB. The internal
	// node carries its junction capacitance, which is what transiently
	// absorbs a strike's charge.
	c.AddDevice(finfet.NewTransistor("rpg", pgN, rbl, rwl, x))
	c.AddDevice(finfet.NewTransistor("rpd", pdN, x, base.qb, circuit.Ground))
	c.AddCapacitor("cx", x, circuit.Ground, tech.NodeCapF/2)

	cell := &Cell8T{Cell: base, rblNode: rbl, xNode: x}
	cell.readStrike = &settableWaveform{}
	// A read-stack strike collects from the RBL junction of the off RPG
	// into the internal node X.
	c.AddISource("irp", rbl, x, cell.readStrike)

	sol, err := c.OperatingPoint(map[circuit.Node]float64{
		base.q: 0, base.qb: vdd, base.vddNode: vdd,
		base.blNode: vdd, rbl: vdd, x: 0,
	})
	if err != nil {
		return nil, fmt.Errorf("sram: 8T DC failed: %w", err)
	}
	if sol[base.q] > 0.1*vdd || sol[base.qb] < 0.9*vdd {
		return nil, fmt.Errorf("sram: 8T cell not holding: q=%.3g qb=%.3g",
			sol[base.q], sol[base.qb])
	}
	cell.init = sol
	return cell, nil
}

// SimulateReadPortStrike injects a charge into the read stack's internal
// node and reports whether the *storage* flipped — the decoupling claim is
// that it never does.
func (c *Cell8T) SimulateReadPortStrike(charge float64) (StrikeResult, error) {
	if charge > 0 {
		tau := c.Tech.TransitTime(c.Vdd)
		c.readStrike.w = circuit.RectPulse{T0: strikeStart, Width: tau, Amp: charge / tau}
	}
	defer func() { c.readStrike.w = nil }()
	res, err := c.strike(nil)
	if err != nil {
		return StrikeResult{}, fmt.Errorf("sram: read-port strike: %w", err)
	}
	return res, nil
}
