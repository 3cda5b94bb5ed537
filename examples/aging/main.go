// Aging: BTI wear-out meets soft errors. A cell that holds the same value
// for years stresses one specific transistor pair (NBTI on the ON pull-up,
// PBTI on the ON pull-down); their threshold drift skews the cell so the
// long-held state becomes progressively easier to upset. This example
// sweeps device age and reports the critical-charge and noise-margin
// asymmetry — the mechanism that makes old, data-static memories (boot
// code, configuration bits) the soft spots of a system.
//
//	go run ./examples/aging
package main

import (
	"fmt"
	"log"

	"finser/internal/finfet"
	"finser/internal/sram"
)

func main() {
	tech := finfet.Default14nmSOI()
	const vdd = 0.8
	bti := sram.DefaultBTI()

	fmt.Println("BTI aging and soft-error vulnerability — 6T cell at Vdd = 0.8 V")
	fmt.Println("(cell holds Q=0 for its whole life; attacks target that state)")
	fmt.Println()
	fmt.Printf("%8s %16s %16s %14s %14s\n",
		"years", "Qcrit I1 (fC)", "ΔVth PUR (mV)", "SNM flip0 (mV)", "SNM flip1 (mV)")

	for _, years := range []float64{0, 1, 3, 10} {
		shifts, err := sram.AgedShifts(bti, years, 1)
		if err != nil {
			log.Fatal(err)
		}
		cell, err := sram.NewCell(tech, vdd, shifts)
		if err != nil {
			log.Fatal(err)
		}
		qc, err := cell.CriticalCharge(sram.AxisI1, 1e-18, 5e-14, sram.ShapeRect)
		if err != nil {
			log.Fatal(err)
		}
		snm, err := sram.StaticNoiseMargin(tech, vdd, shifts, sram.HoldMode)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8.0f %16.4f %16.1f %14.1f %14.1f\n",
			years, qc*1e15, shifts[sram.PUR]*1e3, snm.Flip0*1e3, snm.Flip1*1e3)
	}

	fmt.Println()
	fmt.Println("a decade of static stress costs tens of millivolts of margin against")
	fmt.Println("flipping the held state while slightly hardening the opposite flip —")
	fmt.Println("periodic bit-flipping (data rotation) equalizes the stress and keeps")
	fmt.Println("the cell symmetric, at the cost of scrub-style traffic.")
}
