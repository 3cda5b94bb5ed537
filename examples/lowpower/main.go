// Lowpower: the paper's motivating scenario — voltage scaling for low-power
// operation trades off soft-error resilience, and the trade is species-
// dependent: proton-induced SER grows much faster than alpha-induced SER
// as Vdd drops, becoming comparable at 0.7 V. This example sweeps the
// supply and reports the crossover.
//
//	go run ./examples/lowpower
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	vdds := []float64{0.7, 0.8, 0.9, 1.0, 1.1}
	results, err := finser.RunVddSweepCtx(ctx, finser.FlowConfig{
		ProcessVariation: true,
		Samples:          120,
		ItersPerBin:      10000,
		Seed:             1,
		Vdd:              vdds[0], // overwritten per sweep point
	}, vdds)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("voltage-scaling SER study — 9×9 array, 14nm SOI FinFET")
	fmt.Println()
	fmt.Printf("%6s %14s %14s %16s\n", "Vdd", "alpha FIT", "proton FIT", "proton/alpha")
	for _, r := range results {
		fmt.Printf("%6.2f %14.5g %14.5g %16.3f\n",
			r.Vdd, r.Alpha.TotalFIT, r.Proton.TotalFIT,
			r.Proton.TotalFIT/r.Alpha.TotalFIT)
	}

	first, last := results[0], results[len(results)-1]
	fmt.Println()
	fmt.Printf("lowering Vdd from %.1f V to %.1f V raises alpha SER ×%.1f and proton SER ×%.1f\n",
		last.Vdd, first.Vdd,
		first.Alpha.TotalFIT/last.Alpha.TotalFIT,
		first.Proton.TotalFIT/last.Proton.TotalFIT)
	fmt.Println("low-power (low-Vdd) designs must budget for the proton component,")
	fmt.Println("which is negligible at nominal supply but comparable to alpha at 0.7 V.")
}
