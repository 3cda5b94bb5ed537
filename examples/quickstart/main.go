// Quickstart: estimate the soft-error rate of a 9×9 SRAM array in 14 nm
// SOI FinFET at nominal supply, for both the package-alpha and sea-level
// proton environments, with one call into the public API.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	res, err := finser.RunFlowCtx(ctx, finser.FlowConfig{
		Vdd:              0.8,  // nominal supply
		ProcessVariation: true, // paper-style Vth Monte Carlo
		Samples:          150,  // variation samples (paper: 1000)
		ItersPerBin:      15000,
		Seed:             1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("finser quickstart — 9×9 6T SRAM array, 14nm SOI FinFET, Vdd = 0.8 V")
	fmt.Println()
	fmt.Printf("%-22s %14s %14s %14s %10s\n", "environment", "total FIT", "SEU FIT", "MBU FIT", "MBU/SEU %")
	fmt.Printf("%-22s %14.5g %14.5g %14.5g %10.3f\n",
		"package alpha", res.Alpha.TotalFIT, res.Alpha.SEUFIT, res.Alpha.MBUFIT, res.Alpha.MBUToSEU)
	fmt.Printf("%-22s %14.5g %14.5g %14.5g %10.3f\n",
		"sea-level proton", res.Proton.TotalFIT, res.Proton.SEUFIT, res.Proton.MBUFIT, res.Proton.MBUToSEU)

	fmt.Println()
	fmt.Println("per-bit rates:")
	cells := 81.0
	fmt.Printf("  alpha : %.4g FIT/Mbit\n", res.Alpha.TotalFIT/cells*1e6)
	fmt.Printf("  proton: %.4g FIT/Mbit\n", res.Proton.TotalFIT/cells*1e6)
}
