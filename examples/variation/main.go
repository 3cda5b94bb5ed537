// Variation: the paper's Fig. 11 ablation — estimate the alpha-induced SER
// with and without threshold-voltage process variation, showing that the
// nominal-corner (binary POF) analysis underestimates the rate: variation
// lets sub-critical deposits flip weakened cells, and that tail outweighs
// the strikes a strengthened cell survives.
//
//	go run ./examples/variation
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	const vdd = 0.8
	base := finser.FlowConfig{
		Vdd:         vdd,
		Samples:     400,
		ItersPerBin: 20000,
		Seed:        1,
	}

	withPV := base
	withPV.ProcessVariation = true
	pv, err := finser.RunFlowCtx(ctx, withPV)
	if err != nil {
		log.Fatal(err)
	}

	noPV := base
	noPV.ProcessVariation = false
	nom, err := finser.RunFlowCtx(ctx, noPV)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("process-variation ablation — 9×9 array at Vdd = %.1f V\n\n", vdd)
	fmt.Printf("%-28s %14s %14s\n", "model", "alpha FIT", "proton FIT")
	fmt.Printf("%-28s %14.5g %14.5g\n", "with Vth variation (MC)", pv.Alpha.TotalFIT, pv.Proton.TotalFIT)
	fmt.Printf("%-28s %14.5g %14.5g\n", "nominal corner (binary POF)", nom.Alpha.TotalFIT, nom.Proton.TotalFIT)

	aUnder := 100 * (pv.Alpha.TotalFIT - nom.Alpha.TotalFIT) / pv.Alpha.TotalFIT
	pUnder := 100 * (pv.Proton.TotalFIT - nom.Proton.TotalFIT) / pv.Proton.TotalFIT
	fmt.Println()
	fmt.Printf("neglecting process variation underestimates alpha SER by %.1f%% and proton SER by %.1f%%\n",
		aUnder, pUnder)
	fmt.Println("(the paper reports the same direction, up to 45% in its SPICE setup)")
}
