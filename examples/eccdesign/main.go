// ECC design: turn the engine's MBU spatial statistics into a memory-
// protection decision. SEC-DED corrects one flipped bit per word, so the
// residual failure rate after ECC is set by MBUs that put two bits into the
// same logical word. Column interleaving pushes same-word bits apart;
// this example sweeps the interleave factor and reports the residual FIT,
// per particle species.
//
//	go run ./examples/eccdesign
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	const vdd = 0.7 // worst case: low-power operation
	tech := finser.Default14nmSOI()
	char, err := finser.CharacterizeCtx(ctx, finser.CharConfig{
		Tech: tech, Vdd: vdd, ProcessVariation: true, Samples: 150, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := finser.NewEngine(finser.EngineConfig{Tech: tech, Rows: 9, Cols: 9})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("ECC interleaving design — 9×9 array at Vdd = %.1f V\n", vdd)

	// MBU geometry at the alpha energies that dominate the emission
	// spectrum.
	rep, err := eng.MBUStatsAtEnergyCtx(ctx, char, finser.Alpha, 1, 120000, 6, 11)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nalpha (1 MeV) upset multiplicity per strike:\n")
	for k, p := range rep.MultiplicityPMF {
		if k == 0 || p == 0 {
			continue
		}
		fmt.Printf("  P(%d bits) = %.3g\n", k, p)
	}

	fmt.Println("\nheaviest MBU pair separations (Δrow, Δcol → share of pair weight):")
	total := rep.TotalPairWeight()
	for i, key := range rep.SortedPairKeys() {
		if i >= 5 {
			break
		}
		fmt.Printf("  (%d,%+d) → %.1f%%\n", key.DRow, key.DCol,
			100*rep.PairWeights[key]/total)
	}

	// Interleave sweep: how much MBU FIT survives SEC-DED.
	flow, err := finser.RunFlowWithCharCtx(ctx, finser.FlowConfig{
		Vdd: vdd, ItersPerBin: 15000, Seed: 1,
	}, char)
	if err != nil {
		log.Fatal(err)
	}
	factors := []int{1, 2, 4, 8, 16}
	analyses, err := finser.ECCInterleaveSweep(rep, factors, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%12s %22s %18s\n", "interleave", "uncorrectable share", "residual MBU FIT")
	for i, a := range analyses {
		fmt.Printf("%12d %21.2f%% %18.4g\n",
			factors[i], 100*a.UncorrectableShare,
			finser.ResidualMBUFIT(flow.Alpha.MBUFIT, a))
	}

	fmt.Println("\nwith no interleaving every same-row MBU defeats SEC-DED; a modest")
	fmt.Println("4-way column interleave already pushes same-word bits beyond the")
	fmt.Println("reach of most alpha tracks.")
}
