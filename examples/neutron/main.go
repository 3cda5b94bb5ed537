// Neutron: the paper's declared future work (§7) — neutron-induced soft
// errors through indirect ionization. Neutrons are uncharged; they upset
// cells via nuclear reactions with silicon (elastic Si recoils,
// ²⁸Si(n,α)²⁵Mg, ²⁸Si(n,p)²⁸Al) whose charged secondaries ionize like any
// other ion. This example estimates the sea-level neutron FIT of the array,
// compares it against the directly ionizing environments, and shows the
// SOI suppression: most upsets come from reactions in the handle wafer
// whose secondaries cross the buried oxide, not from the tiny fin volumes.
//
//	go run ./examples/neutron
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

	rx := finser.NewNeutronReactions()
	nSpec, err := finser.NewNeutronSpectrum(1)
	if err != nil {
		log.Fatal(err)
	}
	nBins, err := finser.Bins(nSpec, 2, 1000, 10)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("neutron-induced SER (indirect ionization) — 9×9 array at Vdd = %.1f V\n\n", vdd)

	// Per-energy picture: weighted POF and per-interaction severity.
	fmt.Printf("%10s %16s %18s\n", "E (MeV)", "weighted POF", "POF per interaction")
	for _, e := range []float64{2, 5, 14, 50, 200} {
		pt, err := eng.NeutronPOFAtEnergyCtx(ctx, char, rx, e, 60000, 3)
		if err != nil {
			log.Fatal(err)
		}
		cond := 0.0
		if pt.InteractionWeight > 0 {
			cond = pt.Tot / pt.InteractionWeight
		}
		fmt.Printf("%10.0f %16.4g %18.4g\n", e, pt.Tot, cond)
	}

	// Spectrum-integrated FIT vs the directly ionizing environments.
	nRes, err := eng.NeutronFITCtx(ctx, char, nSpec, rx, nBins, 60000, 5)
	if err != nil {
		log.Fatal(err)
	}
	flow, err := finser.RunFlowWithCharCtx(ctx, finser.FlowConfig{
		Vdd: vdd, ItersPerBin: 15000, Seed: 1,
	}, char)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-20s %14s %10s\n", "environment", "total FIT", "MBU/SEU %")
	fmt.Printf("%-20s %14.5g %10.3f\n", "package alpha", flow.Alpha.TotalFIT, flow.Alpha.MBUToSEU)
	fmt.Printf("%-20s %14.5g %10.3f\n", "sea-level proton", flow.Proton.TotalFIT, flow.Proton.MBUToSEU)
	fmt.Printf("%-20s %14.5g %10.3f\n", "sea-level neutron", nRes.TotalFIT, nRes.MBUToSEU)

	fmt.Println("\nthe SOI structure strongly suppresses neutron SER: the buried oxide")
	fmt.Println("isolates the fins from substrate charge, so only energetic reaction")
	fmt.Println("secondaries that physically cross the BOX — plus the rare reactions")
	fmt.Println("inside fin silicon itself — can upset a cell.")
}
