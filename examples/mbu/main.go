// MBU: multiple-bit-upset analysis. A single track crossing sensitive fins
// in more than one cell can flip several bits at once; the rate depends on
// the particle species (alphas ionize heavily along long grazing tracks),
// the incidence distribution, and the stored data pattern. This example
// dissects the MBU/SEU split the paper reports in its Fig. 10.
//
//	go run ./examples/mbu
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	tech := finser.Default14nmSOI()
	char, err := finser.CharacterizeCtx(ctx, finser.CharConfig{
		Tech: tech, Vdd: 0.8, ProcessVariation: true, Samples: 150, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("MBU/SEU analysis — 14nm SOI FinFET, Vdd = 0.8 V")

	// 1) Species comparison at fixed energies (POF conditional on a strike
	//    over the array footprint).
	fmt.Println("\nper-energy MBU share (9×9 array, default incidence):")
	fmt.Printf("%10s %10s %12s %12s %12s\n", "species", "E (MeV)", "POFtot", "POFMBU", "MBU share")
	eng := mustEngine(tech, finser.PatternZeros)
	for _, sp := range []finser.Species{finser.Alpha, finser.Proton} {
		for _, e := range []float64{0.5, 1, 5} {
			pts, err := finser.POFCurveCtx(ctx, eng, char, sp, []float64{e}, 40000, 7)
			if err != nil {
				log.Fatal(err)
			}
			p := pts[0]
			share := 0.0
			if p.Tot > 0 {
				share = p.MBU / p.Tot
			}
			fmt.Printf("%10v %10.2f %12.5g %12.5g %11.2f%%\n", sp, e, p.Tot, p.MBU, 100*share)
		}
	}

	// 2) Data-pattern dependence: the sensitive transistor set moves with
	//    the stored bit, so clustered patterns shift the MBU geometry.
	fmt.Println("\ndata-pattern dependence (alpha, 1 MeV):")
	fmt.Printf("%16s %12s %12s\n", "pattern", "POFtot", "POFMBU")
	for _, pc := range []struct {
		name string
		pat  finser.DataPattern
	}{
		{"all zeros", finser.PatternZeros},
		{"all ones", finser.PatternOnes},
		{"checkerboard", finser.PatternCheckerboard},
	} {
		e := mustEngine(tech, pc.pat)
		pts, err := finser.POFCurveCtx(ctx, e, char, finser.Alpha, []float64{1}, 40000, 9)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%16s %12.5g %12.5g\n", pc.name, pts[0].Tot, pts[0].MBU)
	}

	fmt.Println("\nalphas produce a far larger MBU share than protons: their tracks")
	fmt.Println("deposit enough charge to upset every sensitive fin they graze, so a")
	fmt.Println("single shallow track can take out bits in several adjacent cells.")
}

func mustEngine(tech finser.Technology, pat finser.DataPattern) *finser.Engine {
	e, err := finser.NewEngine(finser.EngineConfig{Tech: tech, Rows: 9, Cols: 9, Pattern: pat})
	if err != nil {
		log.Fatal(err)
	}
	return e
}
