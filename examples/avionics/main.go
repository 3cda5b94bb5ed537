// Avionics: altitude scaling of the atmospheric SER components. Alpha
// emission comes from the package and does not care about altitude, but the
// atmospheric proton and neutron fluxes grow exponentially with altitude —
// at cruise altitude the atmospheric components dominate everything.
//
//	go run ./examples/avionics
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
		Tech: tech, Vdd: vdd, ProcessVariation: true, Samples: 120, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := finser.NewEngine(finser.EngineConfig{Tech: tech, Rows: 9, Cols: 9})
	if err != nil {
		log.Fatal(err)
	}
	rx := finser.NewNeutronReactions()

	fmt.Printf("altitude study — 9×9 array at Vdd = %.1f V\n\n", vdd)
	fmt.Printf("%-22s %10s %14s %14s %14s %14s\n",
		"location", "scale", "alpha FIT", "proton FIT", "neutron FIT", "total FIT")

	sites := []struct {
		name     string
		altitude float64
	}{
		{"sea level (NYC)", 0},
		{"Denver (1.6 km)", 1600},
		{"La Paz (3.6 km)", 3600},
		{"cruise (11 km)", 11000},
	}
	for _, site := range sites {
		scale := finser.AltitudeScale(site.altitude)

		flow, err := finser.RunFlowWithCharCtx(ctx, finser.FlowConfig{
			Vdd: vdd, ItersPerBin: 8000, Seed: 1, ProtonScale: scale,
		}, char)
		if err != nil {
			log.Fatal(err)
		}
		nSpec, err := finser.NewNeutronSpectrum(scale)
		if err != nil {
			log.Fatal(err)
		}
		nBins, err := finser.Bins(nSpec, 2, 1000, 8)
		if err != nil {
			log.Fatal(err)
		}
		nRes, err := eng.NeutronFITCtx(ctx, char, nSpec, rx, nBins, 20000, 7)
		if err != nil {
			log.Fatal(err)
		}

		total := flow.Alpha.TotalFIT + flow.Proton.TotalFIT + nRes.TotalFIT
		fmt.Printf("%-22s %10.1f %14.5g %14.5g %14.5g %14.5g\n",
			site.name, scale, flow.Alpha.TotalFIT, flow.Proton.TotalFIT,
			nRes.TotalFIT, total)
	}

	fmt.Println()
	fmt.Println("the package-alpha term is altitude-independent; by cruise altitude")
	fmt.Println("the atmospheric (proton + neutron) terms dominate the budget by")
	fmt.Println("orders of magnitude — the classic avionics soft-error picture.")
}
