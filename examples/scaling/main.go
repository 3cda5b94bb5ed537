// Scaling: technology-sensitivity study. The paper's conclusions are tied
// to one 14 nm SOI FinFET card; this example perturbs the knobs a
// technologist controls — fin dimensions, storage-node capacitance, and
// threshold-variation sigma — and shows how each moves the alpha SER and
// the MBU share, using the same public API end to end.
//
//	go run ./examples/scaling
package main

import (
	"context"
	"fmt"
	"log"

	"finser"
)

func main() {
	ctx := context.Background()
	base := finser.Default14nmSOI()

	variants := []struct {
		name string
		mod  func(t finser.Technology) finser.Technology
	}{
		{"baseline 14nm card", func(t finser.Technology) finser.Technology { return t }},
		{"taller fins (+50% height)", func(t finser.Technology) finser.Technology {
			t.FinHeightNm *= 1.5
			return t
		}},
		{"narrower fins (7nm-class width)", func(t finser.Technology) finser.Technology {
			t.FinWidthNm = 6
			return t
		}},
		{"2x storage-node capacitance", func(t finser.Technology) finser.Technology {
			t.NodeCapF *= 2
			return t
		}},
		{"tighter variation (sigma 25 mV)", func(t finser.Technology) finser.Technology {
			t.SigmaVth = 0.025
			return t
		}},
	}

	fmt.Println("technology scaling study — alpha environment, 9×9 array, Vdd = 0.8 V")
	fmt.Println()
	fmt.Printf("%-34s %14s %12s %14s\n", "variant", "alpha FIT", "MBU/SEU %", "Qcrit med (fC)")

	for _, v := range variants {
		tech := v.mod(base)
		char, err := finser.CharacterizeCtx(ctx, finser.CharConfig{
			Tech: tech, Vdd: 0.8, ProcessVariation: true, Samples: 100, Seed: 1,
		})
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		res, err := finser.RunFlowWithCharCtx(ctx, finser.FlowConfig{
			Tech: tech, Vdd: 0.8, ItersPerBin: 8000, Seed: 1,
		}, char)
		if err != nil {
			log.Fatalf("%s: %v", v.name, err)
		}
		fmt.Printf("%-34s %14.5g %12.3f %14.4f\n",
			v.name, res.Alpha.TotalFIT, res.Alpha.MBUToSEU,
			char.QcritQuantile(0, 0.5)*1e15)
	}

	fmt.Println()
	fmt.Println("taller fins intercept more tracks (larger target) but collect more")
	fmt.Println("charge per strike; extra node capacitance raises Qcrit and is the")
	fmt.Println("single strongest SER lever, exactly as the critical-charge picture")
	fmt.Println("predicts.")
}
