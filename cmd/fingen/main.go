// Command fingen runs the device-level stage of the flow on its own: the
// Monte-Carlo of particle passage through a single fin (the paper's Geant4
// step, Fig. 6 "performed once to obtain LUTs"), producing the
// electron-yield look-up tables as JSON artifacts that can be inspected,
// plotted, or version-controlled.
//
// Usage:
//
//	fingen -iters 100000 -out lut_alpha.json -species alpha
//	fingen -species proton -emin 0.1 -emax 100 -points 25
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/lut"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fingen: ")

	var (
		species = flag.String("species", "alpha", "particle species: alpha|proton")
		iters   = flag.Int("iters", 50000, "Monte-Carlo secants per energy point")
		emin    = flag.Float64("emin", 0.1, "lowest energy (MeV)")
		emax    = flag.Float64("emax", 100, "highest energy (MeV)")
		points  = flag.Int("points", 17, "energy grid points (log-spaced)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "", "write the LUT JSON to this file")
	)
	flag.Parse()

	var sp phys.Species
	switch *species {
	case "alpha":
		sp = phys.Alpha
	case "proton":
		sp = phys.Proton
	default:
		log.Fatalf("unknown species %q", *species)
	}

	tech := finfet.Default14nmSOI()
	fin := geom.BoxAt(geom.V(0, 0, 0),
		geom.V(tech.FinWidthNm, tech.GateLengthNm, tech.FinHeightNm))
	cfg := transport.DefaultConfig()
	energies := lut.LogSpace(*emin, *emax, *points)

	fmt.Printf("single-fin e-h yield LUT: %s, fin %gx%gx%g nm, %d secants/point\n\n",
		sp, tech.FinWidthNm, tech.GateLengthNm, tech.FinHeightNm, *iters)
	fmt.Printf("%12s %14s %12s %12s\n", "E (MeV)", "mean pairs", "std", "max")

	src := rng.New(*seed)
	for _, e := range energies {
		ys, err := transport.FinYieldCtx(context.Background(), cfg, sp, e, fin, *iters, src)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%12.4g %14.2f %12.2f %12.0f\n", e, ys.MeanPairs, ys.StdPairs, ys.MaxPairs)
	}

	if *out != "" {
		table, err := transport.BuildFinYieldLUTCtx(context.Background(), cfg, sp, energies, fin, *iters, rng.New(*seed))
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := table.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}
