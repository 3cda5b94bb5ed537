// Command layoutviz renders the SRAM array layout (and optionally a set of
// Monte-Carlo particle tracks) as SVG — the visual counterpart of the
// paper's Fig. 5b and its 3-D strike analysis.
//
// Usage:
//
//	layoutviz -rows 9 -cols 9 -out array.svg
//	layoutviz -strikes 200 -species alpha -energy 1 -out strikes.svg
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"finser"
	"finser/internal/core"
	"finser/internal/finfet"
	"finser/internal/layout"
	"finser/internal/phys"
	"finser/internal/svg"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	log.SetPrefix("layoutviz: ")

	var (
		rows    = flag.Int("rows", 9, "array rows")
		cols    = flag.Int("cols", 9, "array columns")
		out     = flag.String("out", "array.svg", "output SVG path")
		strikes = flag.Int("strikes", 0, "overlay this many Monte-Carlo tracks (0 = layout only)")
		species = flag.String("species", "alpha", "track species: alpha|proton")
		energy  = flag.Float64("energy", 1, "track energy (MeV)")
		vdd     = flag.Float64("vdd", 0.8, "supply for the POF colouring of tracks")
		seed    = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *strikes < 0 {
		log.Fatalf("-strikes %d: want a track count ≥ 0 (0 = layout only)", *strikes)
	}

	tech := finfet.Default14nmSOI()
	arr, err := layout.NewArray(layout.ThinCellLayout(tech), *rows, *cols)
	if err != nil {
		log.Fatal(err)
	}
	bit := func(int, int) bool { return false }

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	if *strikes == 0 {
		if err := svg.RenderArray(f, arr, bit); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%dx%d array, %d fins)\n", *out, *rows, *cols, len(arr.Fins()))
		return
	}

	var sp phys.Species
	switch *species {
	case "alpha":
		sp = phys.Alpha
	case "proton":
		sp = phys.Proton
	default:
		log.Fatalf("unknown species %q", *species)
	}
	char, err := finser.CharacterizeCtx(ctx, finser.CharConfig{
		Tech: tech, Vdd: *vdd, ProcessVariation: true, Samples: 60, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.New(core.Config{Tech: tech, Rows: *rows, Cols: *cols})
	if err != nil {
		log.Fatal(err)
	}
	infos, err := eng.SampleTracksCtx(ctx, char, sp, *energy, *strikes, *seed)
	if err != nil {
		log.Fatal(err)
	}
	tracks := make([]svg.Track, 0, len(infos))
	nHit, nFlip := 0, 0
	for _, ti := range infos {
		tr := svg.Track{
			Start:      ti.Entry,
			End:        ti.Exit,
			StruckFins: ti.StruckFins,
			Flipped:    ti.POF >= 0.5,
		}
		if len(ti.StruckFins) > 0 {
			nHit++
		}
		if tr.Flipped {
			nFlip++
		}
		tracks = append(tracks, tr)
	}
	if err := svg.RenderStrikes(f, arr, bit, tracks); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %d tracks, %d charged a sensitive fin, %d flipped (POF ≥ 0.5)\n",
		*out, len(tracks), nHit, nFlip)
}
