// Command figures regenerates the data behind every figure in the paper's
// evaluation (DAC 2014, Figs. 2, 4, 8, 9, 10, 11), printing the series as
// tables and optionally writing CSV files. Values are normalized the way
// the paper presents them.
//
// Usage:
//
//	figures -fig all -samples 200 -iters 30000 -outdir ./out
//	figures -fig 9
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"

	"finser"
)

type runner struct {
	samples int
	iters   int
	seed    uint64
	outdir  string
	// obs, when non-nil, collects counters and stage spans across every
	// figure regenerated in this invocation.
	obs *finser.Metrics
	// chars caches Fig. 8's process-variation characterizations by Vdd:
	// the Figs. 9–11 sweep's when it ran first, else Fig. 8's own
	chars map[float64]*finser.Characterization
	// sweeps caches the Figs. 9–11 Vdd sweep per process-variation setting
	sweeps map[bool][]*finser.FlowResult
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")

	var (
		fig     = flag.String("fig", "all", "figure to regenerate: 2a|2b|4|8|9|10|11|all")
		samples = flag.Int("samples", 150, "process-variation samples per characterization")
		iters   = flag.Int("iters", 20000, "array-MC particles per energy point/bin")
		seed    = flag.Uint64("seed", 1, "random seed")
		outdir  = flag.String("outdir", "", "write CSV series to this directory")
		metrics = flag.String("metrics", "", "write a JSON metrics snapshot (counters, histograms, stage spans) to this file")
	)
	flag.Parse()

	r := &runner{
		samples: *samples,
		iters:   *iters,
		seed:    *seed,
		outdir:  *outdir,
		chars:   map[float64]*finser.Characterization{},
		sweeps:  map[bool][]*finser.FlowResult{},
	}
	if *metrics != "" {
		// Create the file up front so a bad path fails before the run.
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		r.obs = finser.NewMetrics()
		defer func() {
			defer f.Close()
			if err := r.obs.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote metrics snapshot %s\n", *metrics)
		}()
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	figs := map[string]func() error{
		"2a": r.fig2a, "2b": r.fig2b, "4": r.fig4,
		"8": r.fig8, "9": r.fig9, "10": r.fig10, "11": r.fig11,
	}
	if *fig == "all" {
		// Fig. 8 runs on the process-variation sweep's characterizations at
		// 0.7 and 0.8 V, so run that sweep (it prints nothing) first.
		if _, err := r.vddSweep(true); err != nil {
			log.Fatalf("fig 9: %v", err)
		}
		for _, k := range []string{"2a", "2b", "4", "8", "9", "10", "11"} {
			if err := figs[k](); err != nil {
				log.Fatalf("fig %s: %v", k, err)
			}
		}
		return
	}
	fn, ok := figs[*fig]
	if !ok {
		log.Fatalf("unknown figure %q", *fig)
	}
	if err := fn(); err != nil {
		log.Fatalf("fig %s: %v", *fig, err)
	}
}

// char returns Fig. 8's process-variation characterization at vdd,
// characterizing each voltage at most once and not at all when the
// process-variation sweep already did.
func (r *runner) char(vdd float64) (*finser.Characterization, error) {
	if ch, ok := r.chars[vdd]; ok {
		return ch, nil
	}
	ch, err := finser.CharacterizeCtx(context.Background(), finser.CharConfig{
		Tech: finser.Default14nmSOI(), Vdd: vdd,
		Samples: r.samples, ProcessVariation: true, Seed: r.seed,
		Metrics: r.obs,
	})
	if err != nil {
		return nil, err
	}
	r.chars[vdd] = ch
	return ch, nil
}

func (r *runner) writeCSV(name string, header []string, rows [][]float64) error {
	if r.outdir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(r.outdir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	w := csv.NewWriter(f)
	defer w.Flush()
	if err := w.Write(header); err != nil {
		return err
	}
	for _, row := range rows {
		rec := make([]string, len(row))
		for i, v := range row {
			rec[i] = strconv.FormatFloat(v, 'g', 8, 64)
		}
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func (r *runner) fig2a() error {
	header("Fig. 2a — sea-level proton spectrum")
	s, err := finser.NewProtonSpectrum(1)
	if err != nil {
		return err
	}
	pts, err := finser.SpectrumCurve(s, 29)
	if err != nil {
		return err
	}
	fmt.Printf("%14s %18s\n", "E (MeV)", "flux (1/cm²/s/MeV)")
	rows := make([][]float64, 0, len(pts))
	for _, p := range pts {
		fmt.Printf("%14.4g %18.4g\n", p.EnergyMeV, p.Flux)
		rows = append(rows, []float64{p.EnergyMeV, p.Flux})
	}
	return r.writeCSV("fig2a_proton_spectrum.csv", []string{"energy_mev", "flux_per_cm2_s_mev"}, rows)
}

func (r *runner) fig2b() error {
	header("Fig. 2b — alpha emission spectrum (0.001 α/h·cm²)")
	s, err := finser.NewAlphaSpectrum(finser.DefaultAlphaRate)
	if err != nil {
		return err
	}
	pts, err := finser.SpectrumCurve(s, 25)
	if err != nil {
		return err
	}
	fmt.Printf("%14s %18s\n", "E (MeV)", "flux (1/cm²/s/MeV)")
	rows := make([][]float64, 0, len(pts))
	for _, p := range pts {
		fmt.Printf("%14.4g %18.4g\n", p.EnergyMeV, p.Flux)
		rows = append(rows, []float64{p.EnergyMeV, p.Flux})
	}
	return r.writeCSV("fig2b_alpha_spectrum.csv", []string{"energy_mev", "flux_per_cm2_s_mev"}, rows)
}

func (r *runner) fig4() error {
	header("Fig. 4 — normalized electrons generated in a single fin")
	tech := finser.Default14nmSOI()
	energies := finser.LogSpace(0.1, 100, 13)
	alpha, err := finser.FinYieldCurveCtx(context.Background(), tech, finser.Alpha, energies, r.iters/2, r.seed)
	if err != nil {
		return err
	}
	proton, err := finser.FinYieldCurveCtx(context.Background(), tech, finser.Proton, energies, r.iters/2, r.seed+1)
	if err != nil {
		return err
	}
	// Normalize jointly to the alpha maximum, as the paper's shared axis does.
	maxv := 0.0
	for _, p := range alpha {
		if p.MeanPairs > maxv {
			maxv = p.MeanPairs
		}
	}
	fmt.Printf("%12s %14s %14s\n", "E (MeV)", "alpha (norm)", "proton (norm)")
	rows := make([][]float64, 0, len(energies))
	for i := range energies {
		a, p := alpha[i].MeanPairs/maxv, proton[i].MeanPairs/maxv
		fmt.Printf("%12.4g %14.5g %14.5g\n", energies[i], a, p)
		rows = append(rows, []float64{energies[i], a, p})
	}
	return r.writeCSV("fig4_fin_yield.csv", []string{"energy_mev", "alpha_norm", "proton_norm"}, rows)
}

func (r *runner) fig8() error {
	header("Fig. 8 — normalized array POF vs energy (Vdd 0.7/0.8)")
	energies := finser.LogSpace(0.1, 100, 10)
	series := []struct {
		label string
		sp    finser.Species
		vdd   float64
	}{
		{"proton vdd=0.7", finser.Proton, 0.7},
		{"proton vdd=0.8", finser.Proton, 0.8},
		{"alpha vdd=0.7", finser.Alpha, 0.7},
		{"alpha vdd=0.8", finser.Alpha, 0.8},
	}
	table := make([][]float64, len(energies))
	for i := range table {
		table[i] = []float64{energies[i]}
	}
	eng, err := finser.NewEngine(finser.EngineConfig{
		Tech: finser.Default14nmSOI(), Rows: 9, Cols: 9, Metrics: r.obs,
	})
	if err != nil {
		return err
	}
	var globalMax float64
	raw := make([][]float64, len(series))
	for si, s := range series {
		ch, err := r.char(s.vdd)
		if err != nil {
			return err
		}
		pts, err := finser.POFCurveCtx(context.Background(), eng, ch, s.sp, energies, r.iters, r.seed+uint64(si))
		if err != nil {
			return err
		}
		raw[si] = make([]float64, len(pts))
		for i, p := range pts {
			raw[si][i] = p.Tot
			if p.Tot > globalMax {
				globalMax = p.Tot
			}
		}
	}
	fmt.Printf("%12s", "E (MeV)")
	for _, s := range series {
		fmt.Printf(" %16s", s.label)
	}
	fmt.Println()
	for i := range energies {
		fmt.Printf("%12.4g", energies[i])
		for si := range series {
			v := raw[si][i] / globalMax
			fmt.Printf(" %16.5g", v)
			table[i] = append(table[i], v)
		}
		fmt.Println()
	}
	return r.writeCSV("fig8_pof_vs_energy.csv",
		[]string{"energy_mev", "proton_0v7", "proton_0v8", "alpha_0v7", "alpha_0v8"}, table)
}

// vddSweep runs the full flow at the paper's five supply points, once per
// process-variation setting: Figs. 9, 10 and 11 share the results.
func (r *runner) vddSweep(pv bool) ([]*finser.FlowResult, error) {
	if out, ok := r.sweeps[pv]; ok {
		return out, nil
	}
	out, err := finser.RunVddSweepCtx(context.Background(), finser.FlowConfig{
		ItersPerBin: r.iters, Seed: r.seed,
		Samples: r.samples, ProcessVariation: pv,
		Obs: r.obs,
	}, []float64{0.7, 0.8, 0.9, 1.0, 1.1})
	if err != nil {
		return nil, err
	}
	r.sweeps[pv] = out
	if pv {
		for _, res := range out {
			r.chars[res.Vdd] = res.Char
		}
	}
	return out, nil
}

func (r *runner) fig9() error {
	header("Fig. 9 — normalized FIT vs Vdd (proton and alpha)")
	results, err := r.vddSweep(true)
	if err != nil {
		return err
	}
	alphaF := make([]float64, len(results))
	protonF := make([]float64, len(results))
	for i, res := range results {
		alphaF[i] = res.Alpha.TotalFIT
		protonF[i] = res.Proton.TotalFIT
	}
	// The paper normalizes so the smallest rate on the plot is ~1.
	minv := alphaF[len(alphaF)-1]
	if protonF[len(protonF)-1] < minv {
		minv = protonF[len(protonF)-1]
	}
	fmt.Printf("%6s %16s %16s\n", "Vdd", "proton (norm)", "alpha (norm)")
	rows := make([][]float64, 0, len(results))
	for i, res := range results {
		p, a := protonF[i]/minv, alphaF[i]/minv
		fmt.Printf("%6.2f %16.5g %16.5g\n", res.Vdd, p, a)
		rows = append(rows, []float64{res.Vdd, p, a})
	}
	return r.writeCSV("fig9_fit_vs_vdd.csv", []string{"vdd", "proton_norm", "alpha_norm"}, rows)
}

func (r *runner) fig10() error {
	header("Fig. 10 — MBU/SEU ratio (%) vs Vdd")
	results, err := r.vddSweep(true)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %14s %14s\n", "Vdd", "proton (%)", "alpha (%)")
	rows := make([][]float64, 0, len(results))
	for _, res := range results {
		fmt.Printf("%6.2f %14.4f %14.4f\n", res.Vdd, res.Proton.MBUToSEU, res.Alpha.MBUToSEU)
		rows = append(rows, []float64{res.Vdd, res.Proton.MBUToSEU, res.Alpha.MBUToSEU})
	}
	return r.writeCSV("fig10_mbu_seu.csv", []string{"vdd", "proton_pct", "alpha_pct"}, rows)
}

func (r *runner) fig11() error {
	header("Fig. 11 — process-variation effect on SER (alpha; proton same trend)")
	withPV, err := r.vddSweep(true)
	if err != nil {
		return err
	}
	noPV, err := r.vddSweep(false)
	if err != nil {
		return err
	}
	minv := noPV[len(noPV)-1].Alpha.TotalFIT
	fmt.Printf("%6s %14s %14s %10s %14s %14s %10s\n", "Vdd",
		"a with PV", "a w/o PV", "a under-%",
		"p with PV", "p w/o PV", "p under-%")
	rows := make([][]float64, 0, len(withPV))
	for i, res := range withPV {
		aPV, aNom := res.Alpha.TotalFIT, noPV[i].Alpha.TotalFIT
		pPV, pNom := res.Proton.TotalFIT, noPV[i].Proton.TotalFIT
		aUnder := 100 * (aPV - aNom) / aPV
		pUnder := 100 * (pPV - pNom) / pPV
		fmt.Printf("%6.2f %14.5g %14.5g %10.2f %14.5g %14.5g %10.2f\n",
			res.Vdd, aPV/minv, aNom/minv, aUnder, pPV/minv, pNom/minv, pUnder)
		rows = append(rows, []float64{res.Vdd, aPV / minv, aNom / minv, aUnder, pPV / minv, pNom / minv, pUnder})
	}
	return r.writeCSV("fig11_process_variation.csv",
		[]string{"vdd", "alpha_with_pv_norm", "alpha_without_pv_norm", "alpha_underestimate_pct",
			"proton_with_pv_norm", "proton_without_pv_norm", "proton_underestimate_pct"}, rows)
}
