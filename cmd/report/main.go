// Command report runs the complete analysis suite for one configuration —
// cell stability, environment FIT rates (alpha, proton, neutron), MBU
// geometry, and ECC interleaving — and writes a self-contained markdown
// report. It is the "give me the whole picture" entry point.
//
// Usage:
//
//	report -vdd 0.8 -samples 200 -iters 20000 -out REPORT.md
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"finser"
	"finser/internal/sram"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	log.SetPrefix("report: ")

	var (
		vdd     = flag.Float64("vdd", 0.8, "supply voltage (V)")
		rows    = flag.Int("rows", 9, "array rows")
		cols    = flag.Int("cols", 9, "array columns")
		samples = flag.Int("samples", 150, "process-variation samples")
		iters   = flag.Int("iters", 15000, "array-MC particles per energy bin")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("out", "REPORT.md", "output markdown path")
	)
	flag.Parse()

	var sb strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&sb, format+"\n", args...) }

	tech := finser.Default14nmSOI()
	start := time.Now()

	w("# Soft-error analysis report")
	w("")
	w("- technology: `%s` (fin %g×%g nm, Lg %g nm, σVth %g mV)",
		tech.Name, tech.FinWidthNm, tech.FinHeightNm, tech.GateLengthNm, tech.SigmaVth*1e3)
	w("- array: %d×%d 6T cells, Vdd = %.2f V", *rows, *cols, *vdd)
	w("- budgets: %d variation samples, %d particles/bin, seed %d", *samples, *iters, *seed)
	w("")

	// Cell stability.
	w("## Cell stability")
	w("")
	hold, err := sram.StaticNoiseMargin(tech, *vdd, sram.VthShifts{}, sram.HoldMode)
	if err != nil {
		log.Fatal(err)
	}
	read, err := sram.StaticNoiseMargin(tech, *vdd, sram.VthShifts{}, sram.ReadMode)
	if err != nil {
		log.Fatal(err)
	}
	char, err := finser.CharacterizeCtx(ctx, finser.CharConfig{
		Tech: tech, Vdd: *vdd, ProcessVariation: true, Samples: *samples, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	w("| metric | value |")
	w("|---|---|")
	w("| hold SNM | %.0f mV |", hold.SNM*1e3)
	w("| read SNM | %.0f mV |", read.SNM*1e3)
	for a := sram.AxisI1; a < sram.NumAxes; a++ {
		w("| Qcrit median, %s | %.4f fC (%.0f e-h pairs) |",
			a, char.QcritQuantile(a, 0.5)*1e15, char.QcritQuantile(a, 0.5)/1.602176634e-19)
	}
	w("| Qcrit spread (I1, q05–q95) | %.4f – %.4f fC |",
		char.QcritQuantile(sram.AxisI1, 0.05)*1e15, char.QcritQuantile(sram.AxisI1, 0.95)*1e15)
	w("")

	// Environment FIT.
	w("## Failure rates by environment")
	w("")
	// The flow's own plans: these rows match serflow's alpha, proton and
	// -neutron results for the same flags.
	flowCfg := finser.FlowConfig{
		Vdd: *vdd, Rows: *rows, Cols: *cols, ItersPerBin: *iters, Seed: *seed,
	}
	flow, err := finser.RunFlowWithCharCtx(ctx, flowCfg, char)
	if err != nil {
		log.Fatal(err)
	}
	nFITs, err := finser.NeutronFITCtx(ctx, flowCfg, []*finser.FlowResult{flow})
	if err != nil {
		log.Fatal(err)
	}
	nRes := nFITs[0]
	cells := float64((*rows) * (*cols))
	w("| environment | total FIT | FIT/Mbit | SEU FIT | MBU FIT | MBU/SEU |")
	w("|---|---|---|---|---|---|")
	row := func(name string, r finser.FITResult) {
		w("| %s | %.4g | %.4g | %.4g | %.4g | %.2f%% |",
			name, r.TotalFIT, r.TotalFIT/cells*1e6, r.SEUFIT, r.MBUFIT, r.MBUToSEU)
	}
	row("package alpha (0.001 α/cm²·h)", flow.Alpha)
	row("sea-level proton", flow.Proton)
	row("sea-level neutron (indirect)", nRes)
	total := flow.Alpha.TotalFIT + flow.Proton.TotalFIT + nRes.TotalFIT
	w("| **combined** | **%.4g** | **%.4g** | | | |", total, total/cells*1e6)
	w("")

	// MBU geometry + ECC.
	w("## MBU geometry and ECC")
	w("")
	eng, err := finser.NewEngine(finser.EngineConfig{Tech: tech, Rows: *rows, Cols: *cols})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.MBUStatsAtEnergyCtx(ctx, char, finser.Alpha, 1, (*iters)*4, 6, *seed+9)
	if err != nil {
		log.Fatal(err)
	}
	w("Upset multiplicity per alpha strike (1 MeV):")
	w("")
	w("| bits flipped | probability |")
	w("|---|---|")
	for k, p := range rep.MultiplicityPMF {
		if k == 0 || p == 0 {
			continue
		}
		w("| %d | %.3g |", k, p)
	}
	w("")
	w("SEC-DED survival vs column interleaving:")
	w("")
	analyses, err := finser.ECCInterleaveSweep(rep, []int{1, 2, 4, 8}, true)
	if err != nil {
		log.Fatal(err)
	}
	w("| interleave | uncorrectable MBU share | residual alpha MBU FIT |")
	w("|---|---|---|")
	for i, a := range analyses {
		w("| %d-way | %.2f%% | %.4g |", []int{1, 2, 4, 8}[i],
			100*a.UncorrectableShare, finser.ResidualMBUFIT(flow.Alpha.MBUFIT, a))
	}
	w("")

	// Scrubbing policy.
	w("## Scrubbing policy")
	w("")
	four := analyses[2] // 4-way interleave
	sc := finser.ScrubConfig{
		Words:              (*rows) * (*cols) / 8, // 8-bit words for this toy array
		SEUFIT:             flow.Alpha.SEUFIT + flow.Proton.SEUFIT + nRes.SEUFIT,
		MBUFIT:             flow.Alpha.MBUFIT + flow.Proton.MBUFIT + nRes.MBUFIT,
		UncorrectableShare: four.UncorrectableShare,
	}
	if sc.Words < 1 {
		sc.Words = 1
	}
	w("Assuming SEC-DED over 8-bit words with 4-way interleaving:")
	w("")
	w("| scrub interval | uncorrectable FIT | MTTF |")
	w("|---|---|---|")
	pts, err := sc.Sweep([]float64{1, 24, 24 * 30, 24 * 365})
	if err != nil {
		log.Fatal(err)
	}
	labels := []string{"1 hour", "1 day", "1 month", "1 year"}
	for i, p := range pts {
		w("| %s | %.4g | %.3g years |", labels[i], p.UncorrectableFIT,
			finser.MTTFHours(p.UncorrectableFIT)/(24*365))
	}
	w("")
	w("break-even scrub interval (accumulation = MBU floor): %.3g hours",
		sc.BreakEvenIntervalHours())
	w("")
	w("---")
	w("generated by finser in %s", time.Since(start).Round(time.Second))

	if err := os.WriteFile(*out, []byte(sb.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d bytes) in %s\n", *out, sb.Len(), time.Since(start).Round(time.Second))
}
