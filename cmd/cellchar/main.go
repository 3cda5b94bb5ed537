// Command cellchar explores the circuit-level SRAM cell characterization:
// critical charges per sensitive transistor, the POF-vs-charge curve under
// process variation, the pulse-shape sensitivity study of the paper's §4,
// and optional export of the characterization as a reusable JSON LUT.
//
// Usage:
//
//	cellchar -vdd 0.8 -samples 500
//	cellchar -vdd 0.7 -shapes            # pulse-shape equivalence study
//	cellchar -vdd 0.8 -out pof_0v8.json  # save the POF LUT
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"finser"
	"finser/internal/finfet"
	"finser/internal/sram"
)

func main() {
	ctx := context.Background()
	log.SetFlags(0)
	log.SetPrefix("cellchar: ")

	var (
		vdd      = flag.Float64("vdd", 0.8, "supply voltage (V)")
		samples  = flag.Int("samples", 200, "process-variation samples")
		pv       = flag.Bool("pv", true, "model process variation")
		shapes   = flag.Bool("shapes", false, "run the pulse-shape sensitivity study")
		mode     = flag.Bool("read", false, "compare hold-mode vs read-mode critical charges")
		eightT   = flag.Bool("cell8t", false, "compare the 6T cell against the 8T read-decoupled cell")
		seed     = flag.Uint64("seed", 1, "random seed")
		relErr   = flag.Float64("fit-rel-err", 0, "after characterization, run a 9×9 adaptive array-FIT summary at this per-bin relative tolerance, in (0, 0.5] (0 = off)")
		out      = flag.String("out", "", "write the characterization JSON to this file")
		metrics  = flag.String("metrics", "", "write a JSON metrics snapshot (solver and characterization counters) to this file")
		guardStr = flag.String("guard", "warn", "physics-invariant enforcement: off|warn|strict (strict fails the run on the first violation)")
	)
	flag.Parse()
	guardMode, err := finser.ParseGuardMode(*guardStr)
	if err != nil {
		log.Fatal(err)
	}

	var reg *finser.Metrics
	if *metrics != "" {
		// Create the file up front so a bad path fails before the run.
		f, err := os.Create(*metrics)
		if err != nil {
			log.Fatal(err)
		}
		reg = finser.NewMetrics()
		defer func() {
			defer f.Close()
			if err := reg.WriteJSON(f); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\nwrote metrics snapshot %s\n", *metrics)
		}()
	}

	tech := finfet.Default14nmSOI()
	tau := tech.TransitTime(*vdd)
	fmt.Printf("6T SRAM cell, %s, Vdd=%.2f V, pulse width τ=%.3g fs\n", tech.Name, *vdd, tau*1e15)
	if hold, err := sram.StaticNoiseMargin(tech, *vdd, sram.VthShifts{}, sram.HoldMode); err == nil {
		if read, err := sram.StaticNoiseMargin(tech, *vdd, sram.VthShifts{}, sram.ReadMode); err == nil {
			fmt.Printf("static noise margin: hold %.0f mV, read %.0f mV\n", hold.SNM*1e3, read.SNM*1e3)
		}
	}
	fmt.Println()

	if *shapes {
		runShapeStudy(tech, *vdd)
		return
	}
	if *mode {
		runReadModeStudy(tech, *vdd)
		return
	}
	if *eightT {
		run8TStudy(tech, *vdd)
		return
	}

	cfg := finser.CharConfig{
		Tech:             tech,
		Vdd:              *vdd,
		Samples:          *samples,
		ProcessVariation: *pv,
		Seed:             *seed,
		Metrics:          reg,
		Guard:            finser.NewGuard(guardMode, reg, log.Printf),
	}
	ch, err := finser.CharacterizeCtx(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("critical charge per sensitive transistor (%d samples, PV=%v):\n", ch.Samples, *pv)
	fmt.Printf("%10s %12s %12s %12s %14s\n", "axis", "q05 (fC)", "median (fC)", "q95 (fC)", "median e-h pairs")
	for a := sram.AxisI1; a < sram.NumAxes; a++ {
		med := ch.QcritQuantile(a, 0.5)
		fmt.Printf("%10s %12.4f %12.4f %12.4f %14.0f\n",
			a,
			ch.QcritQuantile(a, 0.05)*1e15,
			med*1e15,
			ch.QcritQuantile(a, 0.95)*1e15,
			med/1.602176634e-19)
	}

	fmt.Printf("\nPOF vs charge (axis I1):\n%12s %8s\n", "charge (fC)", "POF")
	med := ch.QcritQuantile(sram.AxisI1, 0.5)
	for _, f := range []float64{0.5, 0.7, 0.85, 0.95, 1.0, 1.05, 1.15, 1.3, 1.6, 2.0} {
		q := med * f
		fmt.Printf("%12.4f %8.4f\n", q*1e15, ch.POFSingle(sram.AxisI1, q))
	}

	if *relErr != 0 {
		if !(*relErr > 0 && *relErr <= 0.5) {
			log.Fatalf("-fit-rel-err must be in (0, 0.5], got %g", *relErr)
		}
		runAdaptiveFITSummary(ch, *vdd, *samples, *pv, *seed, *relErr, reg)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := ch.WriteJSON(f); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *out)
	}
}

// runAdaptiveFITSummary reuses the characterization just computed to run a
// small 9×9 array FIT under the adaptive sampler, reporting how the
// confidence-driven budget was spent per species.
func runAdaptiveFITSummary(ch *finser.Characterization, vdd float64, samples int, pv bool, seed uint64, relErr float64, reg *finser.Metrics) {
	cfg := finser.FlowConfig{
		Vdd:              vdd,
		Rows:             9,
		Cols:             9,
		ProcessVariation: pv,
		Samples:          samples,
		ItersPerBin:      4000,
		FITRelErr:        relErr,
		Seed:             seed,
		Obs:              reg,
	}
	res, err := finser.RunFlowWithCharCtx(context.Background(), cfg, ch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nadaptive 9×9 array FIT (rel-err target %g, flat budget %d/bin):\n", relErr, cfg.ItersPerBin)
	fmt.Printf("%8s %14s %10s %14s\n", "species", "FIT (a.u.)", "converged", "strikes saved")
	for _, s := range []struct {
		name string
		fit  finser.FITResult
	}{
		{"alpha", res.Alpha},
		{"proton", res.Proton},
	} {
		converged, saved := 0, 0
		for _, c := range s.fit.Conv {
			if c.Converged {
				converged++
			}
			saved += c.StrikesSaved
		}
		fmt.Printf("%8s %14.4g %7d/%-2d %14d\n", s.name, s.fit.TotalFIT, converged, len(s.fit.Conv), saved)
	}
}

// runShapeStudy reproduces the paper's §4 observation: POF depends on the
// deposited charge (area under the I-t curve), not on the pulse's width or
// shape.
func runShapeStudy(tech finfet.Technology, vdd float64) {
	cell, err := sram.NewCell(tech, vdd, sram.VthShifts{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("pulse-shape sensitivity study (paper §4): critical charge per shape")
	fmt.Printf("%14s %16s\n", "shape", "Qcrit (fC)")
	shapes := []struct {
		name  string
		shape sram.PulseShape
	}{
		{"rectangular", sram.ShapeRect},
		{"triangular", sram.ShapeTriangle},
		{"double-exp", sram.ShapeDoubleExp},
	}
	var base float64
	for i, s := range shapes {
		qc, err := cell.CriticalCharge(sram.AxisI2, 1e-18, 2e-14, s.shape)
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			base = qc
		}
		fmt.Printf("%14s %16.5f   (ratio to rect: %.3f)\n", s.name, qc*1e15, qc/base)
	}
	fmt.Println("\nconclusion: equal-charge pulses of different shapes give matching")
	fmt.Println("critical charges — POF is set by deposited charge, as the paper reports.")
}

// runReadModeStudy compares hold-mode and read-mode (accessed cell)
// critical charges — the access-time vulnerability window.
func runReadModeStudy(tech finfet.Technology, vdd float64) {
	hold, err := sram.NewCellMode(tech, vdd, sram.VthShifts{}, sram.HoldMode)
	if err != nil {
		log.Fatal(err)
	}
	rd, err := sram.NewCellMode(tech, vdd, sram.VthShifts{}, sram.ReadMode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read-access vulnerability study (read-disturb level %.3f V)\n\n",
		rd.ReadDisturbVoltage())
	fmt.Printf("%10s %16s %16s %10s\n", "axis", "hold Qcrit (fC)", "read Qcrit (fC)", "ratio")
	for _, axis := range []sram.Axis{sram.AxisI1, sram.AxisI2} {
		qh, err := hold.CriticalCharge(axis, 1e-18, 5e-14, sram.ShapeRect)
		if err != nil {
			log.Fatal(err)
		}
		qr, err := rd.CriticalCharge(axis, 1e-18, 5e-14, sram.ShapeRect)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%10s %16.5f %16.5f %10.3f\n", axis, qh*1e15, qr*1e15, qr/qh)
	}
	fmt.Println("\naccessed cells flip at lower charge: the conducting pass gate lifts")
	fmt.Println("the '0' node toward the trip point before the particle even arrives.")
}

// run8TStudy compares the 6T cell against the 8T read-decoupled topology.
func run8TStudy(tech finfet.Technology, vdd float64) {
	fmt.Println("6T vs 8T read-decoupled cell")
	fmt.Printf("\n%24s %14s %14s\n", "condition", "6T Qcrit (fC)", "8T Qcrit (fC)")
	qc := func(cell *sram.Cell) float64 {
		v, err := cell.CriticalCharge(sram.AxisI1, 1e-18, 5e-14, sram.ShapeRect)
		if err != nil {
			log.Fatal(err)
		}
		return v * 1e15
	}
	hold6, err := sram.NewCellMode(tech, vdd, sram.VthShifts{}, sram.HoldMode)
	if err != nil {
		log.Fatal(err)
	}
	read6, err := sram.NewCellMode(tech, vdd, sram.VthShifts{}, sram.ReadMode)
	if err != nil {
		log.Fatal(err)
	}
	hold8, err := sram.NewCell8T(tech, vdd, sram.VthShifts{}, sram.HoldMode)
	if err != nil {
		log.Fatal(err)
	}
	read8, err := sram.NewCell8T(tech, vdd, sram.VthShifts{}, sram.ReadMode)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%24s %14.4f %14.4f\n", "hold", qc(hold6), qc(hold8.Cell))
	fmt.Printf("%24s %14.4f %14.4f\n", "accessed (read)", qc(read6), qc(read8.Cell))

	res, err := read8.SimulateReadPortStrike(5e-14)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nread-port strike of 50 fC flips the 8T cell: %v\n", res.Flipped)
	fmt.Println("the 8T pays two extra (benign) fins to keep its accessed-cell Qcrit")
	fmt.Println("at the hold level — the 6T loses stability every time it is read.")
}
