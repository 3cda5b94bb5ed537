// Benchmark harness: one benchmark per paper figure (the DAC'14 paper has
// no numbered tables — its evaluation is Figs. 2, 4, 8, 9, 10, 11) plus
// ablation benches for the design choices called out in DESIGN.md. Each
// benchmark reports the figure's headline quantities as custom metrics, so
// `go test -bench=. -benchmem` both times the flow and regenerates the
// numbers EXPERIMENTS.md records.
//
// Budgets are deliberately small (benchmarks must iterate); use
// cmd/figures for publication-scale sweeps.
package finser

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"finser/internal/logic"
	"finser/internal/phys"
	"finser/internal/sram"
)

// mustPOF is POFAtEnergyCtx under a background context, failing tb on error.
func mustPOF(tb testing.TB, e *Engine, m POFProvider, sp Species, energyMeV float64, iters int, seed uint64) POFPoint {
	tb.Helper()
	pt, err := e.POFAtEnergyCtx(context.Background(), m, sp, energyMeV, iters, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return pt
}

// mustMBU is MBUStatsAtEnergyCtx under a background context.
func mustMBU(tb testing.TB, e *Engine, m POFProvider, sp Species, energyMeV float64, iters, maxK int, seed uint64) MBUReport {
	tb.Helper()
	rep, err := e.MBUStatsAtEnergyCtx(context.Background(), m, sp, energyMeV, iters, maxK, seed)
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// Shared bench fixtures (characterizations dominate setup cost).
var (
	benchOnce sync.Once
	benchChar map[string]*Characterization
	benchErr  error
)

func benchFixtures(b *testing.B) map[string]*Characterization {
	b.Helper()
	benchOnce.Do(func() {
		benchChar = map[string]*Characterization{}
		for _, v := range []float64{0.7, 0.8, 1.1} {
			ch, err := CharacterizeCtx(context.Background(), CharConfig{
				Tech: Default14nmSOI(), Vdd: v,
				ProcessVariation: true, Samples: 60, Seed: 1,
			})
			if err != nil {
				benchErr = err
				return
			}
			benchChar[key(v, true)] = ch
		}
		nom, err := CharacterizeCtx(context.Background(), CharConfig{
			Tech: Default14nmSOI(), Vdd: 0.7, ProcessVariation: false, Seed: 1,
		})
		if err != nil {
			benchErr = err
			return
		}
		benchChar[key(0.7, false)] = nom
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchChar
}

func key(vdd float64, pv bool) string {
	if pv {
		return "pv" + fmtVdd(vdd)
	}
	return "nom" + fmtVdd(vdd)
}

func fmtVdd(v float64) string {
	switch v {
	case 0.7:
		return "0.7"
	case 0.8:
		return "0.8"
	case 1.1:
		return "1.1"
	}
	return "x"
}

// benchEngine is the default 9×9 engine.
func benchEngine(b *testing.B) *Engine {
	b.Helper()
	e, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkFig2ProtonSpectrum regenerates the sea-level proton flux curve.
func BenchmarkFig2ProtonSpectrum(b *testing.B) {
	s, err := NewProtonSpectrum(1)
	if err != nil {
		b.Fatal(err)
	}
	var last []SpectrumPoint
	for i := 0; i < b.N; i++ {
		last, err = SpectrumCurve(s, 29)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(last[0].Flux/last[len(last)-1].Flux, "flux-dynamic-range")
}

// BenchmarkFig2AlphaSpectrum regenerates the alpha emission curve and
// reports the total emission rate (paper: 0.001 α/(cm²·h)).
func BenchmarkFig2AlphaSpectrum(b *testing.B) {
	s, err := NewAlphaSpectrum(DefaultAlphaRate)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := SpectrumCurve(s, 25); err != nil {
			b.Fatal(err)
		}
	}
	bins, err := Bins(s, 0.5, 10, 12)
	if err != nil {
		b.Fatal(err)
	}
	total := 0.0
	for _, bin := range bins {
		total += bin.IntFlux
	}
	b.ReportMetric(total*3600, "alpha-per-cm2-hour")
}

// BenchmarkFig4ElectronLUT regenerates the single-fin electron yield curve
// for both species and reports the alpha/proton yield ratio at 1 MeV —
// the paper's Fig. 4 ordering.
func BenchmarkFig4ElectronLUT(b *testing.B) {
	tech := Default14nmSOI()
	energies := []float64{0.1, 0.5, 1, 5, 10, 50, 100}
	var ratio float64
	for i := 0; i < b.N; i++ {
		a, err := FinYieldCurveCtx(context.Background(), tech, Alpha, energies, 2000, 1)
		if err != nil {
			b.Fatal(err)
		}
		p, err := FinYieldCurveCtx(context.Background(), tech, Proton, energies, 2000, 2)
		if err != nil {
			b.Fatal(err)
		}
		ratio = a[2].MeanPairs / p[2].MeanPairs
	}
	b.ReportMetric(ratio, "alpha/proton-pairs@1MeV")
}

// BenchmarkFig8POFvsEnergy regenerates one POF-vs-energy series point pair
// and reports POF(0.7V)/POF(0.8V) for alphas at 1 MeV.
func BenchmarkFig8POFvsEnergy(b *testing.B) {
	chars := benchFixtures(b)
	e := benchEngine(b)
	var p07, p08 POFPoint
	for i := 0; i < b.N; i++ {
		p07 = mustPOF(b, e, chars[key(0.7, true)], phys.Alpha, 1, 8000, 3)
		p08 = mustPOF(b, e, chars[key(0.8, true)], phys.Alpha, 1, 8000, 3)
	}
	b.ReportMetric(p07.Tot, "pof-0.7V")
	if p08.Tot > 0 {
		b.ReportMetric(p07.Tot/p08.Tot, "pof-ratio-0.7/0.8")
	}
}

// BenchmarkFig9FITvsVdd regenerates the FIT-vs-Vdd endpoints and reports
// the proton/alpha crossover ratios and the species' Vdd slopes, each with
// its 1σ Monte-Carlo error propagated from the two TotalFITErrs.
func BenchmarkFig9FITvsVdd(b *testing.B) {
	chars := benchFixtures(b)
	alphaSpec, _ := NewAlphaSpectrum(DefaultAlphaRate)
	protonSpec, _ := NewProtonSpectrum(1)
	ab, _ := Bins(alphaSpec, 0.5, 10, 8)
	pb, _ := Bins(protonSpec, 0.1, 100, 10)
	ch07, ch11 := chars[key(0.7, true)], chars[key(1.1, true)]
	var a07, a11, p07, p11 FITResult
	for i := 0; i < b.N; i++ {
		e := benchEngine(b)
		var err error
		if a07, err = e.FITCtx(context.Background(), ch07, alphaSpec, ab, 6000, 5); err != nil {
			b.Fatal(err)
		}
		if a11, err = e.FITCtx(context.Background(), ch11, alphaSpec, ab, 6000, 5); err != nil {
			b.Fatal(err)
		}
		if p07, err = e.FITCtx(context.Background(), ch07, protonSpec, pb, 6000, 6); err != nil {
			b.Fatal(err)
		}
		if p11, err = e.FITCtx(context.Background(), ch11, protonSpec, pb, 6000, 6); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range []struct {
		name     string
		num, den FITResult
	}{
		{"proton/alpha@0.7V", p07, a07},
		{"proton/alpha@1.1V", p11, a11},
		{"alpha-vdd-slope", a07, a11},
		{"proton-vdd-slope", p07, p11},
	} {
		ratio := r.num.TotalFIT / r.den.TotalFIT
		b.ReportMetric(ratio, r.name)
		b.ReportMetric(ratio*math.Hypot(r.num.TotalFITErr/r.num.TotalFIT, r.den.TotalFITErr/r.den.TotalFIT), r.name+"-1sigma")
	}
}

// BenchmarkAdaptiveFIT times the confidence-driven sampler on the Fig. 9
// workload at paper-scale per-bin budgets: the 0.7 V alpha stage's plan
// (8 bins over 0.5–10 MeV, seed 5), where the flat reference spends
// ItersPerBin particles in every bin and the adaptive run stops each bin at
// a 2% weight-scaled tolerance. Reports the wall-clock speedup, the
// fraction of the particle budget spent, and the relative FIT deviation
// (which must sit inside the reference's confidence interval — speed
// bought with accuracy is no speedup).
func BenchmarkAdaptiveFIT(b *testing.B) {
	ch := ch0(b, benchFixtures(b))
	cfg := FlowConfig{Vdd: 0.7, ItersPerBin: 240000, AlphaBins: 8, Seed: 4}
	var flat, ad FITResult
	var flatNs, adNs int64
	for i := 0; i < b.N; i++ {
		t0 := nowNano()
		var err error
		if flat, err = SpeciesFITCtx(context.Background(), cfg, ch, Alpha); err != nil {
			b.Fatal(err)
		}
		t1 := nowNano()
		adaptive := cfg
		adaptive.FITRelErr = 0.02
		if ad, err = SpeciesFITCtx(context.Background(), adaptive, ch, Alpha); err != nil {
			b.Fatal(err)
		}
		flatNs += t1 - t0
		adNs += nowNano() - t1
	}
	spent := 0
	for _, pt := range ad.Points {
		spent += pt.Strikes
	}
	dev := ad.TotalFIT - flat.TotalFIT
	if dev < 0 {
		dev = -dev
	}
	b.ReportMetric(float64(flatNs)/float64(adNs), "speedup-x")
	b.ReportMetric(float64(spent)/float64(cfg.ItersPerBin*len(ad.Bins)), "budget-frac")
	b.ReportMetric(dev/flat.TotalFITErr, "fit-dev-sigma")
}

func nowNano() int64 { return time.Now().UnixNano() }

// ch0 picks the 0.7 V PV characterization from the bench fixtures.
func ch0(b *testing.B, chars map[string]*Characterization) *Characterization {
	b.Helper()
	ch := chars[key(0.7, true)]
	if ch == nil {
		b.Fatal("missing 0.7 V characterization")
	}
	return ch
}

// BenchmarkFig10MBUSEU regenerates the MBU/SEU ratios at 0.7 V.
func BenchmarkFig10MBUSEU(b *testing.B) {
	chars := benchFixtures(b)
	alphaSpec, _ := NewAlphaSpectrum(DefaultAlphaRate)
	protonSpec, _ := NewProtonSpectrum(1)
	ab, _ := Bins(alphaSpec, 0.5, 10, 8)
	pb, _ := Bins(protonSpec, 0.1, 100, 10)
	ch := chars[key(0.7, true)]
	var fa, fp FITResult
	for i := 0; i < b.N; i++ {
		e := benchEngine(b)
		var err error
		if fa, err = e.FITCtx(context.Background(), ch, alphaSpec, ab, 8000, 5); err != nil {
			b.Fatal(err)
		}
		if fp, err = e.FITCtx(context.Background(), ch, protonSpec, pb, 8000, 6); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fa.MBUToSEU, "alpha-mbu/seu-%")
	b.ReportMetric(fp.MBUToSEU, "proton-mbu/seu-%")
}

// BenchmarkFig11ProcessVariation regenerates the PV-vs-nominal comparison
// at 0.7 V and reports the underestimation percentage.
func BenchmarkFig11ProcessVariation(b *testing.B) {
	chars := benchFixtures(b)
	alphaSpec, _ := NewAlphaSpectrum(DefaultAlphaRate)
	ab, _ := Bins(alphaSpec, 0.5, 10, 8)
	var pv, nom FITResult
	for i := 0; i < b.N; i++ {
		e := benchEngine(b)
		var err error
		if pv, err = e.FITCtx(context.Background(), chars[key(0.7, true)], alphaSpec, ab, 10000, 5); err != nil {
			b.Fatal(err)
		}
		if nom, err = e.FITCtx(context.Background(), chars[key(0.7, false)], alphaSpec, ab, 10000, 5); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(pv.TotalFIT-nom.TotalFIT)/pv.TotalFIT, "pv-underestimate-%")
}

// BenchmarkPulseShapeEquivalence is the §4 ablation: the critical charge
// must agree across rectangular, triangular, and double-exponential pulses
// of equal charge. Reports the worst-case ratio to the rectangular Qcrit.
func BenchmarkPulseShapeEquivalence(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		worst = 1.0
		var qRect float64
		for _, shape := range []PulseShape{ShapeRect, ShapeTriangle, ShapeDoubleExp} {
			ch, err := CharacterizeCtx(context.Background(), CharConfig{
				Tech: Default14nmSOI(), Vdd: 0.8,
				ProcessVariation: false, Seed: 1, Shape: shape,
			})
			if err != nil {
				b.Fatal(err)
			}
			q := ch.Axis[0][0]
			if shape == ShapeRect {
				qRect = q
				continue
			}
			r := q / qRect
			if r < 1 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
		}
	}
	b.ReportMetric(worst, "worst-qcrit-shape-ratio")
}

// BenchmarkArrayMCThroughput measures raw strike throughput (the paper
// quotes 10M iterations in ~2 h for the whole flow on its setup).
func BenchmarkArrayMCThroughput(b *testing.B) {
	chars := benchFixtures(b)
	e := benchEngine(b)
	const batch = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPOF(b, e, chars[key(0.8, true)], phys.Alpha, 1, batch, uint64(i))
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "strikes/s")
}

// BenchmarkObsOverhead guards the observability layer's cost: it runs the
// same array-MC batch with metrics fully enabled, as the flow enables
// them (one registry behind the engine counters, the multiplicity
// histogram, worker timing and the transport counters), and reports
// throughput plus the instrumented/uninstrumented ratio. The design target
// is < 2% overhead enabled and ~0% disabled (the nil-receiver no-op path).
func BenchmarkObsOverhead(b *testing.B) {
	chars := benchFixtures(b)
	const batch = 2000
	run := func(b *testing.B, reg *Metrics) float64 {
		e, err := NewEngine(EngineConfig{
			Tech: Default14nmSOI(), Rows: 9, Cols: 9, Metrics: reg,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			mustPOF(b, e, chars[key(0.8, true)], phys.Alpha, 1, batch, uint64(i))
		}
		rate := float64(batch) * float64(b.N) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "strikes/s")
		return rate
	}
	var off, on float64
	b.Run("disabled", func(b *testing.B) { off = run(b, nil) })
	b.Run("enabled", func(b *testing.B) { on = run(b, NewMetrics()) })
	if off > 0 && on > 0 {
		b.Logf("obs overhead: %.2f%% (disabled %.0f strikes/s, enabled %.0f strikes/s)",
			100*(off-on)/off, off, on)
	}
}

// BenchmarkIncidenceModes is the incidence ablation: cosine-law versus
// isotropic incidence changes the grazing-track population and with it the
// MBU share. Reports the isotropic/cosine MBU ratio for 1 MeV alphas.
func BenchmarkIncidenceModes(b *testing.B) {
	chars := benchFixtures(b)
	var ratio float64
	for i := 0; i < b.N; i++ {
		iso := incidenceEngine(b, IncidenceIsotropic)
		cos := incidenceEngine(b, IncidenceCosine)
		pi := mustPOF(b, iso, chars[key(0.8, true)], phys.Alpha, 1, 12000, 3)
		pc := mustPOF(b, cos, chars[key(0.8, true)], phys.Alpha, 1, 12000, 3)
		if pc.MBU > 0 {
			ratio = pi.MBU / pc.MBU
		}
	}
	b.ReportMetric(ratio, "iso/cos-mbu-ratio")
}

func incidenceEngine(b *testing.B, inc Incidence) *Engine {
	b.Helper()
	e, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Incidence: &inc,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkNeutronSER times the indirect-ionization extension and reports
// the neutron FIT and its ratio to alpha at 0.8 V.
func BenchmarkNeutronSER(b *testing.B) {
	ch := benchFixtures(b)[key(0.8, true)]
	e := benchEngine(b)
	rx := NewNeutronReactions()
	nSpec, err := NewNeutronSpectrum(1)
	if err != nil {
		b.Fatal(err)
	}
	nBins, _ := Bins(nSpec, 2, 1000, 8)
	aSpec, _ := NewAlphaSpectrum(DefaultAlphaRate)
	aBins, _ := Bins(aSpec, 0.5, 10, 8)
	var nRes, aRes FITResult
	for i := 0; i < b.N; i++ {
		var err error
		if nRes, err = e.NeutronFITCtx(context.Background(), ch, nSpec, rx, nBins, 20000, 5); err != nil {
			b.Fatal(err)
		}
		if aRes, err = e.FITCtx(context.Background(), ch, aSpec, aBins, 8000, 6); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(nRes.TotalFIT, "neutron-fit")
	if aRes.TotalFIT > 0 {
		b.ReportMetric(nRes.TotalFIT/aRes.TotalFIT, "neutron/alpha")
	}
}

// BenchmarkDepositModes is the LUT-vs-transport ablation: the paper builds
// single-fin yield LUTs for tractability; full transport resolves chords.
// Reports the POF ratio between the modes and their relative speed.
func BenchmarkDepositModes(b *testing.B) {
	ch := benchFixtures(b)[key(0.8, true)]
	full := benchEngine(b)
	lutEng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
		Deposits: DepositLUT, LUTIters: 4000,
	})
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		a := mustPOF(b, full, ch, phys.Alpha, 1, 10000, 3)
		l := mustPOF(b, lutEng, ch, phys.Alpha, 1, 10000, 3)
		if a.Tot > 0 {
			ratio = l.Tot / a.Tot
		}
	}
	b.ReportMetric(ratio, "lut/transport-pof")
}

// BenchmarkECCInterleave sweeps column-interleave factors over measured MBU
// geometry and reports the uncorrectable share at 4-way interleaving.
func BenchmarkECCInterleave(b *testing.B) {
	ch := benchFixtures(b)[key(0.7, true)]
	e := benchEngine(b)
	var share float64
	for i := 0; i < b.N; i++ {
		rep := mustMBU(b, e, ch, phys.Alpha, 1, 30000, 6, 11)
		as, err := ECCInterleaveSweep(rep, []int{1, 4}, true)
		if err != nil {
			b.Fatal(err)
		}
		share = as[1].UncorrectableShare
	}
	b.ReportMetric(100*share, "uncorrectable-%@4way")
}

// BenchmarkLargeArray measures engine scaling to a 64×64 array (4096 cells,
// 24576 fins) — well past the paper's 9×9, validating that the broad-phase
// culling keeps the per-strike cost manageable at realistic block sizes.
func BenchmarkLargeArray(b *testing.B) {
	chars := benchFixtures(b)
	e, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 64, Cols: 64,
	})
	if err != nil {
		b.Fatal(err)
	}
	const batch = 2000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustPOF(b, e, chars[key(0.8, true)], phys.Alpha, 1, batch, uint64(i))
	}
	b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "strikes/s")
}

// BenchmarkLogicSETThreshold times the combinational-logic extension and
// reports the SET propagation threshold vs the SRAM critical charge.
func BenchmarkLogicSETThreshold(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		ch, err := logic.NewChain(Default14nmSOI(), 0.8, 6)
		if err != nil {
			b.Fatal(err)
		}
		thr, err := ch.PropagationThreshold(1e-18, 5e-14)
		if err != nil {
			b.Fatal(err)
		}
		cell, err := sram.NewCell(Default14nmSOI(), 0.8, sram.VthShifts{})
		if err != nil {
			b.Fatal(err)
		}
		qc, err := cell.CriticalCharge(sram.AxisI1, 1e-18, 5e-14, sram.ShapeRect)
		if err != nil {
			b.Fatal(err)
		}
		ratio = thr / qc
	}
	b.ReportMetric(ratio, "logic/sram-threshold")
}

// BenchmarkGridLUTEval measures the serialized-LUT POF evaluation path —
// the per-strike cost of the paper's LUT-only array architecture.
func BenchmarkGridLUTEval(b *testing.B) {
	chars := benchFixtures(b)
	grid, err := BuildGridLUT(chars[key(0.8, true)], 0, 0, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := [3]float64{8e-17, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q[0] = 5e-17 + float64(i%64)*1e-18
		_ = grid.POF(q)
	}
}

// BenchmarkScrubLifetimeValidation cross-checks the analytic scrub model
// against the event simulator and reports their ratio.
func BenchmarkScrubLifetimeValidation(b *testing.B) {
	sc := ScrubConfig{Words: 1 << 12, SEUFIT: 5e10}
	analytic := sc.UncorrectableFIT(2)
	var ratio float64
	for i := 0; i < b.N; i++ {
		res, err := SimulateLifetime(LifetimeConfig{
			Words:              1 << 12,
			SEURatePerHour:     5e10 / 1e9,
			ScrubIntervalHours: 2,
			MaxHours:           1e5,
		}, 300, uint64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.FIT / analytic
	}
	b.ReportMetric(ratio, "sim/analytic-fit")
}
