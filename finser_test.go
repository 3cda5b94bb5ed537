package finser

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Small-budget flow shared across tests.
var (
	flowOnce sync.Once
	flowRes  *FlowResult
	flowErr  error
)

func smallFlowConfig() FlowConfig {
	return FlowConfig{
		Vdd:              0.7,
		ProcessVariation: true,
		Samples:          40,
		ItersPerBin:      4000,
		AlphaBins:        6,
		ProtonBins:       8,
		Seed:             1,
	}
}

func sharedFlow(t *testing.T) *FlowResult {
	t.Helper()
	flowOnce.Do(func() {
		flowRes, flowErr = RunFlowCtx(context.Background(), smallFlowConfig())
	})
	if flowErr != nil {
		t.Fatal(flowErr)
	}
	return flowRes
}

func TestFlowConfigValidation(t *testing.T) {
	if _, err := RunFlowCtx(context.Background(), FlowConfig{}); err == nil {
		t.Error("zero Vdd accepted")
	}
	if _, err := RunVddSweepCtx(context.Background(), FlowConfig{}, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	if _, err := NeutronFITCtx(context.Background(), FlowConfig{}, nil); err == nil {
		t.Error("empty neutron sweep accepted")
	}
}

func TestRunFlowProducesPositiveRates(t *testing.T) {
	res := sharedFlow(t)
	if res.Vdd != 0.7 {
		t.Errorf("vdd = %v", res.Vdd)
	}
	if res.Alpha.TotalFIT <= 0 {
		t.Error("alpha FIT not positive")
	}
	if res.Proton.TotalFIT <= 0 {
		t.Error("proton FIT not positive")
	}
	if res.Char == nil {
		t.Error("characterization not returned")
	}
	// Paper claim 2: at 0.7 V, proton SER is comparable to alpha SER —
	// same order of magnitude.
	r := res.Proton.TotalFIT / res.Alpha.TotalFIT
	if r < 0.1 || r > 10 {
		t.Errorf("proton/alpha FIT at 0.7 V = %v, want same order", r)
	}
	// Paper claim 3: alpha MBU/SEU ratio well above proton's.
	if res.Alpha.MBUToSEU <= res.Proton.MBUToSEU {
		t.Errorf("alpha MBU/SEU %v%% not above proton %v%%",
			res.Alpha.MBUToSEU, res.Proton.MBUToSEU)
	}
}

func TestRunFlowDeterministic(t *testing.T) {
	res := sharedFlow(t)
	again, err := RunFlowCtx(context.Background(), smallFlowConfig())
	if err != nil {
		t.Fatal(err)
	}
	if again.Alpha.TotalFIT != res.Alpha.TotalFIT || again.Proton.TotalFIT != res.Proton.TotalFIT {
		t.Error("identical configs gave different FIT rates")
	}
}

func TestRunFlowWithCharReuses(t *testing.T) {
	res := sharedFlow(t)
	cfg := smallFlowConfig()
	again, err := RunFlowWithCharCtx(context.Background(), cfg, res.Char)
	if err != nil {
		t.Fatal(err)
	}
	if again.Alpha.TotalFIT != res.Alpha.TotalFIT {
		t.Error("reused characterization changed the result")
	}
}

// TestSpanPathsIndependentOfPlans: a span path names a stage, never its
// bins or shard range, so flows with different bin plans, and worker
// shards over different bin ranges, leave a registry with the span paths
// of either one alone. Each path is one /metrics family on a long-lived
// serd, so its family count must not grow with the job mix.
func TestSpanPathsIndependentOfPlans(t *testing.T) {
	ctx := context.Background()
	char := sharedFlow(t).Char
	paths := func(reg *Metrics) []string {
		var out []string
		for _, sp := range reg.Snapshot().Spans {
			out = append(out, sp.Path)
		}
		sort.Strings(out)
		return out
	}
	small := smallFlowConfig()
	small.ItersPerBin = 200
	other := small
	other.AlphaBins, other.ProtonBins = 3, 5
	flows := func(cfgs ...FlowConfig) []string {
		reg := NewMetrics()
		for _, c := range cfgs {
			c.Obs = reg
			if _, err := RunFlowWithCharCtx(ctx, c, char); err != nil {
				t.Fatal(err)
			}
		}
		return paths(reg)
	}
	if one, two := flows(small), flows(small, other); !reflect.DeepEqual(one, two) {
		t.Errorf("two bin plans leave span paths %v, one alone %v", two, one)
	}
	shards := func(ranges ...[2]int) []string {
		reg := NewMetrics()
		c := small
		c.Obs = reg
		for _, r := range ranges {
			if _, _, err := SpeciesShardPOFConvCtx(ctx, c, char, Alpha, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}
		return paths(reg)
	}
	if one, two := shards([2]int{0, 2}), shards([2]int{0, 2}, [2]int{2, 5}); !reflect.DeepEqual(one, two) {
		t.Errorf("two shard ranges leave span paths %v, one alone %v", two, one)
	}
}

func TestVddSweepOrdering(t *testing.T) {
	// Paper claim 1: SER increases at lower supply voltages.
	cfg := smallFlowConfig()
	cfg.Samples = 30
	cfg.ItersPerBin = 3000
	results, err := RunVddSweepCtx(context.Background(), cfg, []float64{0.7, 1.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Alpha.TotalFIT <= results[1].Alpha.TotalFIT {
		t.Errorf("alpha FIT not higher at 0.7 V: %v vs %v",
			results[0].Alpha.TotalFIT, results[1].Alpha.TotalFIT)
	}
	if results[0].Proton.TotalFIT <= results[1].Proton.TotalFIT {
		t.Errorf("proton FIT not higher at 0.7 V: %v vs %v",
			results[0].Proton.TotalFIT, results[1].Proton.TotalFIT)
	}
	// Paper claim 2 (slope): proton SER falls faster with Vdd than alpha.
	alphaDrop := results[0].Alpha.TotalFIT / results[1].Alpha.TotalFIT
	protonDrop := results[0].Proton.TotalFIT / results[1].Proton.TotalFIT
	if protonDrop <= alphaDrop {
		t.Errorf("proton Vdd slope (×%v) not steeper than alpha (×%v)",
			protonDrop, alphaDrop)
	}
}

func TestFinYieldCurve(t *testing.T) {
	tech := Default14nmSOI()
	energies := []float64{0.5, 1, 2, 5, 10}
	alpha, err := FinYieldCurveCtx(context.Background(), tech, Alpha, energies, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	proton, err := FinYieldCurveCtx(context.Background(), tech, Proton, energies, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range energies {
		if alpha[i].MeanPairs <= proton[i].MeanPairs {
			t.Errorf("at %v MeV alpha yield %v <= proton %v",
				energies[i], alpha[i].MeanPairs, proton[i].MeanPairs)
		}
	}
	// Decreasing with energy above the Bragg peak (Fig. 4 shape).
	if alpha[0].MeanPairs <= alpha[len(alpha)-1].MeanPairs {
		t.Error("alpha yield not decreasing with energy")
	}
	if _, err := FinYieldCurveCtx(context.Background(), tech, Alpha, nil, 10, 1); err == nil {
		t.Error("empty energies accepted")
	}
	if _, err := FinYieldCurveCtx(context.Background(), tech, Alpha, energies, 0, 1); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestPOFCurve(t *testing.T) {
	res := sharedFlow(t)
	eng, err := NewEngine(EngineConfig{
		Tech: Default14nmSOI(), Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, err := POFCurveCtx(context.Background(), eng, res.Char, Alpha, []float64{1, 10}, 5000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Tot <= pts[1].Tot {
		t.Errorf("POF curve wrong: %+v", pts)
	}
	if _, err := POFCurveCtx(context.Background(), eng, res.Char, Alpha, nil, 10, 1); err == nil {
		t.Error("empty energies accepted")
	}
	if _, err := POFCurveCtx(context.Background(), eng, res.Char, Alpha, []float64{1}, 0, 1); err == nil {
		t.Error("zero iters accepted")
	}
}

// TestEngineRunsFlowPhysics: an engine assembled by hand runs the flow's
// one device-level physics. With nothing but the array and a registry it
// gives bit-identical α and p POF points to the flow's own engine, and
// counts the same strikes in its core.* and transport.* counters.
func TestEngineRunsFlowPhysics(t *testing.T) {
	res := sharedFlow(t)
	reg, flowReg := NewMetrics(), NewMetrics()
	eng, err := NewEngine(EngineConfig{Tech: Default14nmSOI(), Rows: 9, Cols: 9, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallFlowConfig()
	cfg.Obs = flowReg
	if cfg, err = cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	flowEng, err := buildFlowEngine(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, sp := range []Species{Alpha, Proton} {
		for _, en := range []float64{0.5, 2} {
			got, err := eng.POFAtEnergyCtx(ctx, res.Char, sp, en, 4000, 11)
			if err != nil {
				t.Fatal(err)
			}
			want, err := flowEng.POFAtEnergyCtx(ctx, res.Char, sp, en, 4000, 11)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%v @%g MeV: hand-built engine %+v, flow engine %+v", sp, en, got, want)
			}
		}
	}
	// The strike counters, without the wall-time ones.
	strikeCounters := func(r *Metrics) map[string]int64 {
		out := map[string]int64{}
		for name, v := range r.Snapshot().Counters {
			if (strings.HasPrefix(name, "core") || strings.HasPrefix(name, "transport.")) && !strings.HasSuffix(name, "_ns") {
				out[name] = v
			}
		}
		return out
	}
	got, want := strikeCounters(reg), strikeCounters(flowReg)
	if got["transport.rays_traced"] == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("hand-built engine counted %v, flow engine %v", got, want)
	}
}

func TestSpectrumCurve(t *testing.T) {
	s, err := NewAlphaSpectrum(DefaultAlphaRate)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := SpectrumCurve(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 20 {
		t.Fatalf("points = %d", len(pts))
	}
	anyPositive := false
	for _, p := range pts {
		if p.Flux < 0 {
			t.Fatal("negative flux point")
		}
		if p.Flux > 0 {
			anyPositive = true
		}
	}
	if !anyPositive {
		t.Error("all-zero spectrum curve")
	}
	if _, err := SpectrumCurve(s, 1); err == nil {
		t.Error("n=1 accepted")
	}
}

func TestLogSpaceExport(t *testing.T) {
	pts := LogSpace(1, 100, 3)
	if len(pts) != 3 || pts[0] != 1 || math.Abs(pts[1]-10) > 1e-9 || pts[2] != 100 {
		t.Errorf("LogSpace = %v", pts)
	}
}
