package transport

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/layout"
	"finser/internal/obs"
	"finser/internal/phys"
	"finser/internal/rng"
)

// testFin is a 14nm-class fin: 10 nm wide (X), 20 nm long (Y), 30 nm tall (Z).
func testFin() geom.AABB {
	return geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30))
}

func detConfig() Config {
	c := DefaultConfig()
	c.Straggling = false
	c.FanoFluctuation = false
	return c
}

// trace transports one particle along ray through every fin: the narrow
// phase over all of fins, then TraceAppend. It returns nil when nothing
// was deposited.
func trace(cfg Config, sp phys.Species, energyMeV float64, ray geom.Ray, fins []geom.AABB, src *rng.Source) []Deposit {
	idx := make([]int, len(fins))
	for i := range idx {
		idx[i] = i
	}
	return TraceAppend(cfg, sp, energyMeV, Crossings(ray, fins, idx, nil), src, nil)
}

// TestCrossingsNarrowPhase: Crossings reports each crossed candidate by
// its index into boxes, in candidate order, with the ray's entry and exit;
// it skips candidates the ray misses and a fin the ray only touches.
func TestCrossingsNarrowPhase(t *testing.T) {
	boxes := []geom.AABB{
		geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30)),
		geom.BoxAt(geom.V(100, 0, 0), geom.V(10, 20, 30)),
		geom.BoxAt(geom.V(50, 100, 0), geom.V(10, 20, 30)), // off the ray
		geom.BoxAt(geom.V(50, -20, 0), geom.V(10, 20, 30)), // corner at (60, 0)
	}
	ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
	got := Crossings(ray, boxes, []int{1, 2, 0}, nil)
	want := []Crossing{{Fin: 1, TIn: 105, TOut: 115}, {Fin: 0, TIn: 5, TOut: 15}}
	if len(got) != len(want) {
		t.Fatalf("crossings = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("crossing %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	// Crossings appends: out's existing elements are kept.
	prev := []Crossing{{Fin: 7}}
	if got := Crossings(ray, boxes, []int{0}, prev); len(got) != 2 || got[0].Fin != 7 || got[1].Fin != 0 {
		t.Errorf("append form = %+v", got)
	}
	// A ray through box 3's corner meets it (entry == exit) but crosses no
	// silicon.
	touch := geom.Ray{Origin: geom.V(0, 60, 15), Dir: geom.V(1, -1, 0).Unit()}
	if tIn, tOut, ok := boxes[3].Intersect(touch); !ok || tIn != tOut {
		t.Fatalf("corner ray: Intersect = %v, %v, %v; want a single touching point", tIn, tOut, ok)
	}
	if got := Crossings(touch, boxes, []int{3}, nil); len(got) != 0 {
		t.Errorf("a touching ray crosses %+v, want nothing", got)
	}
}

// TestCrossingsMatchIntersect: Crossings runs geom.AABB.Intersect's slab
// steps on a direction it inverts once per ray, and must report the chords
// a loop over Intersect does, bit for bit, over every fin box of a 9×9
// array, for four kinds of ray: downward from the array's top face (an α
// or p strike), from inside a fin in any direction (a neutron's
// secondaries), with one direction component ±0, and lying in the plane
// of a fin face.
func TestCrossingsMatchIntersect(t *testing.T) {
	arr, err := layout.NewArray(layout.ThinCellLayout(finfet.Default14nmSOI()), 9, 9)
	if err != nil {
		t.Fatal(err)
	}
	boxes, bounds := arr.Boxes(), arr.Bounds()
	idx := make([]int, len(boxes))
	for i := range idx {
		idx[i] = i
	}
	kinds := [4]string{"top", "inside", "axis-zero", "grazing"}
	var crossed [4]int
	var got, want []Crossing
	comp := func(v *geom.Vec3, axis int) *float64 { return [3]*float64{&v.X, &v.Y, &v.Z}[axis] }
	src := rng.New(11)
	const n = 5000
	for i := 0; i < n; i++ {
		fin := boxes[src.Intn(len(boxes))]
		near := geom.Box(fin.Min.Sub(geom.V(5, 5, 5)), fin.Max.Add(geom.V(5, 5, 5)))
		rays := [4]geom.Ray{
			{Origin: src.PointOnTopFace(bounds), Dir: src.DownwardIsotropic()},
			{Origin: src.PointInBox(fin), Dir: src.IsotropicDirection()},
			{Origin: src.PointInBox(bounds), Dir: src.IsotropicDirection()},
			{Origin: src.PointInBox(near), Dir: src.IsotropicDirection()},
		}
		axis, zero := src.Intn(3), math.Copysign(0, src.Float64()-0.5)
		*comp(&rays[2].Dir, axis) = zero
		// The grazing ray starts in the plane of the fin's low or high face
		// on that axis, a little beyond the face, so some run along an edge.
		*comp(&rays[3].Dir, axis) = zero
		*comp(&rays[3].Origin, axis) = *comp(&fin.Min, axis)
		if src.Float64() < 0.5 {
			*comp(&rays[3].Origin, axis) = *comp(&fin.Max, axis)
		}
		for k, ray := range rays {
			got = Crossings(ray, boxes, idx, got[:0])
			want = want[:0]
			for _, fi := range idx {
				if tIn, tOut, ok := boxes[fi].Intersect(ray); ok && tOut > tIn {
					want = append(want, Crossing{Fin: fi, TIn: tIn, TOut: tOut})
				}
			}
			same := len(got) == len(want)
			for j := 0; same && j < len(got); j++ {
				same = got[j].Fin == want[j].Fin &&
					math.Float64bits(got[j].TIn) == math.Float64bits(want[j].TIn) &&
					math.Float64bits(got[j].TOut) == math.Float64bits(want[j].TOut)
			}
			if !same {
				t.Fatalf("%s ray %+v: Crossings = %+v, Intersect gives %+v", kinds[k], ray, got, want)
			}
			crossed[k] += len(got)
		}
	}
	t.Logf("fins crossed per kind of ray %v: %v", kinds, crossed)
	for k, c := range crossed {
		if c < n/10 {
			t.Errorf("%s rays crossed %d fins in all, too few to compare", kinds[k], c)
		}
	}
}

func TestTraceDeterministicCrossing(t *testing.T) {
	fin := testFin()
	// 1 MeV alpha across the 10 nm width.
	ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
	deps := trace(detConfig(), phys.Alpha, 1, ray, []geom.AABB{fin}, nil)
	if len(deps) != 1 {
		t.Fatalf("deposits = %d, want 1", len(deps))
	}
	d := deps[0]
	if math.Abs(d.PathNm-10) > 1e-9 {
		t.Errorf("path = %v, want 10", d.PathNm)
	}
	// S(alpha, 1 MeV) ≈ 312 eV/nm → ≈ 3121 eV over 10 nm → ≈ 867 pairs.
	if d.EnergyEV < 2500 || d.EnergyEV > 3800 {
		t.Errorf("deposit = %v eV, want ≈ 3120", d.EnergyEV)
	}
	if math.Abs(d.Pairs-d.EnergyEV/phys.EVPerPair) > 1e-9 {
		t.Errorf("pairs inconsistent with deposit: %v vs %v", d.Pairs, d.EnergyEV/3.6)
	}
}

func TestTraceMiss(t *testing.T) {
	fin := testFin()
	ray := geom.Ray{Origin: geom.V(-5, 100, 15), Dir: geom.V(1, 0, 0)}
	if deps := trace(detConfig(), phys.Alpha, 1, ray, []geom.AABB{fin}, nil); deps != nil {
		t.Fatalf("expected nil deposits, got %v", deps)
	}
}

func TestTraceZeroEnergy(t *testing.T) {
	fin := testFin()
	ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
	if deps := trace(detConfig(), phys.Alpha, 0, ray, []geom.AABB{fin}, nil); deps != nil {
		t.Fatal("expected no deposits at zero energy")
	}
}

func TestTracePanicsWithoutRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: straggling without rng")
		}
	}()
	cfg := detConfig()
	cfg.Straggling = true
	trace(cfg, phys.Alpha, 1, geom.Ray{Dir: geom.V(1, 0, 0)}, []geom.AABB{testFin()}, nil)
}

func TestTraceEnergyConservation(t *testing.T) {
	// Total deposited energy never exceeds the particle's kinetic energy,
	// even across many fins with straggling on.
	fins := make([]geom.AABB, 0, 20)
	for i := 0; i < 20; i++ {
		fins = append(fins, geom.BoxAt(geom.V(float64(i)*48, 0, 0), geom.V(10, 20, 30)))
	}
	src := rng.New(1)
	cfg := DefaultConfig()
	for trial := 0; trial < 200; trial++ {
		e := 0.05 + 2*src.Float64() // MeV
		ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
		total := 0.0
		for _, d := range trace(cfg, phys.Alpha, e, ray, fins, src) {
			if d.EnergyEV < 0 || d.Pairs < 0 {
				t.Fatalf("negative deposit %+v", d)
			}
			total += d.EnergyEV
		}
		if total > e*1e6+1e-6 {
			t.Fatalf("deposited %v eV > kinetic %v eV", total, e*1e6)
		}
	}
}

func TestTraceLowEnergyRangesOut(t *testing.T) {
	// A 10 keV alpha ranges out within ~150 nm of silicon. A 500 nm gap is
	// 500 nm of silicon-equivalent path at full density and 250 nm at half
	// density: either way the particle stops inside it and must not reach
	// the far fin.
	far := geom.BoxAt(geom.V(500, 0, 0), geom.V(10, 20, 30))
	ray := geom.Ray{Origin: geom.V(0, 10, 15), Dir: geom.V(1, 0, 0)}
	for _, scale := range []float64{1, 0.5} {
		cfg := detConfig()
		cfg.InterFinStoppingScale = scale
		deps := trace(cfg, phys.Alpha, 0.01, ray, []geom.AABB{far}, nil)
		total := 0.0
		for _, d := range deps {
			total += d.EnergyEV
		}
		if total > 1 {
			t.Errorf("gap scale %g: ranged-out particle deposited %v eV in far fin", scale, total)
		}
	}
}

func TestTraceGaplessVsLossyGap(t *testing.T) {
	// With lossless gaps the second fin sees a higher-energy (for alphas
	// above the Bragg peak: lower-stopping) particle than with lossy gaps.
	fins := []geom.AABB{
		geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30)),
		geom.BoxAt(geom.V(2000, 0, 0), geom.V(10, 20, 30)),
	}
	ray := geom.Ray{Origin: geom.V(-1, 10, 15), Dir: geom.V(1, 0, 0)}
	lossless := detConfig()
	lossless.InterFinStoppingScale = 0
	lossy := detConfig()
	lossy.InterFinStoppingScale = 1

	dLossless := trace(lossless, phys.Alpha, 2, ray, fins, nil)
	dLossy := trace(lossy, phys.Alpha, 2, ray, fins, nil)
	if len(dLossless) != 2 || len(dLossy) != 2 {
		t.Fatalf("want 2 deposits each, got %d and %d", len(dLossless), len(dLossy))
	}
	// 2 MeV alpha is above the Bragg peak: losing energy in the gap
	// *increases* stopping, so the lossy second deposit is larger.
	if dLossy[1].EnergyEV <= dLossless[1].EnergyEV {
		t.Errorf("lossy gap deposit %v <= lossless %v",
			dLossy[1].EnergyEV, dLossless[1].EnergyEV)
	}
}

func TestTraceOrdering(t *testing.T) {
	fins := []geom.AABB{
		geom.BoxAt(geom.V(100, 0, 0), geom.V(10, 20, 30)),
		geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30)), // hit first, listed second
	}
	ray := geom.Ray{Origin: geom.V(-1, 10, 15), Dir: geom.V(1, 0, 0)}
	deps := trace(detConfig(), phys.Alpha, 5, ray, fins, nil)
	if len(deps) != 2 || deps[0].Fin != 1 || deps[1].Fin != 0 {
		t.Fatalf("traversal order wrong: %+v", deps)
	}
}

func TestSecantThroughBox(t *testing.T) {
	src := rng.New(7)
	b := testFin()
	var chordSum float64
	const n = 20000
	for i := 0; i < n; i++ {
		r := SecantThroughBox(src, b)
		if math.Abs(r.Dir.Norm()-1) > 1e-9 {
			t.Fatal("secant direction not unit")
		}
		tIn, tOut, ok := b.Intersect(r)
		if !ok {
			t.Fatal("secant misses its box")
		}
		if tIn > 1e-6 {
			t.Fatalf("secant does not start at entry: tIn=%v", tIn)
		}
		chordSum += tOut - tIn
	}
	// Cauchy mean chord = 4V/S. V=6000, S=2(10·20+10·30+20·30)=2200 → 10.9.
	mean := chordSum / n
	if math.Abs(mean-10.909)/10.909 > 0.05 {
		t.Errorf("mean chord = %v, want ≈ 10.9 (4V/S)", mean)
	}
}

func TestFinYieldDecreasingInEnergy(t *testing.T) {
	// Fig. 4 property: mean pairs decrease with energy above the Bragg peak.
	src := rng.New(11)
	cfg := detConfig()
	fin := testFin()
	yLow := finYield(t, cfg, phys.Alpha, 1, fin, 4000, src)
	yHigh := finYield(t, cfg, phys.Alpha, 10, fin, 4000, src)
	if yLow.MeanPairs <= yHigh.MeanPairs {
		t.Errorf("alpha yield not decreasing: %v at 1 MeV vs %v at 10 MeV",
			yLow.MeanPairs, yHigh.MeanPairs)
	}
	if yLow.HitFrac < 0.99 {
		t.Errorf("secants should always deposit; hit fraction %v", yLow.HitFrac)
	}
}

func TestFinYieldAlphaExceedsProton(t *testing.T) {
	src := rng.New(13)
	cfg := detConfig()
	fin := testFin()
	for _, e := range []float64{0.5, 1, 5} {
		a := finYield(t, cfg, phys.Alpha, e, fin, 3000, src).MeanPairs
		p := finYield(t, cfg, phys.Proton, e, fin, 3000, src).MeanPairs
		if a <= p {
			t.Errorf("at %v MeV alpha pairs %v <= proton %v", e, a, p)
		}
	}
}

func TestFinYieldStragglingWidensDistribution(t *testing.T) {
	fin := testFin()
	det := finYield(t, detConfig(), phys.Alpha, 1, fin, 3000, rng.New(17))
	fl := DefaultConfig()
	stoch := finYield(t, fl, phys.Alpha, 1, fin, 3000, rng.New(17))
	if stoch.StdPairs <= det.StdPairs {
		t.Errorf("straggling should widen the yield spread: %v <= %v",
			stoch.StdPairs, det.StdPairs)
	}
	// Means should agree within a few percent.
	if math.Abs(stoch.MeanPairs-det.MeanPairs)/det.MeanPairs > 0.1 {
		t.Errorf("straggling shifted the mean: %v vs %v", stoch.MeanPairs, det.MeanPairs)
	}
}

func TestBuildFinYieldLUT(t *testing.T) {
	src := rng.New(19)
	energies := []float64{0.5, 1, 2, 5, 10}
	tb, err := BuildFinYieldLUTCtx(context.Background(), detConfig(), phys.Alpha, energies, testFin(), 1000, src)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := tb.Domain()
	if lo != 0.5 || hi != 10 {
		t.Errorf("domain = [%v, %v]", lo, hi)
	}
	// Interpolated value between grid points is positive and between
	// neighbours.
	v := tb.Eval(3)
	if v <= tb.Eval(5) || v >= tb.Eval(2) {
		t.Errorf("LUT not decreasing through 3 MeV: %v", v)
	}
}

func TestBuildFinYieldLUTErrors(t *testing.T) {
	src := rng.New(23)
	if _, err := BuildFinYieldLUTCtx(context.Background(), detConfig(), phys.Alpha, []float64{1}, testFin(), 10, src); err == nil {
		t.Error("single energy accepted")
	}
	if _, err := BuildFinYieldLUTCtx(context.Background(), detConfig(), phys.Alpha, []float64{1, 2}, testFin(), 0, src); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := BuildFinYieldLUTCtx(context.Background(), detConfig(), phys.Alpha, []float64{-1, 2}, testFin(), 10, src); err == nil {
		t.Error("negative energy accepted")
	}
}

// TestFinYieldRejectsBadEnergy: FinYieldCtx, and every yield curve and
// table built on it, refuses an energy that is not positive and finite
// with an error naming it, before it traces a secant.
func TestFinYieldRejectsBadEnergy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(obs.NewRegistry())
	for _, en := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%g MeV: panic: %v", en, r)
				}
			}()
			ys, err := FinYieldCtx(context.Background(), cfg, phys.Alpha, en, testFin(), 100, rng.New(1))
			if err == nil {
				t.Errorf("%g MeV: accepted, got %+v", en, ys)
			} else if !strings.Contains(err.Error(), fmt.Sprintf("%g MeV", en)) {
				t.Errorf("%g MeV: error %q does not name the energy", en, err)
			}
		}()
	}
	if n := cfg.Metrics.RaysTraced.Value(); n != 0 {
		t.Errorf("refused energies traced %d rays", n)
	}
}

// finYield runs FinYieldCtx to completion.
func finYield(t *testing.T, cfg Config, sp phys.Species, energyMeV float64, fin geom.AABB, iters int, src *rng.Source) YieldStats {
	t.Helper()
	ys, err := FinYieldCtx(context.Background(), cfg, sp, energyMeV, fin, iters, src)
	if err != nil {
		t.Fatal(err)
	}
	return ys
}

// TestFinYieldCounts: TraceAppend counts nothing, so FinYieldCtx counts
// its own secants into the transport counters: each is one ray with one
// fin crossing, every secant that leaves pairs deposited one segment, and
// a cancelled build still adds the secants it ran.
func TestFinYieldCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = NewMetrics(obs.NewRegistry())
	const iters = 1000
	ys := finYield(t, cfg, phys.Alpha, 1, testFin(), iters, rng.New(5))
	m := cfg.Metrics
	if m.RaysTraced.Value() != iters || m.FinIntersections.Value() != iters {
		t.Errorf("counted %d rays, %d crossings; want %d of each", m.RaysTraced.Value(), m.FinIntersections.Value(), iters)
	}
	if got, want := m.SegmentsDeposited.Value(), int64(math.Round(ys.HitFrac*iters)); got < want || got > iters {
		t.Errorf("counted %d segments; want between the %d secants that left pairs and %d", got, want, iters)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FinYieldCtx(ctx, cfg, phys.Alpha, 1, testFin(), iters, rng.New(5)); err == nil {
		t.Fatal("cancelled yield build returned no error")
	}
	if m.RaysTraced.Value() != iters {
		t.Errorf("a build cancelled before its first secant counted %d rays", m.RaysTraced.Value()-iters)
	}
}
