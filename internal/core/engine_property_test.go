package core

import (
	"reflect"
	"testing"

	"finser/internal/finfet"
	"finser/internal/neutron"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
	"finser/internal/transport"
)

// TestBroadPhaseComplete verifies that the cell-bounds culling never drops
// a fin the ray would actually hit: candidateFins must be a superset of the
// brute-force hit set for random rays.
func TestBroadPhaseComplete(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	src := rng.New(99)
	for trial := 0; trial < 5000; trial++ {
		ray := e.sampleRay(src, phys.Alpha)
		inCandidate := map[int]bool{}
		for _, fi := range candidateFins(e, ray) {
			inCandidate[fi] = true
		}
		for fi, box := range e.boxes {
			if _, _, ok := box.Intersect(ray); ok && !inCandidate[fi] {
				t.Fatalf("broad phase dropped hit fin %d for ray %+v", fi, ray)
			}
		}
	}
}

// TestWorkerCountInvariance: every estimate must be identical regardless
// of how many workers execute it (strike i draws from the stream keyed by
// (seed, i), and chunks merge in chunk order).
func TestWorkerCountInvariance(t *testing.T) {
	ch, _, _ := fixtures(t)
	mk := func(workers int) *Engine {
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Char: ch, Transport: transport.DefaultConfig(), Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rx := neutron.NewReactions()
	a1 := mustPOF(t, mk(1), phys.Alpha, 1, 20000, 5)
	if a1.Tot <= 0 {
		t.Fatal("single-worker run returned zero POF")
	}
	n1 := mustNeutronPOF(t, mk(1), rx, 14, 3000, 7)
	m1 := mustMBU(t, mk(1), phys.Alpha, 1, 3000, 6, 9)
	for _, workers := range []int{1, 2, 4, 8} {
		e := mk(workers)
		if a := mustPOF(t, e, phys.Alpha, 1, 20000, 5); a != a1 {
			t.Errorf("POF under %d workers = %+v, want %+v", workers, a, a1)
		}
		if n := mustNeutronPOF(t, e, rx, 14, 3000, 7); n != n1 {
			t.Errorf("neutron POF under %d workers = %+v, want %+v", workers, n, n1)
		}
		if m := mustMBU(t, e, phys.Alpha, 1, 3000, 6, 9); !reflect.DeepEqual(m, m1) {
			t.Errorf("MBU report under %d workers differs from 1 worker: mean flips %v, want %v", workers, m.MeanFlips, m1.MeanFlips)
		}
	}
}

// TestSubstrateDepthAblation: deepening the neutron substrate volume must
// not decrease the interaction weight, and a negligible substrate must
// reduce the neutron response to the fin-only level.
func TestSubstrateDepthAblation(t *testing.T) {
	ch, _, _ := fixtures(t)
	mk := func(depth float64) *Engine {
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Char: ch, Transport: transport.DefaultConfig(),
			NeutronSubstrateDepthNm: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rx := neutron.NewReactions()
	shallow := mustNeutronPOF(t, mk(1), rx, 14, 30000, 7)
	deep := mustNeutronPOF(t, mk(3000), rx, 14, 30000, 7)
	if deep.InteractionWeight <= shallow.InteractionWeight {
		t.Errorf("deep substrate weight %v not above shallow %v",
			deep.InteractionWeight, shallow.InteractionWeight)
	}
	if deep.Tot <= shallow.Tot {
		t.Errorf("deep substrate POF %v not above shallow %v", deep.Tot, shallow.Tot)
	}
}

// TestSubstrateSlabGeometry checks the slab sits strictly below the BOX.
func TestSubstrateSlabGeometry(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	slab, ok := e.substrateSlab()
	if !ok {
		t.Fatal("no substrate slab with default config")
	}
	tech := finfet.Default14nmSOI()
	if slab.Max.Z != -tech.BoxDepthNm {
		t.Errorf("slab top = %v, want %v", slab.Max.Z, -tech.BoxDepthNm)
	}
	if slab.Min.Z != -tech.BoxDepthNm-3000 {
		t.Errorf("slab bottom = %v", slab.Min.Z)
	}
	b := e.arr.Bounds()
	if slab.Min.X != b.Min.X || slab.Max.X != b.Max.X {
		t.Error("slab footprint does not match array")
	}
	// No fin box may intrude into the slab.
	for _, fin := range e.boxes {
		if fin.Min.Z < slab.Max.Z {
			t.Fatalf("fin %+v dips below the BOX", fin)
		}
	}
}

// TestEngineStrikeNoDepositsOutsideArray: rays sampled on the top face with
// downward directions can exit the sides; deposits must still never appear
// for fins the ray cannot geometrically reach.
func TestStrikeChargeSanity(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	src := rng.New(123)
	scr := e.getScratch()
	defer e.putScratch(scr)
	for i := 0; i < 2000; i++ {
		o, err := e.strike(src, phys.Alpha, 1, nil, scr)
		if err != nil {
			t.Fatalf("strike: %v", err)
		}
		if o.pofTot < 0 || o.pofTot > 1 || o.pofSEU < 0 || o.pofMBU < 0 {
			t.Fatalf("POF out of range: %+v", o)
		}
		if o.pofTot == 0 && o.pofMBU != 0 {
			t.Fatalf("MBU without total POF: %+v", o)
		}
	}
}

// TestGeomRayEntersFromTop: sampled rays originate on the top face and
// point downward.
func TestSampleRayGeometry(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := engineWith(t, ch)
	src := rng.New(7)
	top := e.arr.Bounds().Max.Z
	for i := 0; i < 5000; i++ {
		for _, sp := range []phys.Species{phys.Alpha, phys.Proton} {
			r := e.sampleRay(src, sp)
			if r.Origin.Z != top {
				t.Fatalf("ray origin z = %v, want top %v", r.Origin.Z, top)
			}
			if r.Dir.Z > 0 {
				t.Fatalf("upward ray sampled: %+v", r)
			}
			if d := r.Dir.Norm(); d < 1-1e-9 || d > 1+1e-9 {
				t.Fatalf("ray direction not unit: %v", d)
			}
		}
	}
}

func TestMultiFinArrayStrikes(t *testing.T) {
	// Upsized pull-downs double the PD target area: the per-particle hit
	// fraction must rise relative to the single-fin cell, while the flip
	// behaviour stays consistent (PD fins are not sensitive for the bit
	// they hold low, so POF moves far less than the target area).
	ch, _, _ := fixtures(t)
	base := engineWith(t, ch)
	tech2 := finfet.Default14nmSOI()
	tech2.FinsPD = 2
	tech2.FinsPG = 2
	e2, err := New(Config{
		Tech: tech2, Rows: 9, Cols: 9, Char: ch,
		Transport: transport.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.boxes) != 2*len(base.boxes)-9*9*2*1 { // 10 fins vs 6 per cell
		// 6 roles: PD×2 + PG×2 + PU×1 ×2 sides = 10 fins/cell vs 6.
		t.Logf("fin counts: base %d, multi %d", len(base.boxes), len(e2.boxes))
	}
	pBase := mustPOF(t, base, phys.Alpha, 1, 30000, 3)
	pMulti := mustPOF(t, e2, phys.Alpha, 1, 30000, 3)
	if pMulti.HitFrac <= pBase.HitFrac {
		t.Errorf("multi-fin hit fraction %v not above base %v", pMulti.HitFrac, pBase.HitFrac)
	}
	if pMulti.Tot <= 0 {
		t.Fatal("multi-fin POF zero")
	}
}

func TestAsymmetricProvidersPerState(t *testing.T) {
	// With distinct POF models per stored state, a checkerboard pattern
	// must blend them: a "never flips" model on the 1-cells halves the POF
	// relative to using the live model everywhere.
	ch, _, _ := fixtures(t)
	mk := func(one sram.POFProvider) *Engine {
		e, err := New(Config{
			Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
			Char: ch, CharOne: one,
			Transport: transport.DefaultConfig(),
			Pattern:   PatternCheckerboard,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	both := mustPOF(t, mk(nil), phys.Alpha, 1, 40000, 3)
	half := mustPOF(t, mk(deadProvider{vdd: ch.Vdd}), phys.Alpha, 1, 40000, 3)
	if half.Tot <= 0 {
		t.Fatal("zero POF with dead provider on half the cells")
	}
	r := half.Tot / both.Tot
	if r < 0.3 || r > 0.7 {
		t.Errorf("dead-provider-on-ones POF ratio = %v, want ≈ 0.5", r)
	}
}

// deadProvider never flips — a stand-in for a maximally hardened state.
type deadProvider struct{ vdd float64 }

func (d deadProvider) POF([sram.NumAxes]float64) float64 { return 0 }
func (d deadProvider) SupplyVoltage() float64            { return d.vdd }
