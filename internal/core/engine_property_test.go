package core

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"finser/internal/finfet"
	"finser/internal/neutron"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
)

// TestBroadPhaseComplete verifies that the cell-bounds culling never drops
// a fin the ray would actually hit: appendCandidateFins must return a
// superset of the brute-force hit set for random rays.
func TestBroadPhaseComplete(t *testing.T) {
	e := newEngine(t)
	src := rng.New(99)
	for trial := 0; trial < 5000; trial++ {
		ray := e.sampleRay(src, phys.Alpha)
		inCandidate := map[int]bool{}
		for _, fi := range appendCandidateFins(e, ray, nil) {
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
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rx := neutron.NewReactions()
	a1 := mustPOF(t, mk(1), ch, phys.Alpha, 1, 20000, 5)
	if a1.Tot <= 0 {
		t.Fatal("single-worker run returned zero POF")
	}
	n1 := mustNeutronPOF(t, mk(1), ch, rx, 14, 3000, 7)
	m1 := mustMBU(t, mk(1), ch, phys.Alpha, 1, 3000, 6, 9)
	for _, workers := range []int{1, 2, 4, 8} {
		e := mk(workers)
		if a := mustPOF(t, e, ch, phys.Alpha, 1, 20000, 5); a != a1 {
			t.Errorf("POF under %d workers = %+v, want %+v", workers, a, a1)
		}
		if n := mustNeutronPOF(t, e, ch, rx, 14, 3000, 7); n != n1 {
			t.Errorf("neutron POF under %d workers = %+v, want %+v", workers, n, n1)
		}
		if m := mustMBU(t, e, ch, phys.Alpha, 1, 3000, 6, 9); !reflect.DeepEqual(m, m1) {
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
			NeutronSubstrateDepthNm: depth,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rx := neutron.NewReactions()
	shallow := mustNeutronPOF(t, mk(1), ch, rx, 14, 30000, 7)
	deep := mustNeutronPOF(t, mk(3000), ch, rx, 14, 30000, 7)
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
	e := newEngine(t)
	slab, ok := e.slab, e.hasSlab
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

// TestGeometryExitMatchesFullTrace: the bin kernel's strikes are keyed per
// strike and draw nothing after their track, so a track that crosses no
// sensitive fin skips transport (chargeTrack's last). That must move no
// bit: for α and p at three energies, in every data pattern and both
// deposit modes, each keyed strike charges the same cells with the same
// charge bits through the kernel as through the full trace, and some
// strikes of each combination take the exit. Each strike also adds the
// same rays and fin intersections to the worker's tally both ways, so the
// transport counters' per-ray ratios keep their meaning. Both paths read the engine's
// per-fin targets, so those are checked against the pattern's stored bits
// first.
func TestGeometryExitMatchesFullTrace(t *testing.T) {
	ctx := context.Background()
	const strikes, seed = 1500, 7
	for _, pat := range []DataPattern{PatternZeros, PatternOnes, PatternCheckerboard} {
		for _, mode := range []DepositMode{DepositTransport, DepositLUT} {
			e, err := New(Config{
				Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
				Deposits: mode, Pattern: pat, LUTIters: 2000,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range e.arr.Fins() {
				axis, sensitive := sram.SensitiveAxisForRole(f.Role, pat.Bit(f.Row, f.Col))
				got := e.targets[i]
				if got.cell != e.arr.CellIndex(f.Row, f.Col) || got.sensitive != sensitive || (sensitive && got.axis != axis) {
					t.Fatalf("%v: fin %d (%+v) targets %+v, want cell %d, axis %v, sensitive %v",
						pat, i, f, got, e.arr.CellIndex(f.Row, f.Col), axis, sensitive)
				}
			}
			exit, full := newStrikeScratch(e.arr.NumCells()), newStrikeScratch(e.arr.NumCells())
			var src rng.Source
			for _, sp := range []phys.Species{phys.Alpha, phys.Proton} {
				k, err := e.directKernel(ctx, sp)
				if err != nil {
					t.Fatal(err)
				}
				yieldTab, err := e.yieldTable(ctx, sp)
				if err != nil {
					t.Fatal(err)
				}
				for _, energy := range []float64{0.3, 2, 20} {
					exits, charged := 0, 0
					for i := uint64(0); i < strikes; i++ {
						src.Reset(seed, i)
						if _, err := k.charge(&src, energy, exit); err != nil {
							t.Fatal(err)
						}
						src.Reset(seed, i)
						if err := e.chargeStrike(&src, sp, energy, e.sampleRay(&src, sp), yieldTab, false, full); err != nil {
							t.Fatal(err)
						}
						if exit.tally.rays != full.tally.rays || exit.tally.crossings != full.tally.crossings {
							t.Fatalf("%v %v %v @%g MeV strike %d: kernel has counted %d rays, %d fins; full trace %d, %d",
								pat, mode, sp, energy, i, exit.tally.rays, exit.tally.crossings, full.tally.rays, full.tally.crossings)
						}
						same := slices.Equal(exit.touched, full.touched)
						for _, ci := range full.touched {
							for a := range full.cellQ[ci] {
								same = same && math.Float64bits(exit.cellQ[ci][a]) == math.Float64bits(full.cellQ[ci][a])
							}
						}
						if !same {
							t.Fatalf("%v %v %v @%g MeV strike %d: kernel charges cells %v, full trace %v",
								pat, mode, sp, energy, i, exit.touched, full.touched)
						}
						if len(full.deps) > 0 && len(exit.deps) == 0 {
							exits++
						}
						if len(full.touched) > 0 {
							charged++
						}
					}
					if exits == 0 || charged == 0 {
						t.Errorf("%v %v %v @%g MeV: %d exits and %d charged strikes of %d; the test compares nothing",
							pat, mode, sp, energy, exits, charged, strikes)
					}
				}
			}
		}
	}
}

// TestEngineStrikeNoDepositsOutsideArray: rays sampled on the top face with
// downward directions can exit the sides; deposits must still never appear
// for fins the ray cannot geometrically reach.
func TestStrikeChargeSanity(t *testing.T) {
	ch, _, _ := fixtures(t)
	e := newEngine(t)
	src := rng.New(123)
	scr := e.getScratch()
	defer e.putScratch(scr)
	for i := 0; i < 2000; i++ {
		o, err := e.strike(ch, src, phys.Alpha, 1, e.sampleRay(src, phys.Alpha), nil, false, scr)
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
	e := newEngine(t)
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
	base := newEngine(t)
	tech2 := finfet.Default14nmSOI()
	tech2.FinsPD = 2
	tech2.FinsPG = 2
	e2, err := New(Config{
		Tech: tech2, Rows: 9, Cols: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(e2.boxes) != 2*len(base.boxes)-9*9*2*1 { // 10 fins vs 6 per cell
		// 6 roles: PD×2 + PG×2 + PU×1 ×2 sides = 10 fins/cell vs 6.
		t.Logf("fin counts: base %d, multi %d", len(base.boxes), len(e2.boxes))
	}
	pBase := mustPOF(t, base, ch, phys.Alpha, 1, 30000, 3)
	pMulti := mustPOF(t, e2, ch, phys.Alpha, 1, 30000, 3)
	if pMulti.HitFrac <= pBase.HitFrac {
		t.Errorf("multi-fin hit fraction %v not above base %v", pMulti.HitFrac, pBase.HitFrac)
	}
	if pMulti.Tot <= 0 {
		t.Fatal("multi-fin POF zero")
	}
}
