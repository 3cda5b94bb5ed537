package sram

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"finser/internal/circuit"
	"finser/internal/deck"
	"finser/internal/faultinject"
	"finser/internal/finfet"
	"finser/internal/obs"
)

// fullWindowFlips simulates a strike over the whole window, with no
// settled exit: the reference the settled exit must agree with.
func (c *Cell) fullWindowFlips(charges [NumAxes]float64, shape PulseShape) (bool, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	for a := AxisI1; a < NumAxes; a++ {
		c.strikes[a].w = buildPulse(shape, charges[a], tau)
	}
	defer func() {
		for a := AxisI1; a < NumAxes; a++ {
			c.strikes[a].w = nil
		}
	}()
	res, err := c.runArmed(nil)
	return res.Flipped, err
}

// bisectScale is a plain log-bisection to log resolution res: the smallest
// s in [lo, hi] at which flips(s) holds, +Inf when hi does not flip, and lo
// when lo already does. At res 0.01 it makes CriticalCharge's probes.
func bisectScale(lo, hi, res float64, flips func(s float64) (bool, error)) (float64, error) {
	f, err := flips(hi)
	if err != nil || !f {
		return math.Inf(1), err
	}
	if f, err = flips(lo); err != nil || f {
		return lo, err
	}
	for math.Log(hi/lo) > res {
		mid := math.Sqrt(lo * hi)
		if f, err = flips(mid); err != nil {
			return 0, err
		}
		if f {
			hi = mid
		} else {
			lo = mid
		}
	}
	return math.Sqrt(lo * hi), nil
}

func scaled(dir [NumAxes]float64, s float64) [NumAxes]float64 {
	for a := range dir {
		dir[a] *= s
	}
	return dir
}

// isolatedTech is the default card renamed for the test: the cells are the
// same, but the card is a model-table key no other test characterizes at.
func isolatedTech(t *testing.T) finfet.Technology {
	tc := tech()
	tc.Name = t.Name()
	return tc
}

// characterizeProbes characterizes cfg and returns the result with its
// simulated probes per critical charge.
func characterizeProbes(t *testing.T, cfg CharConfig) (*Characterization, float64) {
	t.Helper()
	cfg.Metrics = obs.NewRegistry()
	m := NewMetrics(cfg.Metrics) // the characterization's counters, by name
	ch, err := CharacterizeCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch, float64(m.BisectionSteps.Value()) / float64(3*m.VariationSamples.Value())
}

// sameQcrits fails the test unless two characterizations hold the same
// critical charges to the bit.
func sameQcrits(t *testing.T, what string, got, want *Characterization) {
	t.Helper()
	for a := range want.Axis {
		for i, q := range want.Axis[a] {
			if g := got.Axis[a][i]; math.Float64bits(g) != math.Float64bits(q) {
				t.Errorf("%s: sample %d axis %v: Qcrit %v, want %v", what, i, Axis(a), g, q)
			}
		}
	}
}

// TestCharacterizeMatchesFullWindowBisection pins the characterization to
// the bit. Settled exits, I3 inherited from I1 and bisections guided by
// sample 0 or by the linear model all leave every critical charge equal to
// a plain log-bisection over full-window transients, and I3 bisected
// directly equals I1. Each case characterizes twice: on a cold table,
// where sample 0 guides the first batch and refits the later ones, and
// after a warm-up characterization at the same key with another seed,
// where the model guesses every sample, sample 0 included, and probes the
// ends of the bisection's final interval.
func TestCharacterizeMatchesFullWindowBisection(t *testing.T) {
	for _, vdd := range []float64{0.7, 0.9, 1.1} {
		for _, seed := range []uint64{7, 2024} {
			t.Run(fmt.Sprintf("vdd=%v/seed=%d", vdd, seed), func(t *testing.T) {
				t.Parallel()
				cfg := CharConfig{Tech: isolatedTech(t), Vdd: vdd, ProcessVariation: true, Samples: 40, Seed: seed, Workers: 1}.withDefaults()
				cold, coldProbes := characterizeProbes(t, cfg)
				warmUp := cfg
				warmUp.Seed = seed + 1
				characterizeProbes(t, warmUp)
				warm, warmProbes := characterizeProbes(t, cfg)
				if warmProbes > 1.6 || warmProbes >= coldProbes {
					t.Errorf("%.2f simulated probes per Qcrit warm, %.2f cold: the model did not guess", warmProbes, coldProbes)
				}
				sameQcrits(t, "warm table", warm, cold)
				for i := 0; i < cfg.Samples; i++ {
					cell := mustCell(t, vdd, cold.Shifts[i])
					for a := AxisI1; a < NumAxes; a++ {
						want, err := bisectScale(chargeLo, chargeHi, 0.01, func(q float64) (bool, error) {
							return cell.fullWindowFlips(chargeOn(a, q), cfg.Shape)
						})
						if err != nil {
							t.Fatal(err)
						}
						if got := cold.Axis[a][i]; math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("sample %d axis %v: Qcrit %v, full-window bisection %v", i, a, got, want)
						}
					}
				}
			})
		}
	}
}

// fromZero simulates a strike as SimulateStrike does, with the same
// settled exit, but from t = 0 instead of from the cell's saved state.
func (c *Cell) fromZero(charges [NumAxes]float64, shape PulseShape) (StrikeResult, error) {
	tau := c.Tech.TransitTime(c.Vdd)
	for a := AxisI1; a < NumAxes; a++ {
		c.strikes[a].w = buildPulse(shape, charges[a], tau)
	}
	defer func() {
		for a := AxisI1; a < NumAxes; a++ {
			c.strikes[a].w = nil
		}
	}()
	var settled func(float64, circuit.Solution) bool
	if c.mirror != nil && shape != ShapeDoubleExp {
		settled = c.settled
	}
	return c.runArmed(settled)
}

// sameBits reports whether two strike results are equal to the bit.
func sameBits(a, b StrikeResult) bool {
	return a.Flipped == b.Flipped && math.Float64bits(a.QFinal) == math.Float64bits(b.QFinal) &&
		math.Float64bits(a.QBFinal) == math.Float64bits(b.QBFinal)
}

// strikeBoth simulates a strike from the cell's saved state and from
// t = 0, fails the test unless the two results are equal to the bit, and
// returns the first.
func strikeBoth(t *testing.T, c *Cell, q [NumAxes]float64, shape PulseShape) (StrikeResult, error) {
	t.Helper()
	got, err := c.SimulateStrike(q, shape)
	if err != nil {
		return got, err
	}
	want, err := c.fromZero(q, shape)
	if err != nil {
		return got, err
	}
	if !sameBits(got, want) {
		t.Errorf("shape %d charges %v: from the saved state %+v, from t = 0 %+v", shape, q, got, want)
	}
	return got, nil
}

// pulsedBLBDeck is the canonical deck with BLB driven by a PULSE that
// dips to half of Vdd and recovers before strikeStart, while the word
// line keeps the cell isolated: a cell whose own sources have corners in
// the pre-strike prefix.
func pulsedBLBDeck(vdd float64) *deck.Deck {
	d := deck.SixTCellDeck(tech(), vdd)
	for i, card := range d.Cards {
		if card.Name == "VBLB" {
			d.Cards[i].Pulse = &deck.Pulse{V1: vdd, V2: vdd / 2, Delay: 0.1e-12, Rise: 0.1e-12, Fall: 0.1e-12, Width: 0.3e-12}
		}
	}
	return d
}

// TestSettledExitMatchesFullWindow checks the settled exit where it is
// hardest: strikes within ±1% of the flip threshold, down to a millionth of
// it, where the cell lingers at the metastable saddle before it resolves.
// The outcome must equal the full window's in hold and read mode, for
// rectangular and triangular pulses, on single- and multi-axis strikes.
// Every strike also runs from t = 0 with the same settled exit, and its
// final storage-node voltages must equal, to the bit, those of the strike
// started from the cell's saved state at strikeStart. Cells built from a
// deck have no mirrored state and run the full window; one of them has
// source corners before strikeStart.
func TestSettledExitMatchesFullWindow(t *testing.T) {
	dirs := [][NumAxes]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 0}, {0.5, 1, 0.5}}
	offsets := []float64{-1e-2, -3e-3, -1e-3, -1e-4, -1e-6, 1e-6, 1e-4, 1e-3, 3e-3, 1e-2}
	type row struct {
		name   string
		mirror bool // the cell must have a mirrored state
		build  func() (*Cell, error)
	}
	var rows []row
	for _, cc := range []struct {
		vdd    float64
		shifts VthShifts
	}{
		{0.7, VthShifts{}},
		{1.1, VthShifts{PDL: 0.06, PUR: -0.04, PGL: 0.03, PDR: -0.02}},
	} {
		for _, mode := range []CellMode{HoldMode, ReadMode} {
			rows = append(rows, row{fmt.Sprintf("vdd=%v/%v", cc.vdd, mode), true, func() (*Cell, error) {
				return NewCellMode(tech(), cc.vdd, cc.shifts, mode)
			}})
		}
	}
	rows = append(rows,
		row{"deck", false, func() (*Cell, error) { return NewCellFromDeck(deck.SixTCellDeck(tech(), 0.8), tech(), 0.8) }},
		row{"deck-pulsed-blb", false, func() (*Cell, error) { return NewCellFromDeck(pulsedBLBDeck(0.8), tech(), 0.8) }},
	)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			cell, err := r.build()
			if err != nil {
				t.Fatal(err)
			}
			if r.mirror && cell.mirror == nil {
				t.Fatal("cell has no mirrored state, so nothing exits early")
			}
			for _, shape := range []PulseShape{ShapeRect, ShapeTriangle} {
				for _, dir := range dirs {
					thr, err := bisectScale(1e-18, 5e-14, 1e-9, func(s float64) (bool, error) {
						r, err := strikeBoth(t, cell, scaled(dir, s), shape)
						return r.Flipped, err
					})
					if err != nil {
						t.Fatal(err)
					}
					for _, off := range offsets {
						q := scaled(dir, thr*(1+off))
						settled, err := strikeBoth(t, cell, q, shape)
						if err != nil {
							t.Fatal(err)
						}
						full, err := cell.fullWindowFlips(q, shape)
						if err != nil {
							t.Fatal(err)
						}
						if settled.Flipped != full {
							t.Errorf("shape %d dir %v at threshold×(1%+g): settled exit says flipped=%v, full window %v",
								shape, dir, off, settled.Flipped, full)
						}
						// Closer in, the outcome is not monotone in charge:
						// Newton's tolerance decides it at the saddle.
						if want := off > 0; math.Abs(off) == 1e-2 && full != want {
							t.Errorf("shape %d dir %v at threshold×(1%+g): flipped=%v, want %v",
								shape, dir, off, full, want)
						}
					}
				}
			}
		})
	}
	// The 8T read-port strike starts from the same saved state.
	t.Run("8t-read-port", func(t *testing.T) {
		t.Parallel()
		for _, mode := range []CellMode{HoldMode, ReadMode} {
			c8, err := NewCell8T(tech(), 0.8, VthShifts{}, mode)
			if err != nil {
				t.Fatal(err)
			}
			tau := c8.Tech.TransitTime(c8.Vdd)
			for _, q := range []float64{1e-17, 1e-16, 1e-15, 1e-14, 5e-14} {
				got, err := c8.SimulateReadPortStrike(q)
				if err != nil {
					t.Fatal(err)
				}
				c8.readStrike.w = circuit.RectPulse{T0: strikeStart, Width: tau, Amp: q / tau}
				want, err := c8.runArmed(nil)
				c8.readStrike.w = nil
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(got, want) {
					t.Errorf("%v mode, %v C: from the saved state %+v, from t = 0 %+v", mode, q, got, want)
				}
			}
		}
	})
}

// TestCriticalChargePlainProbes checks that a standalone CriticalCharge,
// which has no guess, simulates exactly the plain bisection's 13 probes
// over [1e-18, 5e-14] on every axis, I3 included, and that I3 bisected
// directly equals I1.
func TestCriticalChargePlainProbes(t *testing.T) {
	cell := mustCell(t, 0.8, VthShifts{})
	m := NewMetrics(obs.NewRegistry())
	cell.SetMetrics(m)
	var qc [NumAxes]float64
	for a := AxisI1; a < NumAxes; a++ {
		before := m.BisectionSteps.Value()
		q, err := cell.CriticalCharge(a, 1e-18, 5e-14, ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		if n := m.BisectionSteps.Value() - before; n != 13 {
			t.Errorf("axis %v: %d simulated probes, want 13", a, n)
		}
		qc[a] = q
	}
	if qc[AxisI3] != qc[AxisI1] {
		t.Errorf("I3 Qcrit %v != I1 Qcrit %v", qc[AxisI3], qc[AxisI1])
	}
}

// TestGridGuessProbes checks a model guess's probes on the nominal cell:
// a guess inside the true final interval simulates its two ends and
// nothing else, one an interval low or high simulates 2 or 3 charges, and
// guesses further off fall back to outward probes. Every result equals
// the plain bisection's to the bit.
func TestGridGuessProbes(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	for _, a := range []Axis{AxisI1, AxisI2} {
		plain, err := mustCell(t, 0.8, VthShifts{}).CriticalCharge(a, chargeLo, chargeHi, ShapeRect)
		if err != nil {
			t.Fatal(err)
		}
		// The plain bisection returns its final interval's geometric
		// centre, and the interval is 0.53% wide in log charge.
		for _, c := range []struct {
			scale float64
			sims  int64 // 0: more than 3
		}{{1, 2}, {1.001, 2}, {0.999, 2}, {1.004, 3}, {0.996, 2}, {1.05, 0}, {0.95, 0}, {10, 0}, {0.1, 0}} {
			cell := mustCell(t, 0.8, VthShifts{})
			cell.SetMetrics(m)
			before := m.BisectionSteps.Value()
			got, err := cell.criticalCharge(a, chargeLo, chargeHi, ShapeRect, guess{q: plain * c.scale, onGrid: true})
			if err != nil {
				t.Fatal(err)
			}
			n := m.BisectionSteps.Value() - before
			if math.Float64bits(got) != math.Float64bits(plain) {
				t.Errorf("axis %v, guess ×%v: Qcrit %v, plain bisection %v", a, c.scale, got, plain)
			}
			if (c.sims != 0 && n != c.sims) || (c.sims == 0 && n <= 3) {
				t.Errorf("axis %v, guess ×%v: %d simulated probes, want %d (0: more than 3)", a, c.scale, n, c.sims)
			}
		}
	}
}

// TestCharacterizeWorkBudget bounds the circuit work behind a
// characterization. The counts repeat exactly for a given table, so the
// budget is as deterministic as an allocation count. On a cold table: at
// most 2.4 simulated probes per critical charge, and per strike transient
// at most 40 accepted steps and 130 Newton iterations; each cell's
// pre-strike prefix counts once. After a warm-up characterization at the
// same key: at most 1.5 probes per critical charge.
func TestCharacterizeWorkBudget(t *testing.T) {
	resetFits()
	cfg := CharConfig{Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 40, Seed: 11}
	cfg.Metrics = obs.NewRegistry()
	m := NewMetrics(cfg.Metrics) // the characterization's counters, by name
	if _, err := CharacterizeCtx(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	probes := float64(m.BisectionSteps.Value()) / float64(3*m.VariationSamples.Value())
	sims := float64(m.FlipSims.Value())
	steps := float64(m.Solver.TransientSteps.Value()) / sims
	iters := float64(m.Solver.NewtonIters.Value()) / sims
	t.Logf("cold: %.2f simulated probes per Qcrit, %.1f accepted steps and %.1f Newton iterations per flip sim", probes, steps, iters)
	if probes > 2.4 {
		t.Errorf("cold: %.2f simulated probes per Qcrit, budget 2.4", probes)
	}
	if steps > 40 {
		t.Errorf("cold: %.1f accepted steps per flip sim, budget 40", steps)
	}
	if iters > 130 {
		t.Errorf("cold: %.1f Newton iterations per flip sim, budget 130", iters)
	}

	warmUp := cfg
	warmUp.Seed, warmUp.Metrics = 12, nil
	if _, err := CharacterizeCtx(context.Background(), warmUp); err != nil {
		t.Fatal(err)
	}
	_, warm := characterizeProbes(t, cfg)
	t.Logf("warm: %.2f simulated probes per Qcrit", warm)
	if warm > 1.5 {
		t.Errorf("warm: %.2f simulated probes per Qcrit, budget 1.5", warm)
	}
}

// TestCharacterizeFailureIndependentOfWorkers checks that a failing
// characterization reports the lowest-indexed failing sample whatever the
// worker count. With σVth = 0.25 V, seed 3 first draws a cell whose hold
// state is not bistable at sample 10.
func TestCharacterizeFailureIndependentOfWorkers(t *testing.T) {
	tc := tech()
	tc.SigmaVth = 0.25
	for _, workers := range []int{1, 2, 8} {
		_, err := CharacterizeCtx(context.Background(), CharConfig{
			Tech: tc, Vdd: 0.8, ProcessVariation: true, Samples: 40, Seed: 3, Workers: workers,
		})
		if err == nil || !strings.HasPrefix(err.Error(), "sram: sample 10: ") {
			t.Errorf("workers=%d: error %v, want sample 10's", workers, err)
		}
	}
}

// TestCharacterizeStopsWhenSampleZeroFails checks that a sample 0 failing
// on its own ends the characterization at once: no other sample reaches
// the per-sample site, and the error names sample 0.
func TestCharacterizeStopsWhenSampleZeroFails(t *testing.T) {
	errBoom := errors.New("synthetic solver failure")
	hooks := faultinject.New()
	hooks.ErrorAt(FaultSiteSample, 1, errBoom)
	_, err := CharacterizeCtx(context.Background(), CharConfig{
		Tech: tech(), Vdd: 0.8, ProcessVariation: true, Samples: 40, Seed: 1, Workers: 2, Faults: hooks,
	})
	if err == nil || !strings.HasPrefix(err.Error(), "sram: sample 0: ") || !errors.Is(err, errBoom) {
		t.Errorf("error %v, want sample 0's injected failure", err)
	}
	if n := hooks.Hits(FaultSiteSample); n != 1 {
		t.Errorf("%d samples reached the per-sample site, want 1", n)
	}
}

func TestValidateFlipSurfaceNeedsShifts(t *testing.T) {
	ch, err := ReadCharacterization(strings.NewReader(
		`{"vdd":0.8,"samples":2,"axis_qcrit":[[1e-16,2e-16],[1e-16,2e-16],[1e-16,2e-16]]}`))
	if err != nil {
		t.Fatal(err)
	}
	_, err = ch.ValidateFlipSurface(CharConfig{Tech: tech(), Vdd: 0.8}, 5, 1)
	if err == nil || !strings.Contains(err.Error(), "shift") {
		t.Errorf("validation without Vth shifts: error %v, want one naming the missing shifts", err)
	}
}

func TestValidateFlipSurfaceSkippedTrials(t *testing.T) {
	cfg := CharConfig{Tech: tech(), Vdd: 0.8}
	inf := math.Inf(1)
	never := &Characterization{Vdd: 0.8, Samples: 1, Shifts: make([]VthShifts, 1),
		Axis: [NumAxes][]float64{{inf}, {inf}, {inf}}}
	if err := never.finish(); err != nil {
		t.Fatal(err)
	}
	if got, err := never.ValidateFlipSurface(cfg, 10, 1); err == nil {
		t.Errorf("every trial skipped: agreement %v with no error", got)
	}

	// Beside the nominal cell, a sample no charge flips draws about half
	// the trials. Skipped, they must not count as disagreements, so the
	// agreement stays at the bar TestValidateFlipSurface sets.
	nom, err := CharacterizeCtx(context.Background(), CharConfig{Tech: tech(), Vdd: 0.8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mixed := &Characterization{Vdd: 0.8, Samples: 2, Shifts: make([]VthShifts, 2)}
	for a := range mixed.Axis {
		mixed.Axis[a] = []float64{nom.Axis[a][0], inf}
	}
	if err := mixed.finish(); err != nil {
		t.Fatal(err)
	}
	agreement, err := mixed.ValidateFlipSurface(cfg, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if agreement < 0.8 {
		t.Errorf("flip-surface agreement = %v with skipped trials, want ≥ 0.8", agreement)
	}
}
