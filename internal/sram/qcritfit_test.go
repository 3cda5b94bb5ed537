package sram

import (
	"context"
	"math"
	"sync"
	"testing"

	"finser/internal/rng"
)

// resetFits empties the process's model table, so every key starts cold.
func resetFits() {
	fits.mu.Lock()
	defer fits.mu.Unlock()
	fits.entries = nil
}

// forgetFit drops k from the process's model table.
func forgetFit(k fitKey) {
	fits.mu.Lock()
	defer fits.mu.Unlock()
	delete(fits.entries, k)
}

// setFit makes k's table entry solve to coefficients c on every fitted
// axis, outweighing any samples a characterization adds to it.
func setFit(k fitKey, c [numCoef]float64) {
	const w = 1e12
	var eqs [numFitAxes]normalEq
	for a := range eqs {
		eqs[a].n = 1 << 30
		for i := range c {
			eqs[a].xtx[i][i] = w
			eqs[a].xtq[i] = w * c[i]
		}
	}
	fits.mu.Lock()
	defer fits.mu.Unlock()
	if fits.entries == nil {
		fits.entries = make(map[fitKey]*fitEntry)
	}
	fits.entries[k] = &fitEntry{eqs: eqs}
}

// TestFitSolveRecoversLinearModel checks the least-squares solve on exact
// linear data, and that it refuses too few samples, a shift that never
// varies and NaN.
func TestFitSolveRecoversLinearModel(t *testing.T) {
	want := [numCoef]float64{2e-16, 1e-15, -3e-16, 5e-16, -8e-16, 2e-16, -1e-16}
	src := rng.New(3)
	shifts := func() VthShifts {
		var s VthShifts
		for r := range s {
			s[r] = 0.045 * src.Normal()
		}
		return s
	}
	var e normalEq
	for i := 0; i < minFitSamples; i++ {
		if _, ok := e.solve(); ok {
			t.Fatalf("solved with %d samples, want at least %d", e.n, minFitSamples)
		}
		x := regressors(shifts(), VthShifts{})
		e.add(x, predict(want, x))
	}
	got, ok := e.solve()
	if !ok {
		t.Fatal("no solution from exact linear data")
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*1e-15 {
			t.Errorf("coefficient %d: %v, want %v", i, got[i], want[i])
		}
	}

	var flat normalEq // PUL's shift never varies
	for i := 0; i < 2*minFitSamples; i++ {
		s := shifts()
		s[PUL] = 0
		flat.add(regressors(s, VthShifts{}), 1e-16)
	}
	if _, ok := flat.solve(); ok {
		t.Error("solved with a shift that never varies")
	}
	nan := e
	nan.xtx[3][3] = math.NaN()
	if _, ok := nan.solve(); ok {
		t.Error("solved NaN equations")
	}
}

// TestFitTableBoundAndEviction checks that the table holds at most
// maxFitKeys keys and evicts the least recently used one.
func TestFitTableBoundAndEviction(t *testing.T) {
	var tab fitTable
	key := func(i int) fitKey { return fitKey{tech: tech(), vdd: float64(i)} }
	var eqs [numFitAxes]normalEq
	eqs[0].n = 1
	for i := 0; i < maxFitKeys; i++ {
		tab.add(key(i), &eqs)
	}
	tab.get(key(0)) // key 1 is now the least recently used
	tab.add(key(0), &eqs)
	if n := tab.get(key(0))[0].n; n != 2 {
		t.Errorf("key 0 holds %d samples after two adds, want 2", n)
	}
	tab.add(key(maxFitKeys), &eqs)
	if len(tab.entries) != maxFitKeys {
		t.Errorf("%d keys, want the bound %d", len(tab.entries), maxFitKeys)
	}
	if _, ok := tab.entries[key(1)]; ok {
		t.Error("least recently used key 1 was not evicted")
	}
	for _, i := range []int{0, 2, maxFitKeys} {
		if _, ok := tab.entries[key(i)]; !ok {
			t.Errorf("key %d was evicted", i)
		}
	}
	if n := tab.get(key(1))[0].n; n != 0 {
		t.Errorf("evicted key holds %d samples", n)
	}
}

// TestCharacterizePoisonedModels fills the table with models whose
// guesses are useless or wrong and requires every critical charge to equal
// a cold run's to the bit: a guess chooses which probes are simulated,
// never a result.
func TestCharacterizePoisonedModels(t *testing.T) {
	cfg := CharConfig{Tech: isolatedTech(t), Vdd: 0.8, ProcessVariation: true, Samples: 24, Seed: 5, Workers: 2}
	k := fitKey{tech: cfg.Tech, vdd: cfg.Vdd}
	cold, _ := characterizeProbes(t, cfg)
	eqs := fits.get(k)
	fitted, ok := eqs[AxisI1].solve()
	if !ok {
		t.Fatal("the cold run left no model in the table")
	}
	scaled := func(s float64) (c [numCoef]float64) {
		for i := range c {
			c[i] = s * fitted[i]
		}
		return c
	}
	uniform := func(v float64) (c [numCoef]float64) {
		for i := range c {
			c[i] = v
		}
		return c
	}
	for _, p := range []struct {
		name string
		c    [numCoef]float64
	}{
		{"NaN", uniform(math.NaN())},
		{"+Inf", uniform(math.Inf(1))},
		{"-Inf", uniform(math.Inf(-1))},
		{"zero", uniform(0)},
		{"negative", scaled(-1)},
		{"x10", scaled(10)},
		{"x0.1", scaled(0.1)},
		{"x1.01", scaled(1.01)},
		{"x0.99", scaled(0.99)},
	} {
		setFit(k, p.c)
		got, _ := characterizeProbes(t, cfg)
		sameQcrits(t, p.name+" model", got, cold)
	}
}

// TestCharacterizeConcurrentOneKey runs characterizations at one key at
// once, on a cold and then a warm table, and requires each to equal its
// cold solo run to the bit. Under -race it checks the table's locking.
func TestCharacterizeConcurrentOneKey(t *testing.T) {
	cfg := CharConfig{Tech: isolatedTech(t), Vdd: 0.9, ProcessVariation: true, Samples: 12, Workers: 2}
	k := fitKey{tech: cfg.Tech, vdd: cfg.Vdd}
	seeds := []uint64{21, 22, 23, 24}
	want := make([]*Characterization, len(seeds))
	for i, s := range seeds {
		forgetFit(k)
		c := cfg
		c.Seed = s
		want[i], _ = characterizeProbes(t, c)
	}
	forgetFit(k)
	for round := 0; round < 2; round++ {
		got := make([]*Characterization, len(seeds))
		errs := make([]error, len(seeds))
		var wg sync.WaitGroup
		for i, s := range seeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := cfg
				c.Seed = s
				got[i], errs[i] = CharacterizeCtx(context.Background(), c)
			}()
		}
		wg.Wait()
		for i := range seeds {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameQcrits(t, "concurrent", got[i], want[i])
		}
	}
}
