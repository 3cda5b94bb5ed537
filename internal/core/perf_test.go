package core

import (
	"context"
	"testing"

	"finser/internal/finfet"
	"finser/internal/guard"
	"finser/internal/phys"
	"finser/internal/rng"
	"finser/internal/sram"
)

// TestPOFAtEnergyBitIdentical: the per-strike charge reduction iterates
// struck cells in sorted cell order, so two engines built from the same
// configuration and seeded identically must produce bit-identical POF
// estimates — not merely statistically equal ones. This is the regression
// test for the old per-strike map, whose randomized iteration order fed the
// float-order-sensitive combinePOFs reductions.
func TestPOFAtEnergyBitIdentical(t *testing.T) {
	ch, _, _ := fixtures(t)
	run := func() POFPoint {
		return mustPOF(t, newEngine(t), ch, phys.Alpha, 1, 20000, 42)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("POFAtEnergy not bit-identical across engines:\n%+v\n%+v", a, b)
	}
}

// TestStrikeZeroAlloc asserts the steady-state strike path allocates
// nothing, for both deposit modes and with the guard both off and in warn
// mode (warn is the serflow default, so a guard-only allocation would tax
// every production strike), on both of its paths: the full trace a
// sampled track keeps, and the bin kernel, whose tracks that cross no
// sensitive fin skip transport. The scratch buffers grow during warm-up;
// after that every strike must run entirely on reused memory.
func TestStrikeZeroAlloc(t *testing.T) {
	ch, _, _ := fixtures(t)
	for _, mode := range []struct {
		name     string
		deposits DepositMode
	}{
		{"transport", DepositTransport},
		{"lut", DepositLUT},
	} {
		for _, gm := range []struct {
			name  string
			guard *guard.Guard
		}{
			{"guard-off", nil},
			{"guard-warn", guard.New(guard.Warn, nil, nil)},
		} {
			t.Run(mode.name+"/"+gm.name, func(t *testing.T) {
				e, err := New(Config{
					Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
					Deposits: mode.deposits, Guard: gm.guard,
					LUTIters: 2000,
				})
				if err != nil {
					t.Fatal(err)
				}
				yieldTab, err := e.yieldTable(context.Background(), phys.Alpha)
				if err != nil {
					t.Fatal(err)
				}
				k, err := e.directKernel(context.Background(), phys.Alpha)
				if err != nil {
					t.Fatal(err)
				}
				src := rng.New(7)
				for _, path := range []struct {
					name   string
					strike func(scr *strikeScratch) error
				}{
					{"full-trace", func(scr *strikeScratch) error {
						_, err := e.strike(ch, src, phys.Alpha, 1, e.sampleRay(src, phys.Alpha), yieldTab, false, scr)
						return err
					}},
					{"bin-kernel", func(scr *strikeScratch) error {
						if _, err := k.charge(src, 1, scr); err != nil {
							return err
						}
						_, err := e.lookup(ch, scr)
						return err
					}},
				} {
					t.Run(path.name, func(t *testing.T) {
						scr := e.getScratch()
						defer e.putScratch(scr)
						for i := 0; i < 2000; i++ { // grow scratch to steady state
							if err := path.strike(scr); err != nil {
								t.Fatal(err)
							}
						}
						allocs := testing.AllocsPerRun(500, func() {
							if err := path.strike(scr); err != nil {
								t.Fatal(err)
							}
						})
						if allocs != 0 {
							t.Errorf("strike allocates %v objects/op in steady state, want 0", allocs)
						}
					})
				}
			})
		}
	}
}

// TestGridLUTPOFZeroAlloc pins the LUT evaluation path — the POFProvider
// the paper's array level runs against — at zero allocations.
func TestGridLUTPOFZeroAlloc(t *testing.T) {
	ch, _, _ := fixtures(t)
	g, err := sram.BuildGridLUT(ch, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	qs := [][sram.NumAxes]float64{
		{1e-16, 0, 0},
		{0, 2e-16, 1e-16},
		{1e-16, 2e-16, 3e-16},
	}
	allocs := testing.AllocsPerRun(500, func() {
		for _, q := range qs {
			_ = g.POF(q)
		}
	})
	if allocs != 0 {
		t.Errorf("GridLUT.POF allocates %v objects/op, want 0", allocs)
	}
}
