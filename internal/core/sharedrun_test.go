package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"finser/internal/finfet"
	"finser/internal/neutron"
	"finser/internal/obs"
	"finser/internal/spectra"
	"finser/internal/sram"
)

var (
	fix09Once sync.Once
	char09    *sram.Characterization
	fix09Err  error
)

// sweepFixtures returns the 0.7, 0.9 and 1.1 V characterizations: the
// shared fixtures' two voltages and a 0.9 V one built the same way.
func sweepFixtures(t *testing.T) []*sram.Characterization {
	t.Helper()
	ch07, ch11, _ := fixtures(t)
	fix09Once.Do(func() {
		char09, fix09Err = sram.CharacterizeCtx(context.Background(), sram.CharConfig{
			Tech: finfet.Default14nmSOI(), Vdd: 0.9, ProcessVariation: true, Samples: 50, Seed: 1,
		})
	})
	if fix09Err != nil {
		t.Fatal(fix09Err)
	}
	return []*sram.Characterization{ch07, char09, ch11}
}

// sweepEngine is an engine with the given worker count and an optional
// metrics registry.
func sweepEngine(t *testing.T, workers int, reg *obs.Registry) *Engine {
	t.Helper()
	e, err := New(Config{
		Tech: finfet.Default14nmSOI(), Rows: 9, Cols: 9,
		Workers: workers, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// sweepPlan is one voltage's plan of a shared run of the named stage
// (alpha, proton or neutron): its spectrum's bins, one seed schedule for
// every voltage, and a per-voltage checkpoint prefix.
func sweepPlan(t *testing.T, name string, vdd, relErr float64) BinPlan {
	t.Helper()
	var spec spectra.Spectrum
	var err error
	var lo, hi float64
	switch name {
	case "alpha":
		spec, err = spectra.NewAlphaEmission(spectra.DefaultAlphaRate)
		lo, hi = 0.5, 10
	case "proton":
		spec, err = spectra.NewProtonSeaLevel(1)
		lo, hi = 0.1, 100
	default:
		spec, err = neutron.NewSeaLevel(1)
		lo, hi = 2, 1000
	}
	if err != nil {
		t.Fatal(err)
	}
	bins, err := spectra.Bins(spec, lo, hi, 4)
	if err != nil {
		t.Fatal(err)
	}
	area, err := ArrayAreaCm2(finfet.Default14nmSOI(), 9, 9)
	if err != nil {
		t.Fatal(err)
	}
	return BinPlan{Name: name, Species: spec.Species(), Vdd: vdd, Bins: bins, Seeds: FITSeedSchedule(11, len(bins)),
		ItersPerBin: 2000, RelErr: relErr, AreaCm2: area, CheckpointPrefix: fmt.Sprintf("vdd%g/", vdd)}
}

// recordingLedger is a ledger on store whose BinDone events land in events.
func recordingLedger(t *testing.T, plan BinPlan, store CheckpointStore, events *[]BinEvent) *Ledger {
	t.Helper()
	l, err := NewLedger(plan, store, func(ev BinEvent) { *events = append(*events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// soloRun runs l alone in cell model m.
func soloRun(ctx context.Context, e *Engine, m sram.POFProvider, l *Ledger, rx *neutron.Reactions) (FITResult, error) {
	res, err := e.RunLedgersCtx(ctx, []LedgerRun{{Ledger: l, Char: m}}, rx)
	if err != nil {
		return FITResult{}, err
	}
	return res[0], nil
}

// TestRunLedgersMatchesSoloRuns is the shared runner's contract: one
// RunLedgersCtx over the 0.7, 0.9 and 1.1 V models gives every model the
// FIT (points and convergence records), BinDone events and checkpoint
// record of its own solo run, for α, p and the neutron kernel, flat and
// adaptive, under any worker count, while tracing each bin's strikes once:
// the particle count is the sum over bins of the largest per-model count.
// The adaptive α/p cases also list the models from 1.1 V down, so that a
// model stops a bin while a later-listed one samples on. Three cases start
// from a store that holds some bins of the 0.9 V model only.
func TestRunLedgersMatchesSoloRuns(t *testing.T) {
	ascending := sweepFixtures(t)
	descending := []*sram.Characterization{ascending[2], ascending[1], ascending[0]}
	ctx := context.Background()
	type tc struct {
		name    string // alpha, proton or neutron
		relErr  float64
		workers int
		desc    bool // list the models from 1.1 V down
		partial bool // the store starts with bins 0 and 2 of the 0.9 V model
	}
	var cases []tc
	for _, name := range []string{"alpha", "proton", "neutron"} {
		for _, relErr := range []float64{0, 0.05} {
			for _, workers := range []int{1, 8} {
				cases = append(cases, tc{name, relErr, workers, false, false})
			}
		}
		if name != "neutron" {
			cases = append(cases, tc{name, 0.05, 2, true, false})
		}
	}
	cases = append(cases, tc{"alpha", 0.05, 2, false, true}, tc{"proton", 0, 2, false, true}, tc{"neutron", 0.05, 2, false, true})
	for _, c := range cases {
		chars := ascending
		if c.desc {
			chars = descending
		}
		var rx *neutron.Reactions
		if c.name == "neutron" {
			rx = neutron.NewReactions()
		}
		t.Run(fmt.Sprintf("%s/relerr%g/workers%d/desc=%v/partial=%v", c.name, c.relErr, c.workers, c.desc, c.partial), func(t *testing.T) {
			// seed returns a store holding the partial case's head start.
			seed := func() *memStore {
				store := newMemStore()
				if !c.partial {
					return store
				}
				plan := sweepPlan(t, c.name, 0.9, c.relErr)
				full := newMemStore()
				var ignored []BinEvent
				if _, err := soloRun(ctx, sweepEngine(t, c.workers, nil), ascending[1], recordingLedger(t, plan, full, &ignored), rx); err != nil {
					t.Fatal(err)
				}
				stage := plan.CheckpointPrefix + "fit/" + plan.Name
				var rec binRecord
				if ok, err := full.Load(stage, &rec); !ok || err != nil {
					t.Fatalf("full solo record: ok %v, err %v", ok, err)
				}
				rec.Points = []*POFPoint{rec.Points[0], nil, rec.Points[2]}
				if rec.Conv != nil {
					rec.Conv = []*BinConv{rec.Conv[0], nil, rec.Conv[2]}
				}
				if err := store.Save(stage, rec); err != nil {
					t.Fatal(err)
				}
				return store
			}

			solo := make([]FITResult, len(chars))
			soloEvents := make([][]BinEvent, len(chars))
			soloStore := seed()
			for i, ch := range chars {
				l := recordingLedger(t, sweepPlan(t, c.name, ch.Vdd, c.relErr), soloStore, &soloEvents[i])
				res, err := soloRun(ctx, sweepEngine(t, c.workers, nil), ch, l, rx)
				if err != nil {
					t.Fatalf("solo %g V: %v", ch.Vdd, err)
				}
				solo[i] = res
			}

			reg := obs.NewRegistry()
			sharedStore := seed()
			sharedEvents := make([][]BinEvent, len(chars))
			runs := make([]LedgerRun, len(chars))
			for i, ch := range chars {
				runs[i] = LedgerRun{Ledger: recordingLedger(t, sweepPlan(t, c.name, ch.Vdd, c.relErr), sharedStore, &sharedEvents[i]), Char: ch}
			}
			shared, err := sweepEngine(t, c.workers, reg).RunLedgersCtx(ctx, runs, rx)
			if err != nil {
				t.Fatal(err)
			}

			for i, ch := range chars {
				if !reflect.DeepEqual(shared[i], solo[i]) {
					t.Errorf("%g V: shared FIT differs from the solo run:\n shared %+v\n solo   %+v", ch.Vdd, shared[i], solo[i])
				}
				if !reflect.DeepEqual(sharedEvents[i], soloEvents[i]) {
					t.Errorf("%g V: shared BinDone events differ from the solo run's:\n shared %+v\n solo   %+v", ch.Vdd, sharedEvents[i], soloEvents[i])
				}
			}
			if !reflect.DeepEqual(sharedStore.m, soloStore.m) {
				t.Error("shared checkpoint records differ from the solo runs'")
			}

			if c.partial {
				return
			}
			traced, looked := 0, 0
			for b := range shared[0].Points {
				most := 0
				for i := range shared {
					n := shared[i].Points[b].Strikes
					most, looked = max(most, n), looked+n
				}
				traced += most
			}
			if got := reg.Counter("core.particles_generated").Value(); got != int64(traced) {
				t.Errorf("shared run traced %d strikes, want %d (the per-bin largest model count; %d looked up)", got, traced, looked)
			}
			if c.desc && !stopsBeforeLater(shared) {
				t.Error("no model stopped a bin before a later-listed one; the case does not cover a shrinking open list")
			}
		})
	}
}

// stopsBeforeLater reports whether some model stops some adaptive bin at
// fewer batches than a model listed after it.
func stopsBeforeLater(res []FITResult) bool {
	for b := range res[0].Conv {
		for i := range res {
			for j := i + 1; j < len(res); j++ {
				if res[i].Conv[b].Batches < res[j].Conv[b].Batches {
					return true
				}
			}
		}
	}
	return false
}

// TestRunLedgersRefusesMismatchedRuns: a shared run refuses, before it
// restores or runs a bin, runs whose plans differ in anything but Vdd, a
// cell model characterized at another voltage than its plan (a *VddError
// naming it over a *PlanMismatchError), and an empty run list.
func TestRunLedgersRefusesMismatchedRuns(t *testing.T) {
	chars := sweepFixtures(t)
	ctx := context.Background()
	e := sweepEngine(t, 2, nil)
	ledger := func(p BinPlan) *Ledger {
		l, err := NewLedger(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	p07, p09 := sweepPlan(t, "alpha", 0.7, 0), sweepPlan(t, "alpha", 0.9, 0)

	other := p09
	other.Seeds = FITSeedSchedule(12, len(p09.Bins))
	if _, err := e.RunLedgersCtx(ctx, []LedgerRun{{ledger(p07), chars[0]}, {ledger(other), chars[1]}}, nil); err == nil {
		t.Error("runs with different seed schedules shared one bin run")
	}

	_, err := e.RunLedgersCtx(ctx, []LedgerRun{{ledger(p07), chars[0]}, {ledger(p09), chars[2]}}, nil)
	var ve *VddError
	var pm *PlanMismatchError
	if !errors.As(err, &ve) || ve.Vdd != 1.1 || !errors.As(err, &pm) || pm.Plan != 0.9 || pm.Engine != 1.1 {
		t.Errorf("0.9 V plan on the 1.1 V model: err = %v, want a *VddError at 1.1 V over a Vdd *PlanMismatchError", err)
	}

	if _, err := e.RunLedgersCtx(ctx, nil, nil); err == nil {
		t.Error("an empty shared bin run succeeded")
	}
}
