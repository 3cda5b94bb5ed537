package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"finser/internal/phys"
	"finser/internal/spectra"
)

// ledgerPlan is a three-bin plan with synthetic flux, for ledger tests
// that need no Monte Carlo.
func ledgerPlan(relErr float64) BinPlan {
	return BinPlan{
		Name: "alpha", Species: phys.Alpha, Vdd: 0.8,
		Bins: []spectra.EnergyBin{
			{Lo: 0.5, Hi: 1.5, Rep: 0.87, IntFlux: 3e-7},
			{Lo: 1.5, Hi: 4, Rep: 2.45, IntFlux: 1.1e-7},
			{Lo: 4, Hi: 10, Rep: 6.32, IntFlux: 2e-8},
		},
		Seeds: FITSeedSchedule(5, 3), ItersPerBin: 100, RelErr: relErr, AreaCm2: 2.7e-8,
	}
}

// ledgerBins returns one valid point and convergence record per bin of
// ledgerPlan.
func ledgerBins() ([]POFPoint, []BinConv) {
	pts := []POFPoint{
		{EnergyMeV: 0.87, Tot: 0.31, SEU: 0.27, MBU: 0.04, TotStdErr: 0.011, Strikes: 100, HitFrac: 0.4},
		{EnergyMeV: 2.45, Tot: 0.12, SEU: 0.11, MBU: 0.01, TotStdErr: 0.007, Strikes: 60, HitFrac: 0.2},
		{EnergyMeV: 6.32, Tot: 0.013, SEU: 0.013, TotStdErr: 0.002, Strikes: 200, HitFrac: 0.1},
	}
	conv := []BinConv{
		{RelErr: 0.035, Tol: 0.1, Converged: true, Batches: 10},
		{RelErr: 0.058, Tol: 0.1, Converged: true, Batches: 6, StrikesSaved: 40},
		{RelErr: 0.15, Tol: 0.1, Batches: 20, StrikesSaved: -100},
	}
	return pts, conv
}

// TestLedgerAnyOrderFoldsSameBits: bins completed in any order fold to the
// bin-ordered AssembleFIT bits, the last FITSoFar equals TotalFIT, and a
// record saved with a hole restores exactly its bins, marked Resumed.
func TestLedgerAnyOrderFoldsSameBits(t *testing.T) {
	for _, relErr := range []float64{0, 0.1} {
		plan := ledgerPlan(relErr)
		pts, conv := ledgerBins()
		want := AssembleFIT(plan.Species, plan.Vdd, plan.Bins, pts, plan.AreaCm2)
		if relErr > 0 {
			want.Conv = conv
		}
		for _, order := range [][]int{{0, 1, 2}, {2, 0, 1}, {1, 2, 0}} {
			store := newMemStore()
			var events []BinEvent
			l, err := NewLedger(plan, store, func(ev BinEvent) { events = append(events, ev) })
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range order {
				if err := l.Complete(i, pts[i:i+1], conv[i:i+1]); err != nil {
					t.Fatal(err)
				}
				if len(events) == 2 {
					// Restore the record with one bin still missing.
					var got []BinEvent
					part, err := NewLedger(plan, store, func(ev BinEvent) { got = append(got, ev) })
					if err != nil {
						t.Fatal(err)
					}
					if err := part.Restore(); err != nil {
						t.Fatalf("order %v: restoring two bins: %v", order, err)
					}
					for i := 0; i < 3; i++ {
						if part.Done(i) == (i == order[2]) {
							t.Errorf("order %v: bin %d restored = %v, want only bin %d missing", order, i, part.Done(i), order[2])
						}
					}
					if len(got) != 2 || !got[0].Resumed || !got[1].Resumed || got[0].Bin > got[1].Bin {
						t.Errorf("order %v: restore fired %+v, want two Resumed events in bin order", order, got)
					}
				}
			}
			if got := l.FIT(); !reflect.DeepEqual(got, want) {
				t.Errorf("relErr %g, order %v: FIT %+v, want %+v", relErr, order, got, want)
			}
			if last := events[len(events)-1]; last.FITSoFar != want.TotalFIT {
				t.Errorf("relErr %g, order %v: last FITSoFar %v, want TotalFIT %v", relErr, order, last.FITSoFar, want.TotalFIT)
			}
		}
	}
}

// TestLedgerRestoreChecksPlan: a record from another plan, or with stray or
// missing convergence records, restores nothing and names the stage.
func TestLedgerRestoreChecksPlan(t *testing.T) {
	pts, conv := ledgerBins()
	pt := func(i int) *POFPoint { return &pts[i] }
	cv := func(i int) *BinConv { return &conv[i] }
	plan := ledgerPlan(0.1)
	good := binRecord{ItersPerBin: 100, Seeds: plan.Seeds, Points: []*POFPoint{pt(0), nil, pt(2)}, RelErr: 0.1, Conv: []*BinConv{cv(0), nil, cv(2)}}
	cases := map[string]func(r *binRecord){
		"budget":         func(r *binRecord) { r.ItersPerBin = 200 },
		"tolerance":      func(r *binRecord) { r.RelErr = 0.05 },
		"seed":           func(r *binRecord) { r.Seeds = FITSeedSchedule(6, 3) },
		"bin count":      func(r *binRecord) { r.Seeds = FITSeedSchedule(5, 4) },
		"too many bins":  func(r *binRecord) { r.Points = append(r.Points, pt(0)) },
		"missing conv":   func(r *binRecord) { r.Conv = r.Conv[:1] },
		"conv, no point": func(r *binRecord) { r.Conv[1] = cv(1) },
		"bad conv":       func(r *binRecord) { r.Conv[0] = &BinConv{Tol: 0.1, Batches: 3} },
	}
	for name, mutate := range cases {
		rec := good
		rec.Points = append([]*POFPoint(nil), good.Points...)
		rec.Conv = append([]*BinConv(nil), good.Conv...)
		mutate(&rec)
		store := newMemStore()
		if err := store.Save("fit/alpha", rec); err != nil {
			t.Fatal(err)
		}
		l, err := NewLedger(plan, store, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Restore(); err == nil {
			t.Errorf("%s: restore accepted the record", name)
		}
		if l.Done(0) || l.Done(1) || l.Done(2) {
			t.Errorf("%s: a rejected record left bins behind", name)
		}
	}
}

// FuzzLedgerRestore: whatever bytes a checkpoint stage holds, a ledger
// either restores bins that pass CheckBin — the shard wire's check — or
// returns an error having restored nothing; it never panics.
func FuzzLedgerRestore(f *testing.F) {
	pts, conv := ledgerBins()
	seeds := ledgerPlan(0).Seeds
	for _, rec := range []binRecord{
		{ItersPerBin: 100, Seeds: seeds, Points: []*POFPoint{&pts[0], &pts[1]}},
		{ItersPerBin: 100, Seeds: seeds, Points: []*POFPoint{nil, &pts[1], &pts[2]}, RelErr: 0.1, Conv: []*BinConv{nil, &conv[1], &conv[2]}},
	} {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"iters_per_bin":100,"seeds":[1,2,3],"points":[{"Tot":7,"Strikes":-3}]}`))
	f.Add([]byte(`{"points":[null,null,null,null]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, relErr := range []float64{0, 0.1} {
			store := newMemStore()
			store.m["fit/alpha"] = data
			fired := 0
			l, err := NewLedger(ledgerPlan(relErr), store, func(ev BinEvent) {
				if !ev.Resumed {
					t.Fatalf("restore fired a bin not marked Resumed: %+v", ev)
				}
				fired++
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Restore(); err != nil {
				if l.Done(0) || l.Done(1) || l.Done(2) || fired != 0 {
					t.Fatalf("failed restore (%v) left bins behind and fired %d events", err, fired)
				}
				continue
			}
			res := l.FIT()
			if len(res.Points) != fired {
				t.Fatalf("restored %d bins, fired %d events", len(res.Points), fired)
			}
			for i, pt := range res.Points {
				var c *BinConv
				if relErr > 0 {
					c = &res.Conv[i]
				}
				if err := CheckBin(pt, c, relErr > 0); err != nil {
					t.Fatalf("restored a bin the wire rejects: %v", err)
				}
			}
			if math.IsNaN(res.TotalFIT) || math.IsInf(res.TotalFIT, 0) || res.TotalFIT < 0 {
				t.Fatalf("restored bins fold to FIT %v", res.TotalFIT)
			}
		}
	})
}

// TestRunLedgerRefusesForeignPlan: a plan for another Vdd or array area is
// refused by both ledger entries with a typed error naming both values,
// before the ledger restores a bin or fires an event.
func TestRunLedgerRefusesForeignPlan(t *testing.T) {
	ch, _, _ := fixtures(t) // characterized at 0.7 V
	e := workerEngine(t, 2)
	_, bins := alphaEnv(t, 3)
	own := e.ownPlan(ch, "alpha", phys.Alpha, bins, 100, 5)
	pts, _ := ledgerBins()
	for _, tc := range []struct {
		field string
		edit  func(*BinPlan)
	}{
		{"Vdd", func(p *BinPlan) { p.Vdd = 0.8 }},
		{"area", func(p *BinPlan) { p.AreaCm2 *= 2 }},
	} {
		plan := own
		tc.edit(&plan)
		store := newMemStore()
		if err := store.Save("fit/alpha", binRecord{ItersPerBin: 100, Seeds: plan.Seeds, Points: []*POFPoint{&pts[0]}}); err != nil {
			t.Fatal(err)
		}
		events := 0
		l, err := NewLedger(plan, store, func(BinEvent) { events++ })
		if err != nil {
			t.Fatal(err)
		}
		_, runErr := soloRun(context.Background(), e, ch, l, nil)
		shardErr := e.RunShardCtx(context.Background(), LedgerRun{Ledger: l, Char: ch}, 0, 1)
		for _, err := range []error{runErr, shardErr} {
			var pm *PlanMismatchError
			if !errors.As(err, &pm) || pm.Field != tc.field || pm.Stage != "fit/alpha" {
				t.Fatalf("%s: err = %v, want a %s *PlanMismatchError", tc.field, err, tc.field)
			}
			want := map[string][2]float64{"Vdd": {0.8, 0.7}, "area": {plan.AreaCm2, own.AreaCm2}}[tc.field]
			if pm.Plan != want[0] || pm.Engine != want[1] {
				t.Errorf("%s: plan %g engine %g, want %g and %g", tc.field, pm.Plan, pm.Engine, want[0], want[1])
			}
		}
		if events != 0 || l.Done(0) {
			t.Errorf("%s: a refused plan restored bins (%d events)", tc.field, events)
		}
	}
}

// TestRunLedgerRefusesNilChar checks that both ledger entries refuse a run
// without a cell model by name instead of dereferencing it.
func TestRunLedgerRefusesNilChar(t *testing.T) {
	e := workerEngine(t, 2)
	l, err := NewLedger(ledgerPlan(0), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := e.RunLedgersCtx(context.Background(), []LedgerRun{{Ledger: l}}, nil)
	shardErr := e.RunShardCtx(context.Background(), LedgerRun{Ledger: l}, 0, 1)
	for _, err := range []error{runErr, shardErr} {
		if err == nil || !strings.Contains(err.Error(), "nil Char") {
			t.Errorf("err = %v, want a refusal naming the nil Char", err)
		}
	}
	if l.Done(0) {
		t.Error("a run without a cell model completed a bin")
	}
}
