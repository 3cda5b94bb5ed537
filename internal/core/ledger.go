package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"finser/internal/phys"
	"finser/internal/spectra"
)

// BinPlan is one species' Eq. 8 integration plan: everything that decides
// its bins' numbers, and where they are checkpointed.
type BinPlan struct {
	Name    string // labels stages ("fit/<Name>") and errors
	Species phys.Species
	Vdd     float64
	Bins    []spectra.EnergyBin
	Seeds   []uint64 // the per-bin seed schedule (FITSeedSchedule)
	// ItersPerBin is the flat budget; RelErr, when > 0, the adaptive
	// tolerance, whose bins carry convergence records.
	ItersPerBin      int
	RelErr           float64
	AreaCm2          float64 // Eq. 8's area factor
	CheckpointPrefix string  // namespaces the checkpoint stage, e.g. "vdd0.8/"
}

// Ledger is the one place a species' completed Eq. 8 bins live, whichever
// process computed them: Engine.RunLedgersCtx records each bin it runs, and
// a distributed coordinator each shard a worker returns. It is the one
// checkpoint record, restore check, BinDone stream and AssembleFIT fold of
// both. The Eq. 8 terms are independent, so a ledger may hold any subset
// of bins, completed in any order, and still fold to the bits of the
// one-call run; either mode resumes the other's checkpoint. Its methods
// are safe for concurrent use. Complete holds the ledger's lock while it
// reports to onBin and saves, so events and saves follow completion order;
// neither may call back into the ledger.
type Ledger struct {
	plan    BinPlan
	stage   string // "fit/<name>", BinEvent.Stage
	ckStage string // CheckpointPrefix + stage
	store   CheckpointStore
	onBin   func(BinEvent)

	mu     sync.Mutex
	points []*POFPoint // by bin; nil while the bin is missing
	conv   []*BinConv  // by bin under an adaptive plan, else nil
}

// NewLedger returns an empty ledger for plan that restores from and saves
// to store and reports each completed bin to onBin (either may be nil).
func NewLedger(plan BinPlan, store CheckpointStore, onBin func(BinEvent)) (*Ledger, error) {
	if len(plan.Bins) == 0 {
		return nil, errors.New("core: FIT needs at least one energy bin")
	}
	if plan.ItersPerBin <= 0 {
		return nil, errors.New("core: FIT needs positive iterations per bin")
	}
	if len(plan.Seeds) != len(plan.Bins) {
		return nil, fmt.Errorf("core: POF bins: %d seeds for %d bins", len(plan.Seeds), len(plan.Bins))
	}
	stage := "fit/" + plan.Name
	l := &Ledger{plan: plan, stage: stage, ckStage: plan.CheckpointPrefix + stage, store: store, onBin: onBin,
		points: make([]*POFPoint, len(plan.Bins))}
	if plan.RelErr > 0 {
		l.conv = make([]*BinConv, len(plan.Bins))
	}
	return l, nil
}

// Plan returns the ledger's plan.
func (l *Ledger) Plan() BinPlan { return l.plan }

// binRecord is a ledger's checkpoint record: the plan's identity and the
// completed bins. Points[i] and Conv[i] belong to bin i and are null while
// it is missing; trailing missing bins are left off, so bins completed in
// bin order are stored as a plain prefix.
type binRecord struct {
	ItersPerBin int         `json:"iters_per_bin"`
	Seeds       []uint64    `json:"seeds"`
	Points      []*POFPoint `json:"points"`
	RelErr      float64     `json:"rel_err,omitempty"`
	Conv        []*BinConv  `json:"conv,omitempty"`
}

// Restore loads the ledger's checkpoint record, if there is one. The
// record must match the plan (budget, tolerance, seed schedule), and every
// bin in it must pass CheckBin, the check a shard result off the wire
// passes, whatever the guard mode. Only then are its bins taken, each
// firing BinDone in bin order marked Resumed; otherwise nothing is, and
// the error names the stage.
func (l *Ledger) Restore() error {
	if l.store == nil {
		return nil
	}
	var rec binRecord
	ok, err := l.store.Load(l.ckStage, &rec)
	if err == nil && ok {
		err = l.plan.check(rec)
	}
	if err != nil {
		return fmt.Errorf("core: %s: checkpoint: %w", l.ckStage, err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, pt := range rec.Points {
		if pt != nil {
			l.points[i] = pt
			if l.conv != nil {
				l.conv[i] = rec.Conv[i]
			}
			l.fire(i, true)
		}
	}
	return nil
}

// check verifies a restored record against the plan.
func (p BinPlan) check(rec binRecord) error {
	switch {
	case rec.ItersPerBin != p.ItersPerBin:
		return fmt.Errorf("iters per bin changed: checkpoint %d, run %d", rec.ItersPerBin, p.ItersPerBin)
	case rec.RelErr != p.RelErr:
		// Result-determining: two tolerances consume different batches.
		return fmt.Errorf("FIT tolerance changed: checkpoint %g, run %g", rec.RelErr, p.RelErr)
	case !slices.Equal(rec.Seeds, p.Seeds):
		return fmt.Errorf("seed schedule (%d bins) differs from the run's (%d bins)", len(rec.Seeds), len(p.Seeds))
	case len(rec.Points) > len(p.Bins) || len(rec.Conv) > len(rec.Points):
		return fmt.Errorf("%d bins and %d convergence records for a %d-bin plan", len(rec.Points), len(rec.Conv), len(p.Bins))
	}
	for i, pt := range rec.Points {
		var conv *BinConv
		if i < len(rec.Conv) {
			conv = rec.Conv[i]
		}
		if pt == nil && conv != nil {
			return fmt.Errorf("bin %d: convergence record without a point", i)
		}
		if pt != nil {
			if err := CheckBin(*pt, conv, p.RelErr > 0); err != nil {
				return fmt.Errorf("bin %d: %w", i, err)
			}
		}
	}
	return nil
}

// Complete records bins [from, from+len(pts)) with their convergence
// records (aligned with pts, ignored under a flat plan), fires BinDone for
// each, and saves the record once. The bins stay recorded if the save
// fails.
func (l *Ledger) Complete(from int, pts []POFPoint, conv []BinConv) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, pt := range pts {
		l.points[from+k] = &pt
		if l.conv != nil {
			c := conv[k]
			l.conv[from+k] = &c
		}
		l.fire(from+k, false)
	}
	if l.store == nil {
		return nil
	}
	n := len(l.points)
	for n > 0 && l.points[n-1] == nil {
		n--
	}
	rec := binRecord{ItersPerBin: l.plan.ItersPerBin, Seeds: l.plan.Seeds, Points: l.points[:n], RelErr: l.plan.RelErr}
	if l.conv != nil {
		rec.Conv = l.conv[:n]
	}
	if err := l.store.Save(l.ckStage, rec); err != nil {
		return fmt.Errorf("core: %s bin %d: checkpoint: %w", l.ckStage, from+len(pts)-1, err)
	}
	return nil
}

// fire reports bin i to onBin, with FITSoFar the fold of every bin
// completed so far; l.mu is held.
func (l *Ledger) fire(i int, resumed bool) {
	if l.onBin == nil {
		return
	}
	ev := BinEvent{Stage: l.stage, Bin: i + 1, Bins: len(l.points), Point: *l.points[i], FITSoFar: l.fold().TotalFIT,
		Resumed: resumed, Adaptive: l.conv != nil}
	if l.conv != nil {
		ev.Conv = *l.conv[i]
	}
	l.onBin(ev)
}

// Done reports whether bin i is completed.
func (l *Ledger) Done(i int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.points[i] != nil
}

// FIT folds the completed bins in bin order with AssembleFIT: the full FIT
// once every bin is in, the partial sum before, and the zero FITResult
// while none is. Under an adaptive plan Conv carries the bins' records.
func (l *Ledger) FIT() FITResult {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fold()
}

// fold is FIT with l.mu held.
func (l *Ledger) fold() FITResult {
	var bins []spectra.EnergyBin
	var pts []POFPoint
	var conv []BinConv
	for i, pt := range l.points {
		if pt != nil {
			bins, pts = append(bins, l.plan.Bins[i]), append(pts, *pt)
			if l.conv != nil {
				conv = append(conv, *l.conv[i])
			}
		}
	}
	if len(pts) == 0 {
		return FITResult{}
	}
	res := AssembleFIT(l.plan.Species, l.plan.Vdd, bins, pts, l.plan.AreaCm2)
	res.Conv = conv
	return res
}

// CheckBin validates one completed bin that crossed a trust boundary — a
// shard result off the wire or a bin restored from a checkpoint — in every
// guard mode: energy positive and finite, probabilities in [0,1], standard
// error non-negative and finite, strikes positive. An adaptive bin needs a
// convergence record consistent with its point (CheckBinConv); a
// flat-budget bin must carry none.
func CheckBin(pt POFPoint, conv *BinConv, adaptive bool) error {
	if !(pt.EnergyMeV > 0) || math.IsInf(pt.EnergyMeV, 0) {
		return fmt.Errorf("core: invalid bin: energy must be positive and finite, got %v MeV", pt.EnergyMeV)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"tot", pt.Tot}, {"seu", pt.SEU}, {"mbu", pt.MBU}, {"hit_frac", pt.HitFrac}} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("core: invalid bin: %s must be a probability in [0,1], got %v", p.name, p.v)
		}
	}
	if !(pt.TotStdErr >= 0) || math.IsInf(pt.TotStdErr, 0) {
		return fmt.Errorf("core: invalid bin: tot stderr must be non-negative and finite, got %v", pt.TotStdErr)
	}
	if pt.Strikes <= 0 {
		return fmt.Errorf("core: invalid bin: strikes must be positive, got %d", pt.Strikes)
	}
	switch {
	case adaptive && conv == nil:
		return errors.New("core: invalid bin: no convergence record under an adaptive tolerance (computed under the flat budget?)")
	case !adaptive && conv != nil:
		return errors.New("core: invalid bin: convergence record under the flat budget")
	case adaptive:
		return CheckBinConv(*conv, pt)
	}
	return nil
}
