package core

import (
	"finser/internal/phys"
	"finser/internal/sram"
	"finser/internal/transport"
)

// strikeScratch is the per-worker reusable state of the strike hot paths.
// Every per-particle intermediate the engine used to allocate — the
// broad-phase candidate list, the narrow phase's crossed fins, the deposit
// buffer, the per-cell charge accumulator, the POF list — lives here, so the
// steady-state Monte-Carlo loop performs zero heap allocations: millions
// of strikes stop feeding the GC, which is what lets worker throughput
// scale with cores instead of with collector headroom.
//
// A scratch must not be shared between concurrent strikes. Workers obtain
// one from Engine.getScratch at loop start and return it with putScratch;
// the pool keeps warm buffers across estimates.
type strikeScratch struct {
	candidate []int                // broad-phase candidate fin indices
	hits      []transport.Crossing // the candidates a track crosses; a neutron strike's chords
	deps      []transport.Deposit  // per-track deposits

	// Dense per-cell charge accumulator, replacing the per-strike
	// map[int]*[NumAxes]float64: cellQ[ci] holds the sensitive-axis
	// charges of cell ci and is valid iff cellEpoch[ci] == epoch, so
	// "clearing" the accumulator between strikes is a single epoch bump.
	// touched lists the valid cell indices in first-touch order; callers
	// sort it before any float-order-sensitive reduction.
	cellQ     [][sram.NumAxes]float64
	cellEpoch []uint64
	epoch     uint64
	touched   []int

	// The strike's positive cell POFs in one cell model, in sorted cell
	// order, and their cells (lookup).
	pofs     []float64
	pofCells []int

	tally strikeTally
}

// strikeTally counts a worker's strikes in plain integers: the transport
// counters' rays, crossings and deposited segments, and struck[k], the
// strikes that charged k cells. putScratch adds it to the registry once,
// so no strike adds atomically to counters every concurrent job shares.
type strikeTally struct {
	rays, crossings, segments int64
	struck                    []int64
}

// countRay tallies one counted track with its crossings and deposits.
func (t *strikeTally) countRay(crossings, segments int) {
	t.rays++
	t.crossings += int64(crossings)
	t.segments += int64(segments)
}

// countStruck tallies one strike that charged cells cells (> 0).
func (t *strikeTally) countStruck(cells int) {
	if cells >= len(t.struck) {
		t.struck = append(t.struck, make([]int64, cells+1-len(t.struck))...)
	}
	t.struck[cells]++
}

// newStrikeScratch sizes the dense accumulator for an nCells array.
func newStrikeScratch(nCells int) *strikeScratch {
	return &strikeScratch{
		cellQ:     make([][sram.NumAxes]float64, nCells),
		cellEpoch: make([]uint64, nCells),
	}
}

// getScratch hands out a warm per-worker scratch from the engine pool.
func (e *Engine) getScratch() *strikeScratch {
	return e.scratch.Get().(*strikeScratch)
}

// putScratch adds the scratch's tally to the engine's and transport's
// metrics, clears it, and returns the scratch to the pool for the next
// worker. Every scratch user returns it before its estimate returns, so
// the registry's counters are whole once an estimate is.
func (e *Engine) putScratch(s *strikeScratch) {
	t := &s.tally
	e.tr.Metrics.Add(t.rays, t.crossings, t.segments)
	if m := e.m; m != nil {
		for cells, n := range t.struck {
			m.StruckCellMultiplicity.ObserveN(float64(cells), n)
		}
	}
	clear(t.struck)
	t.rays, t.crossings, t.segments = 0, 0, 0
	e.scratch.Put(s)
}

// beginCells resets the per-cell charge accumulator for a new particle.
func (s *strikeScratch) beginCells() {
	s.epoch++
	s.touched = s.touched[:0]
}

// addCharge accumulates charge q on the cell's sensitive axis, registering
// the cell as touched on first contact this strike.
func (s *strikeScratch) addCharge(ci int, axis sram.Axis, q float64) {
	if s.cellEpoch[ci] != s.epoch {
		s.cellEpoch[ci] = s.epoch
		s.cellQ[ci] = [sram.NumAxes]float64{}
		s.touched = append(s.touched, ci)
	}
	s.cellQ[ci][axis] += q
}

// sortTouched orders the struck cells by dense cell index. Struck-cell
// multiplicity is tiny (one track crosses a handful of cells), so an
// allocation-free insertion sort beats any library sort here. The sorted
// order is what makes the float-sensitive combinePOFs reduction
// bit-identical across runs — the old map iteration visited cells in
// randomized order.
func (s *strikeScratch) sortTouched() {
	t := s.touched
	for i := 1; i < len(t); i++ {
		for j := i; j > 0 && t[j] < t[j-1]; j-- {
			t[j], t[j-1] = t[j-1], t[j]
		}
	}
}

// accumulateCharges converts one track's deposits into per-cell
// sensitive-axis charges in scr and returns the total charge landed on
// sensitive transistors (the conservation-guard reference).
func (e *Engine) accumulateCharges(scr *strikeScratch, deps []transport.Deposit) float64 {
	deposited := 0.0
	for _, d := range deps {
		t := e.targets[d.Fin]
		if !t.sensitive {
			continue // the paper discards charge on non-sensitive transistors
		}
		q := phys.ChargeFromPairs(d.Pairs)
		scr.addCharge(t.cell, t.axis, q)
		deposited += q
	}
	return deposited
}
