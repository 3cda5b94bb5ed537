package sram

import (
	"math"
	"sync"

	"finser/internal/finfet"
)

// numCoef is the number of coefficients of the linear critical-charge
// model Qcrit ≈ c·[1, ΔVth(PUL), …, ΔVth(PGR)].
const numCoef = 1 + int(NumRoles)

// numFitAxes is the number of axes a characterization bisects, and so of
// models per key: every axis before I3, which copies I1's critical charge.
const numFitAxes = int(AxisI3)

// minFitSamples is the number of samples a model needs before it guesses:
// one more than it has coefficients. Qcrit is so nearly linear in the
// shifts that a fit over 8 samples already guesses within a final
// interval about as often as one over 40.
const minFitSamples = numCoef + 1

// maxFitKeys bounds the table of models; the least recently used key is
// evicted beyond it.
const maxFitKeys = 64

// normalEq accumulates the least-squares normal equations XᵀX c = Xᵀq of
// the linear critical-charge model over the samples added to it.
type normalEq struct {
	n   int
	xtx [numCoef][numCoef]float64
	xtq [numCoef]float64
}

// regressors returns the model's inputs for a sample: 1 and the sample's
// Vth shift from the base shifts, per role.
func regressors(shifts, base VthShifts) [numCoef]float64 {
	x := [numCoef]float64{1}
	for r := range shifts {
		x[1+r] = shifts[r] - base[r]
	}
	return x
}

// add folds one sample with regressors x and critical charge q into e.
func (e *normalEq) add(x [numCoef]float64, q float64) {
	e.n++
	for i := range x {
		for j := range x {
			e.xtx[i][j] += x[i] * x[j]
		}
		e.xtq[i] += x[i] * q
	}
}

// merge folds every sample of o into e.
func (e *normalEq) merge(o *normalEq) {
	e.n += o.n
	for i := range e.xtx {
		for j := range e.xtx[i] {
			e.xtx[i][j] += o.xtx[i][j]
		}
		e.xtq[i] += o.xtq[i]
	}
}

// solve returns the least-squares coefficients by Cholesky decomposition,
// and ok=false when e holds fewer than minFitSamples samples or its XᵀX is
// not numerically positive definite (a shift that never varies, or NaN).
func (e *normalEq) solve() (c [numCoef]float64, ok bool) {
	if e.n < minFitSamples {
		return c, false
	}
	var l [numCoef][numCoef]float64
	for i := range l {
		for j := 0; j <= i; j++ {
			s := e.xtx[i][j]
			for k := 0; k < j; k++ {
				s -= l[i][k] * l[j][k]
			}
			if i == j {
				if !(s > 1e-12*e.xtx[i][i]) {
					return c, false
				}
				l[i][i] = math.Sqrt(s)
			} else {
				l[i][j] = s / l[j][j]
			}
		}
	}
	// L y = Xᵀq, then Lᵀ c = y.
	for i := range c {
		s := e.xtq[i]
		for k := 0; k < i; k++ {
			s -= l[i][k] * c[k]
		}
		c[i] = s / l[i][i]
	}
	for i := numCoef - 1; i >= 0; i-- {
		s := c[i]
		for k := i + 1; k < numCoef; k++ {
			s -= l[k][i] * c[k]
		}
		c[i] = s / l[i][i]
	}
	return c, true
}

// predict evaluates the model with coefficients c at regressors x.
func predict(c, x [numCoef]float64) float64 {
	q := 0.0
	for i := range c {
		q += c[i] * x[i]
	}
	return q
}

// fitKey names the cells one model describes: every characterization with
// the same technology card, supply, pulse shape and base shifts bisects
// cells drawn around the same nominal cell.
type fitKey struct {
	tech  finfet.Technology
	vdd   float64
	shape PulseShape
	base  VthShifts
}

// fitEntry is one key's accumulated normal equations per fitted axis, and
// when the key was last used.
type fitEntry struct {
	eqs  [numFitAxes]normalEq
	used uint64
}

// fitTable holds the normal equations of every characterization that
// finished in this process, per key. A characterization starts from its
// key's equations, so serd's repeated voltages, a second sweep and the
// figures of one process guess from their first sample on. A model only
// chooses which probes a bisection simulates, never a critical charge, so
// no result depends on what the table holds.
type fitTable struct {
	mu      sync.Mutex
	entries map[fitKey]*fitEntry
	clock   uint64
}

// fits is the process's table.
var fits fitTable

// get returns a copy of k's normal equations (none when k is unknown) and
// marks k used.
func (t *fitTable) get(k fitKey) [numFitAxes]normalEq {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[k]
	if e == nil {
		return [numFitAxes]normalEq{}
	}
	t.clock++
	e.used = t.clock
	return e.eqs
}

// add folds eqs into k's normal equations, evicting the least recently
// used key when k is new and the table is full.
func (t *fitTable) add(k fitKey, eqs *[numFitAxes]normalEq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entries[k]
	if e == nil {
		if t.entries == nil {
			t.entries = make(map[fitKey]*fitEntry)
		}
		if len(t.entries) >= maxFitKeys {
			var oldest fitKey
			first := uint64(math.MaxUint64)
			for key, v := range t.entries {
				if v.used < first {
					oldest, first = key, v.used
				}
			}
			delete(t.entries, oldest)
		}
		e = &fitEntry{}
		t.entries[k] = e
	}
	for i := range e.eqs {
		e.eqs[i].merge(&eqs[i])
	}
	t.clock++
	e.used = t.clock
}
