package sram

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"finser/internal/lut"
)

// GridLUT is the paper's literal POF look-up-table format: POF sampled on
// charge grids "for different supply voltages, current pulse magnitudes,
// and all possible combinations of current pulses" (§4). Single-axis
// strikes use a dense 1-D grid; two- and three-axis combinations use
// coarser 2-D/3-D grids with multi-linear interpolation in log-charge.
//
// A GridLUT is pure data: once built (from a Characterization) it can be
// serialized, shipped, and evaluated without the underlying Monte-Carlo
// samples — exactly the role the paper's LUTs play between its circuit and
// array levels. The Characterization's sample-based POF is the reference;
// BuildGridLUT's tests bound the interpolation error against it.
type GridLUT struct {
	Vdd float64 `json:"vdd"`
	// QGrid is the log-spaced charge grid (coulombs) shared by all axes.
	QGrid []float64 `json:"q_grid"`
	// Single[axis][i] = POF for charge QGrid[i] on that axis alone.
	Single [NumAxes][]float64 `json:"single"`
	// CoarseGrid is the reduced grid used by multi-axis tables.
	CoarseGrid []float64 `json:"coarse_grid"`
	// Pairs[k][i][j] = POF for (QCoarse[i] on axis a, QCoarse[j] on axis b)
	// where k indexes the axis pairs (0,1), (0,2), (1,2).
	Pairs [3][][]float64 `json:"pairs"`
	// Triple[i][j][k] = POF for charges on all three axes.
	Triple [][][]float64 `json:"triple"`
}

// pairIndex maps an axis pair to its Pairs slot.
func pairIndex(a, b Axis) int {
	switch {
	case a == AxisI1 && b == AxisI2:
		return 0
	case a == AxisI1 && b == AxisI3:
		return 1
	default:
		return 2 // (I2, I3)
	}
}

// BuildGridLUT samples the characterization's POF onto grids. nFine and
// nCoarse are the grid sizes (0 selects 48 and 10). The grid spans
// [qLo, qHi]; zeros select a span bracketing the characterization's
// critical-charge range with a ×4 margin on both sides.
func BuildGridLUT(ch *Characterization, nFine, nCoarse int, qLo, qHi float64) (*GridLUT, error) {
	if nFine <= 1 {
		nFine = 48
	}
	if nCoarse <= 1 {
		nCoarse = 14
	}
	if qLo <= 0 || qHi <= qLo {
		lo, hi := math.Inf(1), 0.0
		for a := AxisI1; a < NumAxes; a++ {
			if v := ch.QcritQuantile(a, 0.01); v < lo {
				lo = v
			}
			if v := ch.QcritQuantile(a, 0.99); v > hi && !math.IsInf(v, 1) {
				hi = v
			}
		}
		if math.IsInf(lo, 1) || hi <= 0 {
			return nil, errors.New("sram: characterization has no finite critical charges")
		}
		qLo, qHi = lo/3, hi*3
	}
	g := &GridLUT{Vdd: ch.Vdd}
	g.QGrid = lut.LogSpace(qLo, qHi, nFine)
	g.CoarseGrid = lut.LogSpace(qLo, qHi, nCoarse)

	for a := AxisI1; a < NumAxes; a++ {
		g.Single[a] = make([]float64, nFine)
		for i, q := range g.QGrid {
			g.Single[a][i] = ch.POFSingle(a, q)
		}
	}
	pairs := [3][2]Axis{{AxisI1, AxisI2}, {AxisI1, AxisI3}, {AxisI2, AxisI3}}
	for k, p := range pairs {
		tab := make([][]float64, nCoarse)
		for i := range tab {
			tab[i] = make([]float64, nCoarse)
			for j := range tab[i] {
				var q [NumAxes]float64
				q[p[0]] = g.CoarseGrid[i]
				q[p[1]] = g.CoarseGrid[j]
				tab[i][j] = ch.POF(q)
			}
		}
		g.Pairs[k] = tab
	}
	g.Triple = make([][][]float64, nCoarse)
	for i := range g.Triple {
		g.Triple[i] = make([][]float64, nCoarse)
		for j := range g.Triple[i] {
			g.Triple[i][j] = make([]float64, nCoarse)
			for k := range g.Triple[i][j] {
				q := [NumAxes]float64{g.CoarseGrid[i], g.CoarseGrid[j], g.CoarseGrid[k]}
				g.Triple[i][j][k] = ch.POF(q)
			}
		}
	}
	return g, nil
}

// gridCoord locates q on the grid: the lower index and the log-space
// interpolation fraction, clamped to the grid ends.
func gridCoord(grid []float64, q float64) (int, float64) {
	n := len(grid)
	if q <= grid[0] {
		return 0, 0
	}
	if q >= grid[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(grid, q)
	if grid[i] == q {
		if i == n-1 {
			return n - 2, 1
		}
		return i, 0
	}
	i--
	f := math.Log(q/grid[i]) / math.Log(grid[i+1]/grid[i])
	return i, f
}

// POF evaluates the table for an arbitrary charge vector, dispatching on
// how many axes carry charge. Values below the grid floor count as zero
// charge; values above the ceiling clamp (POF there is saturated anyway).
func (g *GridLUT) POF(q [NumAxes]float64) float64 {
	// Fixed-size active set: POF sits on the Monte-Carlo hot path, so the
	// axis dispatch must not allocate.
	var active [NumAxes]Axis
	na := 0
	for a := AxisI1; a < NumAxes; a++ {
		if q[a] > 0 {
			active[na] = a
			na++
		}
	}
	switch na {
	case 0:
		return 0
	case 1:
		a := active[0]
		i, f := gridCoord(g.QGrid, q[a])
		return g.Single[a][i] + f*(g.Single[a][i+1]-g.Single[a][i])
	case 2:
		k := pairIndex(active[0], active[1])
		tab := g.Pairs[k]
		i, fi := gridCoord(g.CoarseGrid, q[active[0]])
		j, fj := gridCoord(g.CoarseGrid, q[active[1]])
		return bilerp(tab[i][j], tab[i][j+1], tab[i+1][j], tab[i+1][j+1], fi, fj)
	default:
		i, fi := gridCoord(g.CoarseGrid, q[AxisI1])
		j, fj := gridCoord(g.CoarseGrid, q[AxisI2])
		k, fk := gridCoord(g.CoarseGrid, q[AxisI3])
		c000 := g.Triple[i][j][k]
		c001 := g.Triple[i][j][k+1]
		c010 := g.Triple[i][j+1][k]
		c011 := g.Triple[i][j+1][k+1]
		c100 := g.Triple[i+1][j][k]
		c101 := g.Triple[i+1][j][k+1]
		c110 := g.Triple[i+1][j+1][k]
		c111 := g.Triple[i+1][j+1][k+1]
		lo := bilerp(c000, c001, c010, c011, fj, fk)
		hi := bilerp(c100, c101, c110, c111, fj, fk)
		return lo + fi*(hi-lo)
	}
}

func bilerp(c00, c01, c10, c11, fi, fj float64) float64 {
	a := c00 + fj*(c01-c00)
	b := c10 + fj*(c11-c10)
	return a + fi*(b-a)
}

// WriteJSON serializes the table.
func (g *GridLUT) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(g)
}

// ReadGridLUT deserializes a table and re-runs the full construction
// validation — a LUT loaded from disk earns exactly the same trust as one
// BuildGridLUT just produced, no more.
func ReadGridLUT(r io.Reader) (*GridLUT, error) {
	var g GridLUT
	if err := json.NewDecoder(r).Decode(&g); err != nil {
		return nil, fmt.Errorf("sram: decode grid LUT: %w", err)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}

// Validate checks the structural and physical invariants every usable
// GridLUT satisfies: positive finite Vdd, strictly increasing positive
// charge grids, full table shapes, every stored POF a probability, and
// each single-axis row non-decreasing in charge within pofMonotoneTol
// (more collected charge never makes a flip less likely). BuildGridLUT
// output passes by construction; ReadGridLUT enforces it on the JSON trust
// boundary, whatever the guard mode.
func (g *GridLUT) Validate() error {
	if math.IsNaN(g.Vdd) || math.IsInf(g.Vdd, 0) || g.Vdd <= 0 {
		return fmt.Errorf("sram: grid LUT Vdd %g is not a positive voltage", g.Vdd)
	}
	if len(g.QGrid) < 2 || len(g.CoarseGrid) < 2 {
		return errors.New("sram: grid LUT has degenerate grids")
	}
	for _, grid := range [][]float64{g.QGrid, g.CoarseGrid} {
		for i, q := range grid {
			if math.IsNaN(q) || math.IsInf(q, 0) || q <= 0 {
				return fmt.Errorf("sram: grid charge %g at index %d is not positive finite", q, i)
			}
			if i > 0 && q <= grid[i-1] {
				return fmt.Errorf("sram: charge grid not strictly increasing at index %d", i)
			}
		}
	}
	checkPOF := func(where string, v float64) error {
		if math.IsNaN(v) || v < 0 || v > 1 {
			return fmt.Errorf("sram: grid LUT %s holds %g, not a probability", where, v)
		}
		return nil
	}
	for a := range g.Single {
		if len(g.Single[a]) != len(g.QGrid) {
			return fmt.Errorf("sram: axis %d table size mismatch", a)
		}
		for i, v := range g.Single[a] {
			if err := checkPOF(fmt.Sprintf("single[%d][%d]", a, i), v); err != nil {
				return err
			}
			if i > 0 && v < g.Single[a][i-1]-pofMonotoneTol {
				return fmt.Errorf("sram: grid LUT single[%d] falls with charge at index %d, from %g to %g (tolerance %g)",
					a, i, g.Single[a][i-1], v, pofMonotoneTol)
			}
		}
	}
	n := len(g.CoarseGrid)
	for k := range g.Pairs {
		if len(g.Pairs[k]) != n {
			return fmt.Errorf("sram: pair table %d size mismatch", k)
		}
		for i := range g.Pairs[k] {
			if len(g.Pairs[k][i]) != n {
				return fmt.Errorf("sram: pair table %d row %d size mismatch", k, i)
			}
			for j, v := range g.Pairs[k][i] {
				if err := checkPOF(fmt.Sprintf("pairs[%d][%d][%d]", k, i, j), v); err != nil {
					return err
				}
			}
		}
	}
	if len(g.Triple) != n {
		return errors.New("sram: triple table size mismatch")
	}
	for i := range g.Triple {
		if len(g.Triple[i]) != n {
			return fmt.Errorf("sram: triple table plane %d size mismatch", i)
		}
		for j := range g.Triple[i] {
			if len(g.Triple[i][j]) != n {
				return fmt.Errorf("sram: triple table row %d,%d size mismatch", i, j)
			}
			for k, v := range g.Triple[i][j] {
				if err := checkPOF(fmt.Sprintf("triple[%d][%d][%d]", i, j, k), v); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// pofMonotoneTol absorbs Monte-Carlo noise when asserting that POF curves
// rise with charge: adjacent grid points may dip by this much before
// Validate rejects the table.
const pofMonotoneTol = 0.02

// POFProvider is the interface the array level consumes: any model that
// maps a sensitive-axis charge vector to a flip probability at a known
// supply voltage. Both the sample-based Characterization and the
// serialized GridLUT satisfy it — the latter reproduces the paper's exact
// architecture, where the array Monte Carlo runs against LUTs alone.
type POFProvider interface {
	// POF returns the flip probability for the given per-axis charges (C).
	POF(q [NumAxes]float64) float64
	// SupplyVoltage returns the Vdd the model was characterized at.
	SupplyVoltage() float64
}

// SupplyVoltage implements POFProvider.
func (ch *Characterization) SupplyVoltage() float64 { return ch.Vdd }

// SupplyVoltage implements POFProvider.
func (g *GridLUT) SupplyVoltage() float64 { return g.Vdd }

var (
	_ POFProvider = (*Characterization)(nil)
	_ POFProvider = (*GridLUT)(nil)
)
