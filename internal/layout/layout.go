// Package layout models the geometric side of the paper's array level: a
// parametric 6T thin-cell layout (its Fig. 5b) placing each transistor's
// fin-channel volume in 3-D, and the tiling of cells into an SRAM array
// with the standard mirror-image abutment. The array exposes the flattened
// list of fin boxes plus the fin → (cell, transistor-role) mapping the
// Monte-Carlo strike analysis needs to turn one particle track into
// per-cell strike-current combinations — including multi-cell tracks, which
// are what produce MBUs.
package layout

import (
	"fmt"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/sram"
)

// CellLayout is the in-cell placement of the six transistors' sensitive
// volumes (the fin segment under the gate), in nm, with the cell origin at
// its lower-left corner and fins standing on z = 0.
type CellLayout struct {
	WidthNm  float64
	HeightNm float64
	// FinBoxes holds each role's channel volumes in canonical (unmirrored)
	// orientation — one box per fin, so multi-fin transistors contribute
	// several strike targets.
	FinBoxes [sram.NumRoles][]geom.AABB
	// FinHeightNm is the fin (and array) height above the BOX.
	FinHeightNm float64
}

// ThinCellLayout builds the standard 6T "thin cell": four fin columns —
// shared PD/PG actives on the outer columns, the PU pair in the middle —
// with 180°-rotational symmetry (PG_L at the cell bottom, PG_R at the top).
// Dimensions derive from the technology's fin/gate pitches. Multi-fin
// transistors (Technology.FinsPD etc.) get additional fins at fin pitch,
// extending outward from their column; the cell widens to keep the pitch
// between neighbouring actives.
func ThinCellLayout(t finfet.Technology) CellLayout {
	fp := t.FinPitchNm
	gp := t.GatePitchNm
	w := t.FinWidthNm
	l := t.GateLengthNm
	h := t.FinHeightNm

	// Extra columns on each outer side carry the additional PD/PG fins
	// (they share the outer active). The PU pair stays single-fin-column
	// unless FinsPU > 1 (rare), in which case the middle widens too.
	outerExtra := max(t.PDFins(), t.PGFins()) - 1
	puExtra := t.PUFins() - 1
	cols := 4 + 2*outerExtra + 2*puExtra

	lay := CellLayout{
		WidthNm:     float64(cols) * fp,
		HeightNm:    2 * gp,
		FinHeightNm: h,
	}
	// Row centres: inner (cross-coupled) row and the two pass-gate rows.
	yInner := gp
	yBottom := gp / 4
	yTop := 2*gp - gp/4

	colX := func(i int) float64 { return fp/2 + float64(i)*fp }
	box := func(cx, cy float64) geom.AABB {
		return geom.Box(
			geom.V(cx-w/2, cy-l/2, 0),
			geom.V(cx+w/2, cy+l/2, h),
		)
	}
	multi := func(startCol, n int, cy float64) []geom.AABB {
		out := make([]geom.AABB, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, box(colX(startCol+i), cy))
		}
		return out
	}
	// Left outer active spans columns [0, outerExtra]; right outer active
	// mirrors it. PU columns sit in the middle.
	leftStart := 0
	puLeft := 1 + outerExtra
	puRight := puLeft + puExtra + 1
	rightStart := cols - 1 - outerExtra

	lay.FinBoxes[sram.PDL] = multi(leftStart, t.PDFins(), yInner)
	lay.FinBoxes[sram.PGL] = multi(leftStart, t.PGFins(), yBottom)
	lay.FinBoxes[sram.PUL] = multi(puLeft, t.PUFins(), yInner)
	lay.FinBoxes[sram.PUR] = multi(puRight, t.PUFins(), yInner)
	lay.FinBoxes[sram.PDR] = multi(rightStart, t.PDFins(), yInner)
	lay.FinBoxes[sram.PGR] = multi(rightStart, t.PGFins(), yTop)
	return lay
}

// FinRef ties one fin box to its cell and transistor role.
type FinRef struct {
	Row, Col int
	Role     sram.Role
	Box      geom.AABB
}

// Array is a tiled rows×cols SRAM array.
type Array struct {
	Rows, Cols int
	Cell       CellLayout
	fins       []FinRef
	bounds     geom.AABB
}

// NewArray tiles the cell layout into a rows×cols array. Adjacent cells are
// mirrored across their shared boundaries (standard SRAM abutment), so
// neighbouring sensitive volumes cluster near shared edges — the geometry
// that shapes the MBU statistics.
func NewArray(lay CellLayout, rows, cols int) (*Array, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("layout: need positive array dims, got %d×%d", rows, cols)
	}
	a := &Array{Rows: rows, Cols: cols, Cell: lay}
	a.fins = make([]FinRef, 0, rows*cols*int(sram.NumRoles))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			ox := float64(c) * lay.WidthNm
			oy := float64(r) * lay.HeightNm
			flipX := c%2 == 1
			flipY := r%2 == 1
			for role := sram.Role(0); role < sram.NumRoles; role++ {
				for _, b := range lay.FinBoxes[role] {
					if flipX {
						b = geom.Box(
							geom.V(lay.WidthNm-b.Max.X, b.Min.Y, b.Min.Z),
							geom.V(lay.WidthNm-b.Min.X, b.Max.Y, b.Max.Z),
						)
					}
					if flipY {
						b = geom.Box(
							geom.V(b.Min.X, lay.HeightNm-b.Max.Y, b.Min.Z),
							geom.V(b.Max.X, lay.HeightNm-b.Min.Y, b.Max.Z),
						)
					}
					a.fins = append(a.fins, FinRef{
						Row: r, Col: c, Role: role,
						Box: b.Translate(geom.V(ox, oy, 0)),
					})
				}
			}
		}
	}
	a.bounds = bounds(lay, rows, cols)
	return a, nil
}

// bounds is the bounding volume (cells × fin height) of a rows×cols tiling
// of lay.
func bounds(lay CellLayout, rows, cols int) geom.AABB {
	return geom.Box(
		geom.V(0, 0, 0),
		geom.V(float64(cols)*lay.WidthNm, float64(rows)*lay.HeightNm, lay.FinHeightNm),
	)
}

// Fins returns the flattened fin list; index i here matches the fin index
// reported by the transport layer when given Boxes().
func (a *Array) Fins() []FinRef { return a.fins }

// Boxes returns just the fin boxes, aligned with Fins() indices, for the
// transport layer.
func (a *Array) Boxes() []geom.AABB {
	out := make([]geom.AABB, len(a.fins))
	for i, f := range a.fins {
		out[i] = f.Box
	}
	return out
}

// Bounds returns the array bounding volume (cells × fin height).
func (a *Array) Bounds() geom.AABB { return a.bounds }

// CellIndex maps (row, col) to a dense cell index.
func (a *Array) CellIndex(row, col int) int { return row*a.Cols + col }

// NumCells returns rows×cols.
func (a *Array) NumCells() int { return a.Rows * a.Cols }

// DimsCm returns the array's Lx and Ly in centimetres — the paper's
// Eq. 7/8 area terms.
func (a *Array) DimsCm() (lx, ly float64) { return dimsCm(a.bounds) }

// dimsCm converts an array's bounds to its Lx and Ly in centimetres.
func dimsCm(b geom.AABB) (lx, ly float64) {
	s := b.Size()
	return s.X * 1e-7, s.Y * 1e-7
}

// AreaCm2 returns the die area in cm², Lx·Ly, of a rows×cols tiling of
// lay — the tiled Array's to the bit — without tiling it.
func AreaCm2(lay CellLayout, rows, cols int) (float64, error) {
	if rows <= 0 || cols <= 0 {
		return 0, fmt.Errorf("layout: need positive array dims, got %d×%d", rows, cols)
	}
	lx, ly := dimsCm(bounds(lay, rows, cols))
	return lx * ly, nil
}
