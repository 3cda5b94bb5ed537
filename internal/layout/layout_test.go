package layout

import (
	"testing"

	"finser/internal/finfet"
	"finser/internal/geom"
	"finser/internal/sram"
)

func lay() CellLayout { return ThinCellLayout(finfet.Default14nmSOI()) }

func TestThinCellDimensions(t *testing.T) {
	l := lay()
	tech := finfet.Default14nmSOI()
	if l.WidthNm != 4*tech.FinPitchNm {
		t.Errorf("cell width = %v", l.WidthNm)
	}
	if l.HeightNm != 2*tech.GatePitchNm {
		t.Errorf("cell height = %v", l.HeightNm)
	}
	// Every fin box sits inside the cell and spans the full fin height.
	cell := geom.Box(geom.V(0, 0, 0), geom.V(l.WidthNm, l.HeightNm, l.FinHeightNm))
	for role := sram.Role(0); role < sram.NumRoles; role++ {
		if len(l.FinBoxes[role]) != 1 {
			t.Fatalf("%v: default cell should have one fin, got %d", role, len(l.FinBoxes[role]))
		}
		for _, b := range l.FinBoxes[role] {
			if !cell.Contains(b.Min) || !cell.Contains(b.Max) {
				t.Errorf("%v box %+v outside cell", role, b)
			}
			s := b.Size()
			if s.X != tech.FinWidthNm || s.Y != tech.GateLengthNm || s.Z != tech.FinHeightNm {
				t.Errorf("%v box size = %v", role, s)
			}
		}
	}
}

func TestThinCellNoOverlap(t *testing.T) {
	l := lay()
	var all []geom.AABB
	for a := sram.Role(0); a < sram.NumRoles; a++ {
		all = append(all, l.FinBoxes[a]...)
	}
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			ba, bb := all[i], all[j]
			overlapX := ba.Min.X < bb.Max.X && bb.Min.X < ba.Max.X
			overlapY := ba.Min.Y < bb.Max.Y && bb.Min.Y < ba.Max.Y
			if overlapX && overlapY {
				t.Errorf("fin boxes %d and %d overlap", i, j)
			}
		}
	}
}

func TestThinCellRotationalSymmetry(t *testing.T) {
	// PG_L at the bottom, PG_R at the top (180° symmetry of the thin cell).
	l := lay()
	if l.FinBoxes[sram.PGL][0].Center().Y >= l.FinBoxes[sram.PDL][0].Center().Y {
		t.Error("PG_L should sit below the inner row")
	}
	if l.FinBoxes[sram.PGR][0].Center().Y <= l.FinBoxes[sram.PDR][0].Center().Y {
		t.Error("PG_R should sit above the inner row")
	}
	// PU pair in the middle columns.
	if l.FinBoxes[sram.PUL][0].Center().X >= l.FinBoxes[sram.PUR][0].Center().X {
		t.Error("PU_L should be left of PU_R")
	}
	if l.FinBoxes[sram.PDL][0].Center().X >= l.FinBoxes[sram.PUL][0].Center().X {
		t.Error("PD_L should be left of PU_L")
	}
}

func TestNewArrayValidation(t *testing.T) {
	if _, err := NewArray(lay(), 0, 5); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := NewArray(lay(), 5, -1); err == nil {
		t.Error("negative cols accepted")
	}
}

func TestArrayFinCount(t *testing.T) {
	a, err := NewArray(lay(), 9, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Fins()); got != 9*9*6 {
		t.Errorf("fin count = %d, want 486", got)
	}
	if a.NumCells() != 81 {
		t.Errorf("NumCells = %d", a.NumCells())
	}
	if len(a.Boxes()) != len(a.Fins()) {
		t.Error("Boxes/Fins length mismatch")
	}
}

func TestArrayFinsInsideBounds(t *testing.T) {
	a, _ := NewArray(lay(), 3, 4)
	bounds := a.Bounds()
	for _, f := range a.Fins() {
		if !bounds.Contains(f.Box.Min) || !bounds.Contains(f.Box.Max) {
			t.Fatalf("fin %+v outside array bounds", f)
		}
	}
}

func TestArrayMirroring(t *testing.T) {
	a, _ := NewArray(lay(), 2, 2)
	find := func(r, c int, role sram.Role) geom.AABB {
		for _, f := range a.Fins() {
			if f.Row == r && f.Col == c && f.Role == role {
				return f.Box
			}
		}
		t.Fatalf("fin (%d,%d,%v) not found", r, c, role)
		return geom.AABB{}
	}
	w := lay().WidthNm
	// Cell (0,1) is X-mirrored: its PD_L box must be the mirror of cell
	// (0,0)'s about the shared boundary x = w.
	b00 := find(0, 0, sram.PDL)
	b01 := find(0, 1, sram.PDL)
	wantMinX := w + (w - b00.Max.X)
	if diff := b01.Min.X - wantMinX; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("X mirror wrong: got %v, want %v", b01.Min.X, wantMinX)
	}
	if b01.Min.Y != b00.Min.Y {
		t.Error("X mirror should not change Y")
	}
	// Cell (1,0) is Y-mirrored.
	h := lay().HeightNm
	b10 := find(1, 0, sram.PGL)
	wantMinY := h + (h - find(0, 0, sram.PGL).Max.Y)
	if diff := b10.Min.Y - wantMinY; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("Y mirror wrong: got %v, want %v", b10.Min.Y, wantMinY)
	}
}

func TestArrayNoCrossCellOverlap(t *testing.T) {
	a, _ := NewArray(lay(), 3, 3)
	fins := a.Fins()
	for i := 0; i < len(fins); i++ {
		for j := i + 1; j < len(fins); j++ {
			bi, bj := fins[i].Box, fins[j].Box
			if bi.Min.X < bj.Max.X && bj.Min.X < bi.Max.X &&
				bi.Min.Y < bj.Max.Y && bj.Min.Y < bi.Max.Y {
				t.Fatalf("fins %d and %d overlap: %+v vs %+v", i, j, fins[i], fins[j])
			}
		}
	}
}

func TestDimsCm(t *testing.T) {
	a, _ := NewArray(lay(), 9, 9)
	lx, ly := a.DimsCm()
	// 9 × 192 nm = 1728 nm = 1.728e-4 cm; 9 × 180 nm = 1620 nm.
	if lx < 1.7e-4 || lx > 1.8e-4 {
		t.Errorf("lx = %v cm", lx)
	}
	if ly < 1.6e-4 || ly > 1.7e-4 {
		t.Errorf("ly = %v cm", ly)
	}
}

// TestAreaCm2MatchesTiledArray: the area planned without tiling is the
// tiled array's Lx·Ly to the bit, and it refuses the dims NewArray does.
func TestAreaCm2MatchesTiledArray(t *testing.T) {
	for _, d := range [][2]int{{9, 9}, {1, 1}, {4, 7}, {32, 3}} {
		a, err := NewArray(lay(), d[0], d[1])
		if err != nil {
			t.Fatal(err)
		}
		lx, ly := a.DimsCm()
		if got, err := AreaCm2(lay(), d[0], d[1]); err != nil || got != lx*ly {
			t.Errorf("%d×%d: AreaCm2 = %v (err %v), tiled array %v", d[0], d[1], got, err, lx*ly)
		}
	}
	if _, err := AreaCm2(lay(), 0, 5); err == nil {
		t.Error("zero rows accepted")
	}
}

func TestGrazingTrackCrossesManyCells(t *testing.T) {
	// The MBU mechanism: a shallow track along the array must intersect
	// sensitive volumes in more than one cell.
	a, _ := NewArray(lay(), 9, 9)
	l := lay()
	// Travel along +X at the inner-row height of row 0 cells.
	y := l.FinBoxes[sram.PDL][0].Center().Y
	ray := geom.Ray{Origin: geom.V(-10, y, 15), Dir: geom.V(1, 0, 0)}
	cells := map[int]bool{}
	for _, f := range a.Fins() {
		if _, _, ok := f.Box.Intersect(ray); ok {
			cells[a.CellIndex(f.Row, f.Col)] = true
		}
	}
	if len(cells) < 3 {
		t.Errorf("grazing track crossed only %d cells", len(cells))
	}
}

func TestMultiFinLayout(t *testing.T) {
	tech := finfet.Default14nmSOI()
	tech.FinsPD = 2
	tech.FinsPG = 2
	l := ThinCellLayout(tech)
	// Cell widens by one pitch on each side.
	if l.WidthNm != 6*tech.FinPitchNm {
		t.Errorf("2-fin cell width = %v, want %v", l.WidthNm, 6*tech.FinPitchNm)
	}
	if len(l.FinBoxes[sram.PDL]) != 2 || len(l.FinBoxes[sram.PGR]) != 2 {
		t.Fatalf("PD/PG fin counts wrong: %d, %d",
			len(l.FinBoxes[sram.PDL]), len(l.FinBoxes[sram.PGR]))
	}
	if len(l.FinBoxes[sram.PUL]) != 1 {
		t.Fatalf("PU fin count = %d", len(l.FinBoxes[sram.PUL]))
	}
	// Adjacent fins of one transistor sit at fin pitch.
	d := l.FinBoxes[sram.PDL][1].Center().X - l.FinBoxes[sram.PDL][0].Center().X
	if d != tech.FinPitchNm {
		t.Errorf("fin spacing = %v, want pitch %v", d, tech.FinPitchNm)
	}
	// Array carries the extra fins and still avoids overlap.
	a, err := NewArray(l, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(a.Fins()); got != 3*3*(2+2+1)*2 {
		t.Errorf("multi-fin array fin count = %d, want 90", got)
	}
	fins := a.Fins()
	for i := 0; i < len(fins); i++ {
		for j := i + 1; j < len(fins); j++ {
			bi, bj := fins[i].Box, fins[j].Box
			if bi.Min.X < bj.Max.X && bj.Min.X < bi.Max.X &&
				bi.Min.Y < bj.Max.Y && bj.Min.Y < bi.Max.Y {
				t.Fatalf("multi-fin fins %d and %d overlap", i, j)
			}
		}
	}
}
