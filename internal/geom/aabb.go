package geom

import "math"

// AABB is an axis-aligned box with inclusive bounds Min <= Max, in nm.
// Fins, wells, and array bounding volumes are all axis-aligned boxes in the
// layouts this library models, so the AABB is the only solid primitive the
// transport layer needs.
type AABB struct {
	Min, Max Vec3
}

// Box constructs an AABB from two opposite corners in any order.
func Box(a, b Vec3) AABB {
	return AABB{
		Min: Vec3{math.Min(a.X, b.X), math.Min(a.Y, b.Y), math.Min(a.Z, b.Z)},
		Max: Vec3{math.Max(a.X, b.X), math.Max(a.Y, b.Y), math.Max(a.Z, b.Z)},
	}
}

// BoxAt constructs an AABB from its minimum corner and its size along each
// axis. Sizes must be non-negative.
func BoxAt(min Vec3, size Vec3) AABB {
	return AABB{Min: min, Max: min.Add(size)}
}

// Size returns the box extents along each axis.
func (b AABB) Size() Vec3 { return b.Max.Sub(b.Min) }

// Center returns the box centroid.
func (b AABB) Center() Vec3 { return b.Min.Add(b.Max).Scale(0.5) }

// Volume returns the box volume in nm³.
func (b AABB) Volume() float64 {
	s := b.Size()
	return s.X * s.Y * s.Z
}

// Contains reports whether p lies inside or on the boundary of b.
func (b AABB) Contains(p Vec3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// Union returns the smallest AABB containing both b and c.
func (b AABB) Union(c AABB) AABB {
	return AABB{
		Min: Vec3{math.Min(b.Min.X, c.Min.X), math.Min(b.Min.Y, c.Min.Y), math.Min(b.Min.Z, c.Min.Z)},
		Max: Vec3{math.Max(b.Max.X, c.Max.X), math.Max(b.Max.Y, c.Max.Y), math.Max(b.Max.Z, c.Max.Z)},
	}
}

// Translate returns b shifted by d.
func (b AABB) Translate(d Vec3) AABB {
	return AABB{Min: b.Min.Add(d), Max: b.Max.Add(d)}
}

// Intersect clips the ray r against the box with the slab method, one
// axis at a time (three Slab steps), returning early at the first slab
// that leaves the interval empty. It returns the entry and exit parameters
// tIn <= tOut restricted to t >= 0, and ok=false when the ray misses the
// box (or only touches it behind the origin); tIn and tOut mean nothing
// then. A ray starting inside the box yields tIn == 0.
func (b AABB) Intersect(r Ray) (tIn, tOut float64, ok bool) {
	return b.IntersectInv(r, r.InvDir())
}

// IntersectInv is Intersect for a ray whose InvDir is inv, for a caller
// that clips one ray against several boxes and inverts its direction once.
func (b AABB) IntersectInv(r Ray, inv Vec3) (tIn, tOut float64, ok bool) {
	o, d := r.Origin, r.Dir
	tIn, tOut, ok = Slab(b.Min.X, b.Max.X, o.X, d.X, inv.X, 0, math.Inf(1))
	if ok {
		tIn, tOut, ok = Slab(b.Min.Y, b.Max.Y, o.Y, d.Y, inv.Y, tIn, tOut)
	}
	if ok {
		tIn, tOut, ok = Slab(b.Min.Z, b.Max.Z, o.Z, d.Z, inv.Z, tIn, tOut)
	}
	return tIn, tOut, ok
}

// Slab clips the ray interval [tIn, tOut] to one axis's slab lo <= x <= hi,
// for a ray whose origin and direction along that axis are o and d, with
// inv = 1/d; a caller that clips one ray against many boxes inverts its
// direction once. A ray parallel to the slab (d == 0) keeps the interval
// if its origin lies within the slab. ok is false once the interval is
// empty. Started from [0, +Inf), the interval only narrows, so a
// non-empty one lies at t >= 0.
func Slab(lo, hi, o, d, inv, tIn, tOut float64) (float64, float64, bool) {
	if d == 0 {
		return tIn, tOut, !(o < lo || o > hi)
	}
	t0 := (lo - o) * inv
	t1 := (hi - o) * inv
	if t0 > t1 {
		t0, t1 = t1, t0
	}
	if t0 > tIn {
		tIn = t0
	}
	if t1 < tOut {
		tOut = t1
	}
	return tIn, tOut, tIn <= tOut
}

// ChordLength returns the length of the ray's chord through the box,
// assuming r.Dir is unit length. Zero when the ray misses.
func (b AABB) ChordLength(r Ray) float64 {
	tIn, tOut, ok := b.Intersect(r)
	if !ok {
		return 0
	}
	return tOut - tIn
}
