// Package geom provides the small 3-D vector and solid geometry kernel used
// by the particle-transport and layout analysis layers: vectors, rays,
// axis-aligned boxes, and ray clipping. All lengths are in nanometres.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a 3-D vector or point in nanometres.
type Vec3 struct {
	X, Y, Z float64
}

// V is shorthand for constructing a Vec3.
func V(x, y, z float64) Vec3 { return Vec3{x, y, z} }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v × w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Unit returns v scaled to unit length. It panics on the zero vector,
// which would indicate a logic error in direction sampling.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		panic("geom: Unit of zero vector")
	}
	return v.Scale(1 / n)
}

// IsFinite reports whether all components are finite numbers.
func (v Vec3) IsFinite() bool {
	return !math.IsNaN(v.X) && !math.IsInf(v.X, 0) &&
		!math.IsNaN(v.Y) && !math.IsInf(v.Y, 0) &&
		!math.IsNaN(v.Z) && !math.IsInf(v.Z, 0)
}

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Ray is a parametric half-line p(t) = Origin + t*Dir for t >= 0.
// Dir need not be unit length, but the transport layer keeps it normalized
// so that t is a path length in nanometres.
type Ray struct {
	Origin Vec3
	Dir    Vec3
}

// At returns the point at parameter t along the ray.
func (r Ray) At(t float64) Vec3 { return r.Origin.Add(r.Dir.Scale(t)) }

// InvDir returns the reciprocals of the ray's direction components, the
// form Slab takes.
func (r Ray) InvDir() Vec3 { return Vec3{1 / r.Dir.X, 1 / r.Dir.Y, 1 / r.Dir.Z} }
