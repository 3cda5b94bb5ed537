package rng

import (
	"math"

	"finser/internal/geom"
)

// IsotropicDirection samples a direction uniformly on the unit sphere.
// Used for alpha emission from package material, which radiates into 4π.
func (s *Source) IsotropicDirection() geom.Vec3 {
	z := 2*s.Float64() - 1
	phi := 2 * math.Pi * s.Float64()
	r := math.Sqrt(math.Max(0, 1-z*z))
	sin, cos := math.Sincos(phi)
	return geom.V(r*cos, r*sin, z)
}

// DownwardIsotropic samples a direction uniformly over the lower hemisphere
// (Z component <= 0), i.e. an isotropic source above the die.
func (s *Source) DownwardIsotropic() geom.Vec3 {
	d := s.IsotropicDirection()
	if d.Z > 0 {
		d.Z = -d.Z
	}
	return d
}

// CosineLawDirection samples the polar angle with the cosine law
// (pdf ∝ cosθ) around -Z, which is the correct incidence distribution for
// an isotropic external flux crossing a horizontal plane — the standard
// choice for atmospheric particles striking a die surface.
func (s *Source) CosineLawDirection() geom.Vec3 {
	// cos²θ uniform ⇒ θ cosine-distributed for flux through a plane.
	cosTheta := math.Sqrt(s.Float64())
	sinTheta := math.Sqrt(math.Max(0, 1-cosTheta*cosTheta))
	phi := 2 * math.Pi * s.Float64()
	sin, cos := math.Sincos(phi)
	return geom.V(sinTheta*cos, sinTheta*sin, -cosTheta)
}

// PointInBox samples a point uniformly inside the box b.
func (s *Source) PointInBox(b geom.AABB) geom.Vec3 {
	return geom.V(
		s.Uniform(b.Min.X, b.Max.X),
		s.Uniform(b.Min.Y, b.Max.Y),
		s.Uniform(b.Min.Z, b.Max.Z),
	)
}

// PointOnTopFace samples a point uniformly on the +Z face of the box.
func (s *Source) PointOnTopFace(b geom.AABB) geom.Vec3 {
	return geom.V(
		s.Uniform(b.Min.X, b.Max.X),
		s.Uniform(b.Min.Y, b.Max.Y),
		b.Max.Z,
	)
}
