package transport

import (
	"testing"

	"finser/internal/geom"
	"finser/internal/phys"
	"finser/internal/rng"
)

// BenchmarkTraceSingleFin times one track through one fin with full
// fluctuation physics — the inner loop of the device level — narrow phase
// included, on reused buffers.
func BenchmarkTraceSingleFin(b *testing.B) {
	cfg := DefaultConfig()
	fin := geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30))
	fins := []geom.AABB{fin}
	ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
	src := rng.New(1)
	idx := []int{0}
	var hits []Crossing
	var deps []Deposit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = Crossings(ray, fins, idx, hits[:0])
		deps = TraceAppend(cfg, phys.Alpha, 1, hits, src, deps[:0])
	}
}

// BenchmarkTraceArraySweep times a grazing track across 100 fins.
func BenchmarkTraceArraySweep(b *testing.B) {
	cfg := DefaultConfig()
	fins := make([]geom.AABB, 0, 100)
	idx := make([]int, 0, 100)
	for i := 0; i < 100; i++ {
		fins = append(fins, geom.BoxAt(geom.V(float64(i)*48, 0, 0), geom.V(10, 20, 30)))
		idx = append(idx, i)
	}
	ray := geom.Ray{Origin: geom.V(-5, 10, 15), Dir: geom.V(1, 0, 0)}
	src := rng.New(1)
	var hits []Crossing
	var deps []Deposit
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = Crossings(ray, fins, idx, hits[:0])
		deps = TraceAppend(cfg, phys.Alpha, 8, hits, src, deps[:0])
	}
}

// BenchmarkSecantSampling times the flux-uniform chord sampler.
func BenchmarkSecantSampling(b *testing.B) {
	fin := geom.BoxAt(geom.V(0, 0, 0), geom.V(10, 20, 30))
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SecantThroughBox(src, fin)
	}
}
