// Package rng provides the deterministic pseudo-random machinery used by
// every Monte-Carlo stage of the SER flow: a small, fast 64-bit generator
// with reproducible substreams (keyed by a trial index, so a trial's draws
// do not depend on which worker runs it or what ran before it), plus the
// variate and direction samplers the transport and characterization layers
// need.
//
// The generator is SplitMix64 followed by an xorshift* scramble — adequate
// statistical quality for radiation-transport MC, tiny state, and trivially
// forkable. math/rand is deliberately not used so that substreams are
// explicit and stable across Go releases.
package rng

import "math"

// Source is a deterministic stream of pseudo-random numbers.
// The zero value is NOT usable; construct with New or Fork, or Reset it.
type Source struct {
	state uint64
	gamma uint64 // odd increment; distinct gammas give distinct streams

	spare     float64 // cached second Box–Muller variate
	haveSpare bool
}

const goldenGamma = 0x9E3779B97F4A7C15

// New returns a Source seeded with seed, using the canonical stream.
func New(seed uint64) *Source {
	return &Source{state: mix(seed), gamma: goldenGamma}
}

// Fork derives an independent substream from s. Forked streams are
// reproducible: forking the same parent in the same order always yields the
// same children. The child's increment is derived from the parent draw and
// forced odd so the underlying Weyl sequence is full-period.
func (s *Source) Fork() *Source {
	st := s.Uint64()
	g := mixGamma(s.Uint64())
	return &Source{state: st, gamma: g}
}

// Reset rewinds s in place to the start of the substream keyed by (seed,
// key). The stream is a pure function of the pair, so trial key of a
// Monte-Carlo estimate draws the same numbers whichever worker runs it and
// in whatever order; resetting a worker-owned value allocates nothing.
func (s *Source) Reset(seed, key uint64) {
	*s = Source{state: mix(seed ^ mix(key+goldenGamma)), gamma: goldenGamma}
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func mixGamma(z uint64) uint64 {
	z = mix(z) | 1 // must be odd
	// Avoid weak gammas with too-regular bit patterns (per SplitMix64 paper).
	if popcount(z^(z>>1)) < 24 {
		z ^= 0xAAAAAAAAAAAAAAAA
	}
	return z
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	s.state += s.gamma
	return mix(s.state)
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Multiply-shift rejection-free mapping; bias is negligible for n << 2^64.
	return int(s.Uint64() % uint64(n))
}

// Normal returns a standard normal variate (polar Box–Muller, cached pair).
func (s *Source) Normal() float64 {
	if s.haveSpare {
		s.haveSpare = false
		return s.spare
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		r2 := u*u + v*v
		if r2 >= 1 || r2 == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(r2) / r2)
		s.spare = v * f
		s.haveSpare = true
		return u * f
	}
}

// NormalAt returns a normal variate with the given mean and standard
// deviation.
func (s *Source) NormalAt(mean, sigma float64) float64 {
	return mean + sigma*s.Normal()
}

// Exponential returns an exponential variate with the given rate lambda.
func (s *Source) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exponential with non-positive rate")
	}
	u := s.Float64()
	// 1-u is in (0,1], keeping Log finite.
	return -math.Log(1-u) / lambda
}

// Poisson returns a Poisson variate with the given mean. For large means it
// uses a normal approximation, which is ample for e-h pair-count statistics.
func (s *Source) Poisson(mean float64) int64 {
	switch {
	case mean <= 0:
		return 0
	case mean < 30:
		l := math.Exp(-mean)
		var k int64
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	default:
		v := math.Round(s.NormalAt(mean, math.Sqrt(mean)))
		if v < 0 {
			return 0
		}
		return int64(v)
	}
}
