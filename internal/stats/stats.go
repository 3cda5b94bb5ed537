// Package stats provides the small statistical toolkit the Monte-Carlo
// layers rely on: numerically stable running moments (Welford), binomial
// proportion confidence intervals for POF estimates, and empirical CDFs for
// critical-charge samples.
package stats

import (
	"errors"
	"math"
	"sort"
)

// Welford accumulates a running mean and variance in a numerically stable
// way. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 with no observations).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// StdErr returns the standard error of the mean.
func (w *Welford) StdErr() float64 {
	if w.n == 0 {
		return 0
	}
	return w.StdDev() / math.Sqrt(float64(w.n))
}

// WelfordFromMoments reconstructs an accumulator from externally computed
// moments: n observations with sample mean and m2 = Σ(x−mean)², i.e.
// unbiased variance × (n−1). It is the inverse of (N, Mean, Variance) and
// lets a batch summary — e.g. a POF point's (strikes, mean, stderr) — merge
// into a streaming estimator without replaying the raw observations.
// Non-positive n yields the zero accumulator; a (numerically) negative m2
// is clamped to 0.
func WelfordFromMoments(n int64, mean, m2 float64) Welford {
	if n <= 0 {
		return Welford{}
	}
	if m2 < 0 {
		m2 = 0
	}
	return Welford{n: n, mean: mean, m2: m2}
}

// Merge combines another accumulator into w (parallel reduction).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// WilsonInterval returns the Wilson score interval for a binomial proportion
// with k successes out of n trials at ~95% confidence (z = 1.96). It is the
// recommended interval for POF estimates, which are frequently near 0.
func WilsonInterval(k, n int64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.959963984540054
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}

// ECDF is an empirical cumulative distribution function built from samples.
// Evaluation is O(log n). Used for POF(charge) lookups from per-sample
// critical-charge sets.
type ECDF struct {
	sorted []float64
}

// NewECDF copies and sorts the samples. It returns an error for an empty set.
func NewECDF(samples []float64) (*ECDF, error) {
	if len(samples) == 0 {
		return nil, errors.New("stats: ECDF needs at least one sample")
	}
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}, nil
}

// Eval returns P(X <= x), a step function in [0, 1].
func (e *ECDF) Eval(x float64) float64 {
	i := sort.SearchFloat64s(e.sorted, x)
	// Move past duplicates equal to x (SearchFloat64s finds the first >= x).
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th empirical quantile for q in [0, 1].
func (e *ECDF) Quantile(q float64) float64 {
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	i := int(q * float64(len(e.sorted)))
	if i >= len(e.sorted) {
		i = len(e.sorted) - 1
	}
	return e.sorted[i]
}

// Min returns the smallest sample.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest sample.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }
