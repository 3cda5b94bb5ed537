// Package obs is the flow's dependency-free observability layer: atomic
// counters, gauges and fixed-bucket histograms with a lock-free hot path,
// hierarchical named stage spans (wall time per pipeline phase), and a
// progress-callback tracker carrying done/total/ETA. Everything hangs off a
// Registry that snapshots to JSON and can publish itself through stdlib
// expvar.
//
// Every type follows the nil-receiver no-op pattern: a nil *Counter,
// *Gauge, *Histogram, *Span, *Tracker or *Registry accepts all of its
// method calls and does nothing, so instrumented code needs no "is
// observability on?" branches and pays nothing when it is off.
package obs

import (
	"math"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically settable float64 value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax stores v only if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the stored value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram with an entirely lock-free Observe
// path. Bucket i counts observations v ≤ Bounds[i]; values above the last
// bound land in the overflow bucket. Sum, min and max are tracked with CAS
// loops on float bits.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is overflow
	count   atomic.Int64
	sumBits atomic.Uint64
	minBits atomic.Uint64 // +Inf initially
	maxBits atomic.Uint64 // -Inf initially
}

// NewHistogram builds a histogram over the given strictly increasing upper
// bounds. Use LinearBuckets or ExpBuckets for the common layouts.
func NewHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start·factor, start·factor², ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n observations of v in one batch, for a caller that
// tallies its observations in plain integers and adds them once. The sum
// gains v·n in one addition, which is bit for bit n additions of v
// whenever those are exact, as they are for the integer values a count
// observes. No-op on a nil receiver or for n ≤ 0.
func (h *Histogram) ObserveN(v float64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	// Buckets are few (≤ ~30); linear scan beats binary search overhead.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(n)
	h.count.Add(n)
	atomicAddFloat(&h.sumBits, v*float64(n))
	atomicMinFloat(&h.minBits, v)
	atomicMaxFloat(&h.maxBits, v)
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed
// distribution by linear interpolation within the bucket containing the
// target rank — the same estimator Prometheus' histogram_quantile applies
// server-side, so the JSON snapshot and a scraped dashboard agree. The
// first bucket interpolates up from the observed minimum, ranks landing in
// the overflow bucket return the observed maximum, and the result is
// clamped to [min, max] so a coarse bucket layout can never report a value
// outside the data. Returns NaN when empty (or on a nil receiver); callers
// serializing to JSON must skip it.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return math.NaN()
	}
	n := h.count.Load()
	if n == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	min := floatFromBits(&h.minBits)
	max := floatFromBits(&h.maxBits)
	rank := q * float64(n)
	cum := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 || float64(cum+c) < rank {
			cum += c
			continue
		}
		if i == len(h.bounds) {
			return max // overflow bucket: the best bound we have is the max
		}
		lo := min
		if i > 0 {
			lo = h.bounds[i-1]
			if lo < min {
				lo = min
			}
		}
		hi := h.bounds[i]
		v := lo
		if c > 0 {
			v = lo + (hi-lo)*(rank-float64(cum))/float64(c)
		}
		if v < min {
			v = min
		}
		if v > max {
			v = max
		}
		return v
	}
	return max
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

func floatFromBits(bits *atomic.Uint64) float64 {
	return math.Float64frombits(bits.Load())
}

func atomicAddFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

func atomicMinFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) <= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

func atomicMaxFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
