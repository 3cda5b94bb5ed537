package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100}
	var w Welford
	var sum float64
	for _, x := range xs {
		w.Add(x)
		sum += x
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	wantVar := ss / float64(len(xs)-1)
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-wantVar) > 1e-9 {
		t.Errorf("variance = %v, want %v", w.Variance(), wantVar)
	}
	if w.N() != int64(len(xs)) {
		t.Errorf("N = %d", w.N())
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.StdErr() != 0 {
		t.Error("zero-value Welford should report zeros")
	}
}

func TestWelfordMerge(t *testing.T) {
	f := func(a, b []float64) bool {
		if len(a) == 0 && len(b) == 0 {
			return true
		}
		var wa, wb, wall Welford
		for _, x := range a {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			x = math.Mod(x, 1e6)
			wa.Add(x)
			wall.Add(x)
		}
		for _, x := range b {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
			x = math.Mod(x, 1e6)
			wb.Add(x)
			wall.Add(x)
		}
		wa.Merge(wb)
		return wa.N() == wall.N() &&
			math.Abs(wa.Mean()-wall.Mean()) < 1e-6*(1+math.Abs(wall.Mean())) &&
			math.Abs(wa.Variance()-wall.Variance()) < 1e-6*(1+wall.Variance())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Errorf("no-data interval = [%v, %v]", lo, hi)
	}
	lo, hi = WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%v,%v] should contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval too wide: [%v,%v]", lo, hi)
	}
	lo, hi = WilsonInterval(0, 1000)
	if lo != 0 {
		t.Errorf("zero successes should give lo=0, got %v", lo)
	}
	if hi < 1e-4 || hi > 0.02 {
		t.Errorf("rare-event upper bound implausible: %v", hi)
	}
	// Interval is within [0,1] for arbitrary inputs.
	f := func(k, n uint16) bool {
		kk, nn := int64(k%1000), int64(n%1000)+1
		if kk > nn {
			kk = nn
		}
		lo, hi := WilsonInterval(kk, nn)
		return lo >= 0 && hi <= 1 && lo <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestECDF(t *testing.T) {
	e, err := NewECDF([]float64{3, 1, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		x    float64
		want float64
	}{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := e.Eval(c.x); got != c.want {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Min() != 1 || e.Max() != 3 || e.N() != 4 {
		t.Errorf("min/max/n = %v/%v/%v", e.Min(), e.Max(), e.N())
	}
}

func TestECDFEmpty(t *testing.T) {
	if _, err := NewECDF(nil); err == nil {
		t.Error("expected error for empty sample set")
	}
}

func TestECDFQuantile(t *testing.T) {
	e, _ := NewECDF([]float64{10, 20, 30, 40})
	if q := e.Quantile(0); q != 10 {
		t.Errorf("Quantile(0) = %v", q)
	}
	if q := e.Quantile(1); q != 40 {
		t.Errorf("Quantile(1) = %v", q)
	}
	if q := e.Quantile(0.5); q != 30 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
}

// Property: ECDF is monotone non-decreasing and bounded in [0,1].
func TestECDFMonotone(t *testing.T) {
	f := func(samples []float64, probes []float64) bool {
		clean := samples[:0]
		for _, s := range samples {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				clean = append(clean, s)
			}
		}
		if len(clean) == 0 {
			return true
		}
		e, err := NewECDF(clean)
		if err != nil {
			return false
		}
		prev := -1.0
		// Probe at sorted positions.
		for _, p := range probes {
			if math.IsNaN(p) {
				continue
			}
			v := e.Eval(p)
			if v < 0 || v > 1 {
				return false
			}
			_ = prev
		}
		// Explicit monotonicity on a grid.
		lo, hi := e.Min()-1, e.Max()+1
		prev = 0
		for i := 0; i <= 20; i++ {
			x := lo + (hi-lo)*float64(i)/20
			v := e.Eval(x)
			if v < prev-1e-15 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
