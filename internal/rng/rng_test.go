package rng

import (
	"math"
	"testing"
	"testing/quick"

	"finser/internal/geom"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestForkReproducible(t *testing.T) {
	p1, p2 := New(7), New(7)
	c1, c2 := p1.Fork(), p2.Fork()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("forked substreams are not reproducible")
		}
	}
}

func TestForkIndependence(t *testing.T) {
	p := New(7)
	// Crude independence check: no two children share their first draw.
	first := map[uint64]int{}
	for i := 0; i < 4; i++ {
		v := p.Fork().Uint64()
		if j, dup := first[v]; dup {
			t.Fatalf("children %d and %d share first draw", i, j)
		}
		first[v] = i
	}
}

// TestResetKeyedStreams: the streams keyed by consecutive trial indices
// start on distinct, uniform, serially uncorrelated draws; a reset stream
// replays its key's stream exactly (cached normal variate included); and
// resetting allocates nothing.
func TestResetKeyedStreams(t *testing.T) {
	const n = 1 << 20
	var s Source
	first := make(map[uint64]uint64, n)
	var buckets [64]float64
	var prev, sum, sum2, lag float64
	for i := uint64(0); i < n; i++ {
		s.Reset(7, i)
		v := s.Uint64()
		if j, dup := first[v]; dup {
			t.Fatalf("keys %d and %d share their first draw", j, i)
		}
		first[v] = i
		buckets[v>>58]++
		x := float64(v>>11) / (1 << 53)
		sum += x
		sum2 += x * x
		lag += prev * x
		prev = x
	}
	chi2 := 0.0
	for _, c := range buckets {
		chi2 += (c - n/64) * (c - n/64) / (n / 64)
	}
	if chi2 > 103.4 { // 63 degrees of freedom, p = 0.001
		t.Errorf("first draws over %d keys: 64-bucket chi2 = %.1f", n, chi2)
	}
	mean := sum / n
	if r := (lag/(n-1) - mean*mean) / (sum2/n - mean*mean); math.Abs(r) > 3/math.Sqrt(n) {
		t.Errorf("first draws of consecutive keys: lag-1 correlation %.5f", r)
	}

	var a, b Source
	a.Reset(7, 12345)
	a.Normal() // leaves a cached spare that Reset must drop
	a.Reset(7, 12345)
	b.Reset(7, 12345)
	for i := 0; i < 100; i++ {
		if x, y := a.Normal(), b.Normal(); x != y {
			t.Fatalf("reset stream diverged at draw %d: %v vs %v", i, x, y)
		}
	}
	a.Reset(8, 12345)
	b.Reset(7, 12345)
	if a.Uint64() == b.Uint64() {
		t.Error("seeds 7 and 8 share the first draw of key 12345")
	}

	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset(7, 99)
		s.Float64()
	}); allocs != 0 {
		t.Errorf("Reset allocates %v per call", allocs)
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniformMoments(t *testing.T) {
	s := New(3)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("uniform mean = %v", mean)
	}
	if math.Abs(varr-1.0/12) > 0.005 {
		t.Errorf("uniform variance = %v", varr)
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := s.Normal()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	varr := sum2/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v", mean)
	}
	if math.Abs(varr-1) > 0.02 {
		t.Errorf("normal variance = %v", varr)
	}
}

func TestNormalAt(t *testing.T) {
	s := New(5)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.NormalAt(0.3, 0.03)
	}
	if mean := sum / n; math.Abs(mean-0.3) > 0.002 {
		t.Errorf("NormalAt mean = %v", mean)
	}
}

func TestExponentialMean(t *testing.T) {
	s := New(9)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += s.Exponential(2)
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("exponential mean = %v", mean)
	}
}

func TestExponentialPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on non-positive rate")
		}
	}()
	New(1).Exponential(0)
}

func TestPoissonMean(t *testing.T) {
	s := New(13)
	for _, mean := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Poisson(mean))
		}
		got := sum / n
		if math.Abs(got-mean) > 0.05*mean+0.05 {
			t.Errorf("Poisson(%v) mean = %v", mean, got)
		}
	}
	if got := s.Poisson(-1); got != 0 {
		t.Errorf("Poisson(-1) = %d", got)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(17)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		counts[s.Intn(7)]++
	}
	for d, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn digit %d count %d outside [9000,11000]", d, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestIsotropicDirectionUnit(t *testing.T) {
	s := New(23)
	var zsum float64
	for i := 0; i < 50000; i++ {
		d := s.IsotropicDirection()
		if math.Abs(d.Norm()-1) > 1e-9 {
			t.Fatalf("direction not unit: %v", d)
		}
		zsum += d.Z
	}
	if math.Abs(zsum/50000) > 0.01 {
		t.Errorf("isotropic z mean = %v, want ~0", zsum/50000)
	}
}

func TestDownwardIsotropic(t *testing.T) {
	s := New(29)
	for i := 0; i < 10000; i++ {
		if d := s.DownwardIsotropic(); d.Z > 0 {
			t.Fatalf("downward direction has positive Z: %v", d)
		}
	}
}

func TestCosineLawDirection(t *testing.T) {
	s := New(31)
	var cossum float64
	const n = 100000
	for i := 0; i < n; i++ {
		d := s.CosineLawDirection()
		if math.Abs(d.Norm()-1) > 1e-9 {
			t.Fatalf("not unit: %v", d)
		}
		if d.Z > 0 {
			t.Fatalf("cosine-law direction points up: %v", d)
		}
		cossum += -d.Z
	}
	// E[cosθ] under pdf 2cosθsinθ is 2/3.
	if mean := cossum / n; math.Abs(mean-2.0/3) > 0.005 {
		t.Errorf("cosine-law E[cosθ] = %v, want 2/3", mean)
	}
}

// TestDirectionsMatchSinCos: the direction samplers take an azimuth's sine
// and cosine from one math.Sincos, which must return, bit for bit, what
// separate math.Sin and math.Cos calls return for every azimuth drawn; a
// moved bit would move the track of every strike that drew it.
func TestDirectionsMatchSinCos(t *testing.T) {
	const n = 1 << 20
	same := func(a, b geom.Vec3) bool {
		return math.Float64bits(a.X) == math.Float64bits(b.X) &&
			math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
			math.Float64bits(a.Z) == math.Float64bits(b.Z)
	}
	s := New(41)
	for i := 0; i < n; i++ {
		ref := *s
		got := s.IsotropicDirection()
		z := 2*ref.Float64() - 1
		phi := 2 * math.Pi * ref.Float64()
		r := math.Sqrt(math.Max(0, 1-z*z))
		if want := geom.V(r*math.Cos(phi), r*math.Sin(phi), z); !same(got, want) {
			t.Fatalf("draw %d: IsotropicDirection = %v, Sin/Cos give %v", i, got, want)
		}

		ref = *s
		got = s.CosineLawDirection()
		cosTheta := math.Sqrt(ref.Float64())
		sinTheta := math.Sqrt(math.Max(0, 1-cosTheta*cosTheta))
		phi = 2 * math.Pi * ref.Float64()
		if want := geom.V(sinTheta*math.Cos(phi), sinTheta*math.Sin(phi), -cosTheta); !same(got, want) {
			t.Fatalf("draw %d: CosineLawDirection = %v, Sin/Cos give %v", i, got, want)
		}
	}
}

func TestPointSamplers(t *testing.T) {
	s := New(37)
	b := boxForTest()
	for i := 0; i < 10000; i++ {
		if p := s.PointInBox(b); !b.Contains(p) {
			t.Fatalf("PointInBox escaped: %v", p)
		}
		p := s.PointOnTopFace(b)
		if p.Z != b.Max.Z || p.X < b.Min.X || p.X >= b.Max.X {
			t.Fatalf("PointOnTopFace wrong: %v", p)
		}
	}
}
