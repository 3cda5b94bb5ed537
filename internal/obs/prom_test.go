package obs

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestLintExpositionFile lints an exposition scraped from a live server —
// CI's telemetry e2e job curls /metrics?format=prometheus into a file and
// points PROM_LINT_FILE at it. Skipped when the variable is unset.
func TestLintExpositionFile(t *testing.T) {
	path := os.Getenv("PROM_LINT_FILE")
	if path == "" {
		t.Skip("PROM_LINT_FILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := LintExposition(f); err != nil {
		t.Fatalf("scraped exposition fails lint: %v", err)
	}
}

func TestQuantileUniform(t *testing.T) {
	h := NewHistogram(LinearBuckets(10, 10, 10)) // 10, 20, ..., 100
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct {
		q, want, tol float64
	}{
		{0.50, 50, 5},
		{0.95, 95, 5},
		{0.99, 99, 5},
		{0, 1, 1},
		{1, 100, 0},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("Quantile(%g) = %g, want %g ± %g", tc.q, got, tc.want, tc.tol)
		}
	}
}

func TestQuantileClampedToObserved(t *testing.T) {
	// Coarse buckets around a tight distribution: interpolation alone would
	// report values outside [min, max]; the clamp must prevent that.
	h := NewHistogram([]float64{1000})
	h.Observe(41)
	h.Observe(42)
	h.Observe(43)
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := h.Quantile(q)
		if got < 41 || got > 43 {
			t.Errorf("Quantile(%g) = %g, outside observed [41, 43]", q, got)
		}
	}
}

func TestQuantileOverflowReturnsMax(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(5)
	h.Observe(500) // overflow bucket
	if got := h.Quantile(0.99); got != 500 {
		t.Errorf("Quantile(0.99) with overflow rank = %g, want the observed max 500", got)
	}
}

func TestQuantileEmptyAndNil(t *testing.T) {
	var nilH *Histogram
	if !math.IsNaN(nilH.Quantile(0.5)) {
		t.Error("nil histogram Quantile should be NaN")
	}
	if !math.IsNaN(NewHistogram([]float64{1}).Quantile(0.5)) {
		t.Error("empty histogram Quantile should be NaN")
	}
}

func TestSnapshotPercentiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", LinearBuckets(1, 1, 10))
	for v := 1; v <= 10; v++ {
		h.Observe(float64(v))
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.P50 <= 0 || hs.P95 <= 0 || hs.P99 <= 0 {
		t.Fatalf("percentiles not populated: %+v", hs)
	}
	if !(hs.P50 <= hs.P95 && hs.P95 <= hs.P99) {
		t.Fatalf("percentiles not ordered: p50=%g p95=%g p99=%g", hs.P50, hs.P95, hs.P99)
	}
	// Empty histogram: percentiles omitted (zero), never NaN.
	r.Histogram("empty", []float64{1})
	if es := r.Snapshot().Histograms["empty"]; es.P50 != 0 || es.P95 != 0 || es.P99 != 0 {
		t.Fatalf("empty histogram leaked percentiles: %+v", es)
	}
}

// TestWritePrometheusLintClean: the renderer's own output must satisfy the
// exposition linter — the same round-trip the CI telemetry gate runs
// against a live serd.
func TestWritePrometheusLintClean(t *testing.T) {
	r := NewRegistry()
	r.Counter("mc/iterations").Add(12345)
	r.Counter("jobs/shed").Inc()
	r.Gauge("queue/depth").Set(3)
	h := r.Histogram("latency/admission_to_done_seconds", ExpBuckets(0.001, 2, 12))
	for _, v := range []float64{0.002, 0.01, 0.5, 9.9} {
		h.Observe(v)
	}
	sp := r.StartSpan("flow").Child("fit").Child("alpha")
	sp.End()

	var b strings.Builder
	if err := r.WritePrometheus(&b, "finser"); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b.String()
	if err := LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("rendered exposition fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE finser_mc_iterations counter",
		"finser_mc_iterations 12345",
		"# TYPE finser_queue_depth gauge",
		"# TYPE finser_latency_admission_to_done_seconds histogram",
		`finser_latency_admission_to_done_seconds_bucket{le="+Inf"} 4`,
		"finser_latency_admission_to_done_seconds_count 4",
		"# TYPE finser_span_flow_fit_alpha_seconds summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestWritePrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b, "x"); err != nil || b.Len() != 0 {
		t.Fatalf("nil registry wrote %q, err %v", b.String(), err)
	}
}

func TestPromName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"mc/iterations", "finser_mc_iterations"},
		{"latency/admission-to-done.seconds", "finser_latency_admission_to_done_seconds"},
		{"a//b", "finser_a_b"},
		{"trailing/", "finser_trailing"},
	} {
		if got := promName("finser", tc.in); got != tc.want {
			t.Errorf("promName(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// Lint negative cases: each corruption the CI gate must catch.
func TestLintExpositionRejects(t *testing.T) {
	for name, payload := range map[string]string{
		"type without help":   "# TYPE m counter\nm 1\n",
		"sample without type": "m 1\n",
		"duplicate type":      "# HELP m x\n# TYPE m counter\n# TYPE m counter\nm 1\n",
		"non-cumulative buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"le out of order": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n",
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"+Inf disagrees with count": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
		"illegal name":     "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"unparseable line": "# HELP m x\n# TYPE m counter\nm one\n",
	} {
		if err := LintExposition(strings.NewReader(payload)); err == nil {
			t.Errorf("lint accepted corrupt payload %q", name)
		}
	}
}

func TestLintExpositionAcceptsClean(t *testing.T) {
	clean := "# some free comment\n" +
		"# HELP c a counter\n# TYPE c counter\nc 42\n" +
		"# HELP h a histogram\n# TYPE h histogram\n" +
		"h_bucket{le=\"0.5\"} 1\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 4\n" +
		"h_sum 2.5\nh_count 4\n"
	if err := LintExposition(strings.NewReader(clean)); err != nil {
		t.Fatalf("lint rejected clean payload: %v", err)
	}
}
