package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrent hammers one counter from many goroutines; the total
// must be exact (run under -race in CI).
func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits")
	const workers, per = 16, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	// Same name returns the same counter.
	if r.Counter("hits") != c {
		t.Fatal("Counter not idempotent per name")
	}
}

// TestHistogramConcurrent checks bucket totals, sum, min and max under
// concurrent observation.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LinearBuckets(1, 1, 4)) // ≤1, ≤2, ≤3, ≤4, overflow
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, v := range []float64{0.5, 1.5, 2.5, 3.5, 9} {
				h.Observe(v)
			}
		}()
	}
	wg.Wait()
	if h.Count() != workers*5 {
		t.Fatalf("count = %d, want %d", h.Count(), workers*5)
	}
	wantSum := float64(workers) * (0.5 + 1.5 + 2.5 + 3.5 + 9)
	if math.Abs(h.Sum()-wantSum) > 1e-9 {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
	hs := snapshotHistogram(h)
	for i, want := range []int64{workers, workers, workers, workers} {
		if hs.Buckets[i].Count != want {
			t.Fatalf("bucket %d = %d, want %d", i, hs.Buckets[i].Count, want)
		}
	}
	if hs.Overflow != workers {
		t.Fatalf("overflow = %d, want %d", hs.Overflow, workers)
	}
	if hs.Min != 0.5 || hs.Max != 9 {
		t.Fatalf("min/max = %g/%g, want 0.5/9", hs.Min, hs.Max)
	}
}

// TestHistogramObserveN: a batch of n integer-valued observations leaves
// the histogram bit for bit as n single observations would, in any order,
// and n ≤ 0 records nothing.
func TestHistogramObserveN(t *testing.T) {
	one, batch := NewHistogram(LinearBuckets(1, 1, 8)), NewHistogram(LinearBuckets(1, 1, 8))
	tally := map[float64]int64{1: 70001, 2: 9000, 3: 811, 5: 7, 9: 2, 14: 1}
	for v, n := range tally {
		for i := int64(0); i < n; i++ {
			one.Observe(v)
		}
		batch.ObserveN(v, n)
	}
	batch.ObserveN(100, 0)
	batch.ObserveN(-100, -3)
	if a, b := snapshotHistogram(one), snapshotHistogram(batch); !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveN = %+v, want %+v", b, a)
	}
	var nilHist *Histogram
	nilHist.ObserveN(1, 5)
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("util")
	g.Set(0.5)
	g.SetMax(0.25) // lower: ignored
	if g.Value() != 0.5 {
		t.Fatalf("gauge = %g, want 0.5", g.Value())
	}
	g.SetMax(0.75)
	if g.Value() != 0.75 {
		t.Fatalf("gauge = %g, want 0.75", g.Value())
	}
}

// TestSpanNesting checks hierarchical paths and repeated-span aggregation.
func TestSpanNesting(t *testing.T) {
	r := NewRegistry()
	flow := r.StartSpan("flow")
	for i := 0; i < 3; i++ {
		bin := flow.Child("fit").Child("bin")
		time.Sleep(time.Millisecond)
		bin.End()
	}
	flow.End()
	flow.End() // second End must not double-record

	s := r.Snapshot()
	byPath := map[string]SpanSnapshot{}
	for _, sp := range s.Spans {
		byPath[sp.Path] = sp
	}
	if got := byPath["flow"].Count; got != 1 {
		t.Fatalf("flow count = %d, want 1", got)
	}
	bin, ok := byPath["flow/fit/bin"]
	if !ok {
		t.Fatalf("missing nested span path, have %v", byPath)
	}
	if bin.Count != 3 {
		t.Fatalf("bin count = %d, want 3", bin.Count)
	}
	if bin.TotalSeconds <= 0 || bin.MinSeconds <= 0 || bin.MaxSeconds < bin.MinSeconds {
		t.Fatalf("bad span stats: %+v", bin)
	}
	if byPath["flow"].TotalSeconds < bin.TotalSeconds {
		t.Fatal("parent span shorter than nested children")
	}
}

// TestNilNoOp exercises every nil-receiver path: none may panic, and all
// reads return zero values.
func TestNilNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter not zero")
	}
	g := r.Gauge("x")
	g.Set(1)
	g.SetMax(2)
	if g.Value() != 0 {
		t.Fatal("nil gauge not zero")
	}
	h := r.Histogram("x", LinearBuckets(0, 1, 3))
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram not zero")
	}
	sp := r.StartSpan("x")
	sp.Child("y").End()
	sp.End()
	if sp.Path() != "" {
		t.Fatal("nil span has a path")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
	if err := r.WriteJSON(nil); err != nil {
		t.Fatal(err)
	}
	r.PublishExpvar("nil-registry")

	var tr *Tracker
	tr.Add(1)
	tr.Finish()
	if NewTracker(nil, "s", 10, 0) != nil {
		t.Fatal("tracker with nil fn should be nil")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("core.particles").Add(42)
	r.Gauge("core.util").Set(0.9)
	r.Histogram("core.multiplicity", LinearBuckets(1, 1, 3)).Observe(2)
	sp := r.StartSpan("flow")
	sp.Child("characterize").End()
	sp.End()

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, buf.String())
	}
	if round.Counters["core.particles"] != 42 {
		t.Fatalf("counter lost in round trip: %+v", round.Counters)
	}
	if round.Histograms["core.multiplicity"].Count != 1 {
		t.Fatalf("histogram lost in round trip")
	}
	if len(round.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(round.Spans))
	}
	// First-seen order: parent started before child, but child *ended*
	// first; order must follow first start.
	if round.Spans[0].Path != "flow/characterize" && round.Spans[0].Path != "flow" {
		t.Fatalf("unexpected span order: %v", round.Spans)
	}
}

func TestTracker(t *testing.T) {
	var mu sync.Mutex
	var got []Progress
	fn := func(p Progress) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
	}
	tr := NewTracker(fn, "stage", 10, time.Nanosecond)
	for i := 0; i < 10; i++ {
		tr.Add(1)
		time.Sleep(time.Microsecond)
	}
	tr.Finish() // idempotent: Add already finished at done == total
	mu.Lock()
	defer mu.Unlock()
	if len(got) == 0 {
		t.Fatal("no progress reports")
	}
	last := got[len(got)-1]
	if !last.Final || last.Done != 10 || last.Total != 10 || last.ETA != 0 {
		t.Fatalf("bad final report: %+v", last)
	}
	finals := 0
	for _, p := range got {
		if p.Final {
			finals++
		}
		if p.Stage != "stage" {
			t.Fatalf("bad stage: %+v", p)
		}
	}
	if finals != 1 {
		t.Fatalf("final reports = %d, want 1", finals)
	}
}

func TestPrinter(t *testing.T) {
	var buf bytes.Buffer
	p := Printer(&buf)
	p(Progress{Stage: "fit/alpha", Done: 5, Total: 10, Elapsed: time.Second, ETA: time.Second, Rate: 5})
	p(Progress{Stage: "fit/alpha", Done: 10, Total: 10, Elapsed: 2 * time.Second, Final: true, Rate: 5})
	out := buf.String()
	for _, want := range []string{"fit/alpha", "5/10", "50.0%", "ETA", "done in"} {
		if !strings.Contains(out, want) {
			t.Fatalf("printer output missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentRegistryAccess creates and uses metrics from many
// goroutines simultaneously while snapshotting — the -race guard for the
// registry maps.
func TestConcurrentRegistryAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h", LinearBuckets(0, 1, 4)).Observe(float64(i % 5))
				sp := r.StartSpan("worker")
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if got := r.Counter("shared").Value(); got != 8*200 {
		t.Fatalf("shared counter = %d, want %d", got, 8*200)
	}
}
