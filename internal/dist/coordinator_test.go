package dist_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/core"
	"finser/internal/dist"
	"finser/internal/faultinject"
	"finser/internal/retry"
	"finser/internal/server"
)

// newWorker boots one real worker serd behind httptest and returns its URL.
// reg, when non-nil, receives the worker's metrics.
func newWorker(t *testing.T, reg *finser.Metrics) *httptest.Server {
	t.Helper()
	srv := server.New(server.Config{Workers: 2, Metrics: reg})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return ts
}

// testCoordinator builds a coordinator with test-speed timings.
func testCoordinator(t *testing.T, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	if cfg.ShardBins == 0 {
		cfg.ShardBins = 2
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 30 * time.Second
	}
	if cfg.ShardAttempts == 0 {
		cfg.ShardAttempts = 6
	}
	if cfg.StealAfter == 0 {
		cfg.StealAfter = 30 * time.Second // no stealing unless a test wants it
	}
	if cfg.Retry.BaseDelay == 0 {
		cfg.Retry = retry.Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond}
	}
	if cfg.Breaker.FailureThreshold == 0 {
		cfg.Breaker = breaker.Config{FailureThreshold: 3, Cooldown: 200 * time.Millisecond}
	}
	co, err := dist.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return co
}

// singleNode runs the reference single-node flow once per config.
func singleNode(t *testing.T, flow finser.FlowConfig) *finser.FlowResult {
	t.Helper()
	res, err := finser.RunFlowCtx(context.Background(), flow)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// requireBitIdentical asserts the distributed result matches the
// single-node run to the last bit, per species.
func requireBitIdentical(t *testing.T, got *dist.Result, want *finser.FlowResult) {
	t.Helper()
	if !reflect.DeepEqual(got.Alpha, want.Alpha) {
		t.Errorf("alpha FIT diverges:\n dist   %+v\n single %+v", got.Alpha, want.Alpha)
	}
	if !reflect.DeepEqual(got.Proton, want.Proton) {
		t.Errorf("proton FIT diverges:\n dist   %+v\n single %+v", got.Proton, want.Proton)
	}
}

// eventCollector records shard events thread-safely.
type eventCollector struct {
	mu     sync.Mutex
	events []dist.ShardEvent
}

func (c *eventCollector) emit(e dist.ShardEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *eventCollector) count(kind string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

func TestRunTwoWorkersBitIdentical(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	co := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}})

	var ev eventCollector
	got, err := co.Run(context.Background(), flow, ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	// 3 alpha bins / 2 + 4 proton bins / 2 = 2 + 2 shards, each completed
	// exactly once.
	if n := ev.count(dist.EventCompleted); n != 4 {
		t.Errorf("want 4 completed shards, got %d: %+v", n, ev.events)
	}
	if n := ev.count(dist.EventFailed); n != 0 {
		t.Errorf("want 0 failed shards, got %d", n)
	}
}

// TestCoordinatorCharacterizesOnce: the coordinator builds the job's
// characterization once and ships it, so no worker characterizes, the
// merge stays bit-identical, and a rerun whose every shard is restored
// from the checkpoint characterizes nothing.
func TestCoordinatorCharacterizesOnce(t *testing.T) {
	flow := tinyFlow()
	flow.ProcessVariation = true
	want := singleNode(t, flow)

	workerRegs := []*finser.Metrics{finser.NewMetrics(), finser.NewMetrics()}
	w1, w2 := newWorker(t, workerRegs[0]), newWorker(t, workerRegs[1])
	store, err := finser.CreateCheckpoint(filepath.Join(t.TempDir(), "dist.ck.json"), flow, []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow.Checkpoint = store
	flow.Obs = finser.NewMetrics()
	samples := func(reg *finser.Metrics) int64 { return reg.Counter("sram.variation_samples").Value() }

	co := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}})
	for run := 0; run < 2; run++ {
		before := samples(flow.Obs)
		var ev eventCollector
		got, err := co.Run(context.Background(), flow, ev.emit)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, got, want)
		wantSamples := int64(flow.Samples)
		if run == 1 {
			// Every shard restored: nothing left to characterize for.
			if n := ev.count(dist.EventResumed); n != 4 {
				t.Errorf("rerun restored %d shards, want 4", n)
			}
			wantSamples = 0
		}
		if n := samples(flow.Obs) - before; n != wantSamples {
			t.Errorf("run %d: coordinator characterized %d samples, want %d", run, n, wantSamples)
		}
		for i, reg := range workerRegs {
			if n := samples(reg); n != 0 {
				t.Errorf("run %d: worker %d characterized %d samples, want 0", run, i, n)
			}
		}
	}
}

// TestChaosWorkerKilledMidShard is the headline robustness property: one
// worker dies mid-shard (its in-flight connections sliced, every later
// request aborted — the coordinator-visible signature of SIGKILL) and the
// job still completes with a FIT bit-identical to the single-node run,
// with no *dist.PartialError.
func TestChaosWorkerKilledMidShard(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)

	faults := faultinject.New()
	srv := server.New(server.Config{Workers: 2, Faults: faults})
	srv.Start()
	var dead atomic.Bool
	var ts1 *httptest.Server
	ts1 = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if dead.Load() {
			panic(http.ErrAbortHandler) // dead worker: abort the connection
		}
		// Answer only after the inner handler is done, and only if the
		// worker is still alive: a killed process cannot finish the shard
		// it was computing, so that response must never race the
		// connection slicing below to the coordinator.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		if dead.Load() {
			panic(http.ErrAbortHandler)
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer ts1.Close()
	// Kill worker 1 in the middle of its first shard's Monte Carlo: after
	// the 50th particle, mark it dead and slice its live connections.
	faults.CallAt(core.FaultSiteParticle, 50, func() {
		if dead.CompareAndSwap(false, true) {
			go ts1.CloseClientConnections()
		}
	})

	w2 := newWorker(t, nil)
	co := testCoordinator(t, dist.Config{
		Workers:       []string{ts1.URL, w2.URL},
		ShardAttempts: 8,
		StealAfter:    200 * time.Millisecond,
	})

	var ev eventCollector
	got, err := co.Run(context.Background(), flow, ev.emit)
	var pe *dist.PartialError
	if errors.As(err, &pe) {
		t.Fatalf("worker death degraded to PartialError (missing %v) instead of retrying elsewhere: %v", pe.Missing, err)
	}
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if !dead.Load() {
		t.Fatal("fault never fired: the kill was not mid-shard")
	}
	if ev.count(dist.EventRetried)+ev.count(dist.EventStolen) == 0 {
		t.Error("expected at least one retry or steal after the worker died")
	}
	if n := ev.count(dist.EventCompleted); n != 4 {
		t.Errorf("want 4 completed shards, got %d", n)
	}
}

// protonKiller wraps a healthy worker but 500s every proton shard —
// exhausting those shards' budgets while alpha completes normally.
func protonKiller(t *testing.T, inner http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if bytes.Contains(body, []byte(`"species":"proton"`)) {
			http.Error(w, "injected proton fault", http.StatusInternalServerError)
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

func TestRunPartialErrorNamesMissingShards(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)

	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	w := protonKiller(t, srv.Handler())
	co := testCoordinator(t, dist.Config{
		Workers:       []string{w.URL},
		ShardAttempts: 2,
		Retry:         retry.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
		Breaker:       breaker.Config{FailureThreshold: 100, Cooldown: 50 * time.Millisecond},
	})

	_, err := co.Run(context.Background(), flow, nil)
	var pe *dist.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PartialError, got %T: %v", err, err)
	}
	wantMissing := []dist.ShardID{
		{Species: dist.SpeciesProton, Start: 0, End: 2},
		{Species: dist.SpeciesProton, Start: 2, End: 4},
	}
	if !reflect.DeepEqual(pe.Missing, wantMissing) {
		t.Errorf("missing shards = %v, want %v", pe.Missing, wantMissing)
	}
	if pe.Partial == nil {
		t.Fatal("PartialError carries no partial result")
	}
	// The alpha side completed in full: its partial FIT is the exact
	// single-node alpha FIT.
	if !reflect.DeepEqual(pe.Partial.Alpha, want.Alpha) {
		t.Errorf("partial alpha FIT diverges from single-node:\n got  %+v\n want %+v", pe.Partial.Alpha, want.Alpha)
	}
	if pe.Partial.Proton.TotalFIT != 0 {
		t.Errorf("proton never completed a shard but partial FIT = %g", pe.Partial.Proton.TotalFIT)
	}
}

// TestRunResumesOnlyMissingShards drives the drain/resubmit contract: a
// first run that only managed alpha (proton faults injected) checkpoints
// its completed shards; a second run against a healthy pool restores them
// (EventResumed) and dispatches only the proton shards, landing on the
// bit-identical full result.
func TestRunResumesOnlyMissingShards(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)
	ckPath := filepath.Join(t.TempDir(), "dist.ck.json")

	store, err := finser.CreateCheckpoint(ckPath, flow, []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow.Checkpoint = store

	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	broken := protonKiller(t, srv.Handler())
	co1 := testCoordinator(t, dist.Config{
		Workers:       []string{broken.URL},
		ShardAttempts: 1,
		Breaker:       breaker.Config{FailureThreshold: 100, Cooldown: 50 * time.Millisecond},
	})
	if _, err := co1.Run(context.Background(), flow, nil); err == nil {
		t.Fatal("first run should have failed on proton shards")
	}

	// Second run: same checkpoint file, healthy worker.
	store2, err := finser.ResumeCheckpoint(ckPath, tinyFlow(), []float64{flow.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow2 := tinyFlow()
	flow2.Checkpoint = store2
	healthy := newWorker(t, nil)
	co2 := testCoordinator(t, dist.Config{Workers: []string{healthy.URL}})

	var ev eventCollector
	got, err := co2.Run(context.Background(), flow2, ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if n := ev.count(dist.EventResumed); n != 2 {
		t.Errorf("want 2 resumed alpha shards, got %d: %+v", n, ev.events)
	}
	for _, e := range ev.events {
		if e.Kind == dist.EventDispatched && e.Shard.Species == dist.SpeciesAlpha {
			t.Errorf("alpha shard %v re-dispatched despite checkpoint", e.Shard)
		}
	}
	if n := ev.count(dist.EventCompleted); n != 2 {
		t.Errorf("want 2 freshly completed proton shards, got %d", n)
	}
}

// TestAdaptiveRunBitIdentical: an adaptive job distributed across two real
// workers merges bit-identically to the single-node adaptive run —
// convergence records included — no matter how the bin range is sharded.
func TestAdaptiveRunBitIdentical(t *testing.T) {
	flow := tinyFlow()
	flow.FITRelErr = 0.1
	want := singleNode(t, flow)
	if len(want.Alpha.Conv) != len(want.Alpha.Points) || len(want.Proton.Conv) != len(want.Proton.Points) {
		t.Fatalf("single-node adaptive run missing conv records: alpha %d/%d, proton %d/%d",
			len(want.Alpha.Conv), len(want.Alpha.Points), len(want.Proton.Conv), len(want.Proton.Points))
	}
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	for _, bins := range []int{1, 2, 7} {
		co := testCoordinator(t, dist.Config{Workers: []string{w1.URL, w2.URL}, ShardBins: bins})
		got, err := co.Run(context.Background(), flow, nil)
		if err != nil {
			t.Fatalf("ShardBins=%d: %v", bins, err)
		}
		requireBitIdentical(t, got, want)
	}
}

// TestAdaptiveResumeOnlyMissingShards: a checkpointed adaptive job whose
// proton shards failed resumes only the missing shards — the restored alpha
// shards pass conv validation and the final merge is still bit-identical.
func TestAdaptiveResumeOnlyMissingShards(t *testing.T) {
	base := tinyFlow()
	base.FITRelErr = 0.1
	want := singleNode(t, base)
	ckPath := filepath.Join(t.TempDir(), "dist.ck.json")

	store, err := finser.CreateCheckpoint(ckPath, base, []float64{base.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow := base
	flow.Checkpoint = store

	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	broken := protonKiller(t, srv.Handler())
	co1 := testCoordinator(t, dist.Config{
		Workers:       []string{broken.URL},
		ShardAttempts: 1,
		Breaker:       breaker.Config{FailureThreshold: 100, Cooldown: 50 * time.Millisecond},
	})
	if _, err := co1.Run(context.Background(), flow, nil); err == nil {
		t.Fatal("first run should have failed on proton shards")
	}

	store2, err := finser.ResumeCheckpoint(ckPath, base, []float64{base.Vdd})
	if err != nil {
		t.Fatal(err)
	}
	flow2 := base
	flow2.Checkpoint = store2
	healthy := newWorker(t, nil)
	co2 := testCoordinator(t, dist.Config{Workers: []string{healthy.URL}})

	var ev eventCollector
	got, err := co2.Run(context.Background(), flow2, ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if n := ev.count(dist.EventResumed); n != 2 {
		t.Errorf("want 2 resumed alpha shards, got %d: %+v", n, ev.events)
	}
}

// TestStealFirstResultWins: worker 1 sits on its first shard far past
// StealAfter; an idle worker 2 duplicate-dispatches it, wins, and the late
// twin is discarded by fingerprint dedup — with the merged FIT still
// bit-identical.
func TestStealFirstResultWins(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)

	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	var stalled atomic.Bool
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(1500 * time.Millisecond) // hold the first shard hostage
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer slow.Close()
	fast := newWorker(t, nil)

	co := testCoordinator(t, dist.Config{
		Workers:    []string{slow.URL, fast.URL},
		StealAfter: 100 * time.Millisecond,
	})
	var ev eventCollector
	got, err := co.Run(context.Background(), flow, ev.emit)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
	if ev.count(dist.EventStolen) == 0 {
		t.Error("expected the stalled shard to be stolen")
	}
	if ev.count(dist.EventCompleted) != 4 {
		t.Errorf("want exactly 4 completed (dedup), got %d", ev.count(dist.EventCompleted))
	}
}

// TestBreakerRecoveryViaProbe drives the full circuit round trip against a
// worker that fails long enough to trip its breaker and then recovers: the
// cooldown's half-open probe (whose state transition fires the observer
// under the breaker lock) must re-admit the worker and the run must still
// land bit-identically. Regression test for a self-deadlock where the
// state-change observer called back into the breaker.
func TestBreakerRecoveryViaProbe(t *testing.T) {
	flow := tinyFlow()
	want := singleNode(t, flow)

	srv := server.New(server.Config{Workers: 2})
	srv.Start()
	var calls atomic.Int32
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 3 {
			http.Error(w, "injected transient fault", http.StatusInternalServerError)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	co := testCoordinator(t, dist.Config{
		Workers: []string{flaky.URL},
		// The healthy-worker gauge must be live: refreshing it from inside
		// the state-change observer is the deadlock under test.
		Metrics:       finser.NewMetrics(),
		ShardAttempts: 20,
		Breaker:       breaker.Config{FailureThreshold: 2, Cooldown: 50 * time.Millisecond},
		Retry:         retry.Policy{BaseDelay: 5 * time.Millisecond, MaxDelay: 20 * time.Millisecond},
	})
	done := make(chan struct{})
	var got *dist.Result
	var err error
	go func() {
		got, err = co.Run(context.Background(), flow, nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("run deadlocked after breaker trip + recovery")
	}
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, got, want)
}

// TestReadyReflectsBreakers: a pool whose every worker is breaker-open
// reports not-ready, and recovers after the cooldown probe succeeds.
func TestReadyReflectsBreakers(t *testing.T) {
	// One worker at a dead address: every attempt fails, tripping the
	// breaker after FailureThreshold.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // now refuses connections
	co := testCoordinator(t, dist.Config{
		Workers:       []string{dead.URL},
		ShardAttempts: 4,
		Breaker:       breaker.Config{FailureThreshold: 2, Cooldown: time.Hour},
		Retry:         retry.Policy{BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})
	if err := co.Ready(); err != nil {
		t.Fatalf("pool should start ready, got %v", err)
	}
	_, err := co.Run(context.Background(), tinyFlow(), nil)
	if err == nil {
		t.Fatal("run against a dead pool should fail")
	}
	if err := co.Ready(); err == nil {
		t.Fatal("pool with every breaker open should report not ready")
	}
}
