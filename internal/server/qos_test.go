package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"finser"
	"finser/internal/events"
	"finser/internal/faultinject"
	"finser/internal/obs"
	"finser/internal/qos"
)

// postJobTenant submits a request body on behalf of a tenant (X-Tenant
// header) and returns the response plus raw body.
func postJobTenant(t *testing.T, ts *httptest.Server, tenant, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	return resp, []byte(sb.String())
}

// TestPreemptResumeBitIdentical is the preemption acceptance test: a batch
// FIT job is preempted at a checkpoint boundary by an interactive arrival,
// requeues, resumes, and finishes bit-identical to an uninterrupted run —
// with the preempted/resumed events on its stream and the preemption
// counted on its status.
func TestPreemptResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()
	batchReq := JobRequest{
		Vdd: 0.7, Samples: 8, ItersPerBin: 1500,
		AlphaBins: 3, ProtonBins: 3, Seed: 7, Workers: 2,
	}
	cfg, err := batchReq.flowConfig()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := finser.RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("baseline flow: %v", err)
	}

	// The trigger fires mid-alpha (hit 2300 of 4500), after the first
	// 1500-particle bin has been checkpointed, and then BLOCKS the flow
	// worker until the interactive job has been submitted — these flows run
	// in milliseconds, so without the hold the batch job finishes before the
	// HTTP round-trip lands and there is nothing left to preempt.
	trigger := make(chan struct{})
	proceed := make(chan struct{})
	faults := faultinject.New()
	faults.CallAt(finser.FaultSiteParticle, 2300, func() {
		close(trigger)
		<-proceed
	})
	s := New(Config{
		Workers:       1,
		CheckpointDir: dir,
		Preempt:       true,
		Faults:        faults,
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(batchReq)
	resp, out := postJobTenant(t, ts, "bulk", string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch submit = %d: %s", resp.StatusCode, out)
	}
	select {
	case <-trigger:
	case <-time.After(60 * time.Second):
		t.Fatal("fault trigger never fired")
	}

	// An interactive arrival with the lone worker busy on batch work must
	// preempt it.
	interactive := `{"vdd": 0.7, "samples": 8, "iters_per_bin": 200,
		"alpha_bins": 2, "proton_bins": 2, "seed": 9, "workers": 1, "class": "interactive"}`
	resp, out = postJobTenant(t, ts, "ui", interactive)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("interactive submit = %d: %s", resp.StatusCode, out)
	}
	close(proceed) // release the held flow; it unwinds at the cancelled ctx

	// Both jobs finish: the interactive one ran on the yielded worker, the
	// batch one resumed from its checkpoint.
	iSt := waitState(t, ts, "job-2", StateDone)
	bSt := waitState(t, ts, "job-1", StateDone)
	if bSt.Preemptions < 1 {
		t.Errorf("batch job Preemptions = %d, want >= 1", bSt.Preemptions)
	}
	if bSt.Tenant != "bulk" || bSt.Class != qos.ClassBatch {
		t.Errorf("batch job identity = %s/%s, want bulk/batch", bSt.Tenant, bSt.Class)
	}
	if iSt.Tenant != "ui" || iSt.Class != qos.ClassInteractive {
		t.Errorf("interactive job identity = %s/%s, want ui/interactive", iSt.Tenant, iSt.Class)
	}

	// Bit-identical resume: the preempted run must land on exactly the
	// uninterrupted numbers.
	assertResultEqual(t, bSt.Result, baseline)

	// The stream carries the preempted → resumed transition.
	s.mu.Lock()
	stream := s.jobs["job-1"].events
	s.mu.Unlock()
	var sawPreempted, sawResumed bool
	for e := range stream.Subscribe(0).C() {
		switch e.Type {
		case events.TypePreempted:
			sawPreempted = true
		case events.TypeResumed:
			sawResumed = true
		}
	}
	if !sawPreempted || !sawResumed {
		t.Errorf("event stream: preempted=%v resumed=%v, want both", sawPreempted, sawResumed)
	}
}

// orderRunner records execution order by seed; the first job blocks until
// release so a backlog can build behind it.
func orderRunner(first chan<- struct{}, release <-chan struct{}) (func(context.Context, finser.FlowConfig) (*JobResult, error), func() []uint64) {
	var mu sync.Mutex
	var order []uint64
	var once sync.Once
	run := func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		gate := false
		once.Do(func() { gate = true })
		if gate {
			close(first)
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		mu.Lock()
		order = append(order, cfg.Seed)
		mu.Unlock()
		return &JobResult{Vdd: cfg.Vdd}, nil
	}
	get := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), order...)
	}
	return run, get
}

// TestInteractiveOvertakesBatchBacklog pins the WFQ contract at the server
// layer: an interactive job submitted behind a deep batch backlog is
// dispatched ahead of it.
func TestInteractiveOvertakesBatchBacklog(t *testing.T) {
	first := make(chan struct{})
	release := make(chan struct{})
	run, getOrder := orderRunner(first, release)
	s := New(Config{Workers: 1, QueueDepth: 16, Runner: run})
	s.Start()
	defer s.Drain(context.Background())

	// Seed 100 occupies the worker; seeds 101-104 are the batch backlog;
	// seed 200 is the late interactive arrival.
	if _, err := s.Submit(JobRequest{Vdd: 0.7, Seed: 100}); err != nil {
		t.Fatal(err)
	}
	<-first
	for seed := uint64(101); seed <= 104; seed++ {
		if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7, Seed: seed}, "", "bulk"); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7, Seed: 200, Class: "interactive"}, "", "ui"); err != nil {
		t.Fatal(err)
	}
	close(release)

	deadline := time.Now().Add(30 * time.Second)
	for len(getOrder()) < 6 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	order := getOrder()
	if len(order) != 6 {
		t.Fatalf("ran %d jobs, want 6 (order %v)", len(order), order)
	}
	if order[0] != 100 {
		t.Fatalf("first job = %d, want the occupying 100", order[0])
	}
	if order[1] != 200 {
		t.Fatalf("dispatch order = %v: interactive (200) must overtake the batch backlog", order)
	}
	for i, want := range []uint64{101, 102, 103, 104} {
		if order[2+i] != want {
			t.Fatalf("batch order disturbed: %v", order)
		}
	}
}

// TestTenantQuotaAndRate429 pins the per-tenant 429 contract: an over-quota
// or over-rate tenant is refused with 429 (typed, counted, Retry-After on
// rate), while other tenants keep being served — and the rejection is
// distinct from the global capacity 503.
func TestTenantQuotaAndRate429(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan string, 8)
	release := make(chan struct{})
	defer close(release)
	s := New(Config{
		Workers:     1,
		QueueDepth:  8,
		TenantQuota: 1,
		Metrics:     reg,
		Runner:      blockingRunner(started, release),
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// acme's first job occupies its whole quota (queued or running).
	resp, _ := postJobTenant(t, ts, "acme", `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("acme job 1 = %d, want 202", resp.StatusCode)
	}
	<-started
	resp, body := postJobTenant(t, ts, "acme", `{"vdd": 0.75}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("acme over quota = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "quota") {
		t.Errorf("429 body names no quota: %s", body)
	}
	if got := reg.Counter(obs.Labeled("serd/tenant/rejected_quota", "tenant", "acme")).Value(); got != 1 {
		t.Errorf("rejected_quota{acme} = %d, want 1", got)
	}
	// Isolation: another tenant is admitted while acme is refused.
	resp, _ = postJobTenant(t, ts, "other", `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant = %d, want 202 (quota is per-tenant)", resp.StatusCode)
	}

	// Rate limiting: a fresh server with a near-zero refill and burst 1.
	s2 := New(Config{
		Workers:    1,
		TenantRate: 0.001, TenantBurst: 1,
		Metrics: reg,
		Runner:  blockingRunner(started, release),
	})
	s2.Start()
	defer s2.Drain(context.Background())
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, _ = postJobTenant(t, ts2, "flood", `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("flood job 1 = %d, want 202", resp.StatusCode)
	}
	resp, body = postJobTenant(t, ts2, "flood", `{"vdd": 0.75}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("flood over rate = %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("rate 429 carries no Retry-After")
	}
	if !strings.Contains(string(body), "rate") {
		t.Errorf("429 body names no rate limit: %s", body)
	}
	if got := reg.Counter(obs.Labeled("serd/tenant/rejected_rate", "tenant", "flood")).Value(); got != 1 {
		t.Errorf("rejected_rate{flood} = %d, want 1", got)
	}
}

// TestPreemptDuringDrain races a preemption against a drain: the preempted
// job must finalize as canceled (never lost in limbo, never resumed), and
// the drain completes.
func TestPreemptDuringDrain(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{
		Workers:       1,
		QueueDepth:    8,
		Preempt:       true,
		CheckpointDir: t.TempDir(),
		Runner:        blockingRunner(started, release),
	})
	s.Start()

	if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7}, "", "bulk"); err != nil {
		t.Fatal(err)
	}
	<-started // batch job holds the lone worker

	// Interactive arrival requests the preemption; drain lands right after.
	if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7, Class: "interactive"}, "", "ui"); err != nil {
		t.Fatal(err)
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range []string{"job-1", "job-2"} {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Errorf("%s after drain = %s (err=%q), want canceled", id, st.State, st.Error)
		}
	}
}

// TestPreemptThenCancel races a user cancel against a preemption: the
// cancel must win — the job ends canceled and never resumes.
func TestPreemptThenCancel(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{
		Workers:       1,
		QueueDepth:    8,
		Preempt:       true,
		CheckpointDir: t.TempDir(),
		Runner:        blockingRunner(started, release),
	})
	s.Start()
	defer s.Drain(context.Background()) // also unblocks the runner via ctx on early failure

	if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7}, "", "bulk"); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, _, err := s.SubmitTenant(JobRequest{Vdd: 0.7, Class: "interactive"}, "", "ui"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel("job-1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Status("job-1")
		if err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			if st.State != StateCanceled {
				t.Fatalf("job-1 = %s, want canceled", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job-1 never finalized (state %s)", st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The interactive job still completes on the freed worker.
	close(release)
	deadline = time.Now().Add(30 * time.Second)
	for {
		st, _ := s.Status("job-2")
		if st.State == StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("job-2 = %s (err=%q), want done", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job-2 never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRetryAfterHintLoadAware pins the load-aware 503 satellite: with no
// completed jobs the hint is the configured constant; once the run-latency
// histogram has signal it scales with backlog and clamps at RetryAfterMax.
func TestRetryAfterHintLoadAware(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Config{
		Workers:       2,
		QueueDepth:    64,
		RetryAfter:    7 * time.Second,
		RetryAfterMax: 30 * time.Second,
		Metrics:       reg,
	})
	if got := s.retryAfterHint(); got != 7 {
		t.Fatalf("hint with no signal = %d, want the configured 7", got)
	}
	// Mean runtime 10 s, empty queue, no running jobs → (0+1)*10/2 = 5 s.
	s.latency("run").Observe(10.0)
	if got := s.retryAfterHint(); got != 5 {
		t.Fatalf("hint with signal = %d, want 5", got)
	}
	// A deep backlog pushes the estimate past the cap: clamp to 30.
	for i := 0; i < 20; i++ {
		if err := s.sched.Push("bulk", qos.ClassBatch, 1, &job{}); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.retryAfterHint(); got != 30 {
		t.Fatalf("hint with deep backlog = %d, want the 30 s cap", got)
	}
}

// TestRecoveryRestoresTenantAccounting: a journaled tenant job survives a
// crash with its tenant identity and quota slot restored.
func TestRecoveryRestoresTenantAccounting(t *testing.T) {
	dir := t.TempDir()
	started := make(chan string, 4)
	release := make(chan struct{})
	s1 := New(Config{
		Workers: 1, DataDir: dir, TenantQuota: 1,
		Runner: blockingRunner(started, release),
	})
	if _, err := s1.Recover(); err != nil {
		t.Fatal(err)
	}
	s1.Start()
	if _, _, err := s1.SubmitTenant(JobRequest{Vdd: 0.7, Seed: 3}, "", "acme"); err != nil {
		t.Fatal(err)
	}
	<-started
	s1.Kill()

	s2 := New(Config{
		Workers: 1, DataDir: dir, TenantQuota: 1,
		Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
			return &JobResult{Vdd: cfg.Vdd}, nil
		},
	})
	stats, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Requeued != 1 {
		t.Fatalf("requeued = %d, want 1", stats.Requeued)
	}
	// The requeued job occupies acme's quota before Start even runs it.
	if _, _, err := s2.SubmitTenant(JobRequest{Vdd: 0.8, Seed: 4}, "", "acme"); err == nil {
		t.Fatal("over-quota submit after recovery succeeded; quota accounting not restored")
	}
	s2.Start()
	defer s2.Drain(context.Background())
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, serr := s2.Status("job-1")
		if serr != nil {
			t.Fatal(serr)
		}
		if st.State == StateDone {
			if st.Tenant != "acme" {
				t.Errorf("recovered tenant = %q, want acme", st.Tenant)
			}
			break
		}
		if st.State.Terminal() {
			t.Fatalf("recovered job = %s (err=%q), want done", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// With the job done, acme's slot frees and a new submit is admitted.
	if _, _, err := s2.SubmitTenant(JobRequest{Vdd: 0.8, Seed: 4}, "", "acme"); err != nil {
		t.Fatalf("post-completion submit refused: %v", err)
	}
}
