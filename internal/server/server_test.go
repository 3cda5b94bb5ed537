package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"finser"
	"finser/internal/faultinject"
	"finser/internal/obs"
)

// postJob submits a request body and returns the decoded status (or error
// body) plus the raw response.
func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// getStatus polls one job.
func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s status = %d", id, resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// waitState polls until the job reaches a target state or times out.
func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err=%q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return JobStatus{}
}

// blockingRunner returns a Runner that reports entry on started and holds
// each job until release is closed (or its context is cut).
func blockingRunner(started chan<- string, release <-chan struct{}) func(context.Context, finser.FlowConfig) (*JobResult, error) {
	return func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		started <- "run"
		select {
		case <-release:
			return &JobResult{Vdd: cfg.Vdd}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestQueueSaturationSheds503 checks the load-shedding contract: with one
// worker busy and the one queue slot taken, the next submission is refused
// with 503 and a positive Retry-After, and the rejection is counted.
func TestQueueSaturationSheds503(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{
		QueueDepth: 1,
		Workers:    1,
		RetryAfter: 7 * time.Second,
		Metrics:    reg,
		Runner:     blockingRunner(started, release),
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Job 1 occupies the worker (wait until it is actually running so the
	// queue slot is provably free for job 2).
	resp, _ := postJob(t, ts, `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status = %d, want 202", resp.StatusCode)
	}
	<-started

	// Job 2 takes the single queue slot.
	resp, _ = postJob(t, ts, `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d, want 202", resp.StatusCode)
	}

	// Job 3 must be shed.
	resp, body := postJob(t, ts, `{"vdd": 0.7}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job 3 status = %d, want 503 (body %s)", resp.StatusCode, body)
	}
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs <= 0 {
		t.Errorf("Retry-After = %q, want positive integer seconds", ra)
	}
	if secs != 7 {
		t.Errorf("Retry-After = %d, want the configured 7", secs)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "queue full") {
		t.Errorf("503 body = %s, want queue-full error JSON", body)
	}
	if got := reg.Counter("serd/jobs/rejected_full").Value(); got != 1 {
		t.Errorf("rejected_full = %d, want 1", got)
	}

	close(release)
	waitState(t, ts, "job-1", StateDone)
	waitState(t, ts, "job-2", StateDone)
	if got := reg.Counter("serd/jobs/completed").Value(); got != 2 {
		t.Errorf("completed = %d, want 2", got)
	}
}

// TestCancelQueuedFreesSlot: canceling a queued job takes it out of the
// fair queue at once. With the lone worker busy and the one queue slot
// freed by the cancel, the next submission is admitted rather than shed,
// and the canceled job never runs.
func TestCancelQueuedFreesSlot(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{
		QueueDepth: 1,
		Workers:    1,
		Metrics:    reg,
		Runner:     blockingRunner(started, release),
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, `{"vdd": 0.7}`) // job-1 takes the worker
	<-started
	if resp, body := postJob(t, ts, `{"vdd": 0.8}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status = %d (body %s), want 202", resp.StatusCode, body)
	}
	if _, err := s.Cancel("job-2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("serd/queue/depth").Value(); got != 0 {
		t.Errorf("queue/depth after canceling the queued job = %g, want 0", got)
	}
	resp, body := postJob(t, ts, `{"vdd": 0.9}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after canceling the queued job = %d (body %s), want 202", resp.StatusCode, body)
	}

	close(release)
	waitState(t, ts, "job-1", StateDone)
	waitState(t, ts, "job-3", StateDone)
	if n := len(started); n != 1 {
		t.Errorf("%d runs after job-1, want 1 (job-3 only; canceled job-2 must not run)", n)
	}
	if got := reg.Counter("serd/jobs/rejected_full").Value(); got != 0 {
		t.Errorf("rejected_full = %d, want 0", got)
	}
}

// TestJobLifecycleAndCancel exercises the state machine: cancel a queued
// job (the worker must skip it), cancel a running job (its context is cut),
// and run a third job to completion.
func TestJobLifecycleAndCancel(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s := New(Config{
		QueueDepth: 4,
		Workers:    1,
		Runner:     blockingRunner(started, release),
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts, `{"vdd": 0.7}`) // job-1: will run and block
	<-started
	postJob(t, ts, `{"vdd": 0.8}`) // job-2: queued behind it

	// Cancel the queued job: terminal immediately, and the worker must
	// never start it.
	resp, err := http.Post(ts.URL+"/jobs/job-2/cancel", "application/json", nil)
	if err != nil {
		t.Fatalf("cancel: %v", err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts, "job-2"); st.State != StateCanceled {
		t.Fatalf("queued job after cancel = %s, want canceled", st.State)
	}

	// Cancel the running job: its context unwinds the runner.
	http.Post(ts.URL+"/jobs/job-1/cancel", "application/json", nil)
	st := waitState(t, ts, "job-1", StateCanceled)
	if st.FinishedAt == nil || st.StartedAt == nil {
		t.Errorf("canceled running job missing timestamps: %+v", st)
	}

	// A fresh job still completes; the skipped job-2 must not have
	// consumed a runner invocation.
	postJob(t, ts, `{"vdd": 0.9}`)
	<-started
	close(release)
	st = waitState(t, ts, "job-3", StateDone)
	if st.Result == nil || st.Result.Vdd != 0.9 {
		t.Errorf("job-3 result = %+v, want vdd 0.9", st.Result)
	}
	select {
	case <-started:
		t.Error("worker ran a canceled queued job")
	default:
	}

	// Unknown job IDs are 404.
	resp, err = http.Get(ts.URL + "/jobs/job-99")
	if err != nil {
		t.Fatalf("GET unknown: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestValidationErrorsMapTo400 checks the client-fault boundary: malformed
// bodies, unknown patterns, and finser config violations are 400s (never
// 500s, never admitted).
func TestValidationErrorsMapTo400(t *testing.T) {
	s := New(Config{Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		t.Error("invalid job reached the runner")
		return nil, nil
	}})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		body string
		want string
	}{
		{"missing vdd", `{}`, "Vdd"},
		{"negative samples", `{"vdd": 0.7, "samples": -1}`, "Samples"},
		{"unknown pattern", `{"vdd": 0.7, "pattern": "stripes"}`, "pattern"},
		{"negative timeout", `{"vdd": 0.7, "timeout_seconds": -3}`, "timeout_seconds"},
		{"fit_rel_err too large", `{"vdd": 0.7, "fit_rel_err": 0.6}`, "FITRelErr"},
		{"fit_rel_err negative", `{"vdd": 0.7, "fit_rel_err": -0.05}`, "FITRelErr"},
		{"alpha_rate negative", `{"vdd": 0.8, "alpha_rate": -1}`, "AlphaRate"},
		{"proton_scale negative", `{"vdd": 0.8, "proton_scale": -2}`, "ProtonScale"},
		{"vdd far above nominal", `{"vdd": 1e308}`, "Vdd"},
		{"proton_scale overflows FIT", `{"vdd": 0.8, "proton_scale": 1e308}`, "ProtonScale"},
		{"alpha_rate above the flux bound", `{"vdd": 0.8, "alpha_rate": 1e21}`, "AlphaRate"},
		{"array above the cell bound", `{"vdd":0.8,"rows":1000000000,"cols":1000000000,"samples":1,"iters_per_bin":10,"alpha_bins":1,"proton_bins":1}`, "Rows"},
		{"unknown field", `{"vdd": 0.7, "voltage": 1}`, "voltage"},
		{"syntax", `{"vdd": `, "body"},
	}
	for _, tc := range cases {
		resp, body := postJob(t, ts, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: body %s does not name %q", tc.name, body, tc.want)
		}
	}
	if len(s.List()) != 0 {
		t.Errorf("invalid submissions were admitted: %+v", s.List())
	}
}

// TestFaultFailsJobResubmitResumes is the recovery story for a fault in
// in-process compute: nothing retries it, so the job fails with an error
// naming the fault, and resubmitting the identical body to the same server
// resumes from the bin the failed run checkpointed and finishes
// byte-identical to an undisturbed run.
func TestFaultFailsJobResubmitResumes(t *testing.T) {
	req := JobRequest{
		Vdd: 0.7, Samples: 8, ItersPerBin: 200,
		AlphaBins: 2, ProtonBins: 2, Seed: 7, Workers: 1,
	}
	cfg, err := req.flowConfig()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := finser.RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("baseline flow: %v", err)
	}

	// Alpha strikes are particle-site hits 1..400 (2 bins × 200), so hit
	// 250 falls in bin 1, after bin 0 is checkpointed. The fault fires
	// once: the resubmission's hits count on from 401.
	faults := faultinject.New()
	faults.ErrorAt(finser.FaultSiteParticle, 250, errors.New("injected device fault"))
	s := New(Config{Workers: 1, CheckpointDir: t.TempDir(), Faults: faults})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(req)
	resp, out := postJob(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, out)
	}
	st := waitState(t, ts, "job-1", StateFailed)
	if !strings.Contains(st.Error, "injected device fault") {
		t.Errorf("failed job's error %q does not name the fault", st.Error)
	}

	resp, out = postJob(t, ts, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status = %d: %s", resp.StatusCode, out)
	}
	st = waitState(t, ts, "job-2", StateDone)
	if st.ResumedStages < 1 {
		t.Errorf("ResumedStages = %d, want >= 1 (bin 0 checkpointed before the fault)", st.ResumedStages)
	}
	assertResultEqual(t, st.Result, baseline)
}

// TestDrainCheckpointResume is the graceful-shutdown acceptance test: a
// drain mid-FIT cancels the job but leaves a checkpoint, and resubmitting
// the identical request to a fresh server resumes from that checkpoint and
// finishes byte-identical to an uninterrupted run.
func TestDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	req := JobRequest{
		Vdd: 0.7, Samples: 8, ItersPerBin: 1500,
		AlphaBins: 3, ProtonBins: 3, Seed: 7, Workers: 2,
	}
	cfg, err := req.flowConfig()
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := finser.RunFlowCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("baseline flow: %v", err)
	}
	body, _ := json.Marshal(req)

	// Server A: trigger fires mid-alpha (hit 2300 of 4500), after the
	// first 1500-particle bin has been checkpointed.
	trigger := make(chan struct{})
	faults := faultinject.New()
	faults.CallAt(finser.FaultSiteParticle, 2300, func() { close(trigger) })
	srvA := New(Config{Workers: 1, CheckpointDir: dir, Faults: faults})
	srvA.Start()
	tsA := httptest.NewServer(srvA.Handler())

	resp, out := postJob(t, tsA, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, out)
	}
	select {
	case <-trigger:
	case <-time.After(60 * time.Second):
		t.Fatal("fault trigger never fired")
	}

	// Readiness flips and admission shuts as the drain lands.
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rz, err := http.Get(tsA.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rz.Body.Close()
	if rz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz during drain = %d, want 503", rz.StatusCode)
	}
	resp, _ = postJob(t, tsA, string(body))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", resp.StatusCode)
	}
	st := getStatus(t, tsA, "job-1")
	if st.State != StateCanceled {
		t.Fatalf("drained job state = %s (err=%q), want canceled", st.State, st.Error)
	}
	tsA.Close()

	// The checkpoint file survived the drain and holds FIT progress.
	matches, err := filepath.Glob(filepath.Join(dir, "ser-*.ck.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("checkpoint files = %v (err %v), want exactly one", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("fit/")) {
		t.Fatalf("checkpoint %s holds no FIT stage:\n%s", matches[0], raw)
	}

	// Server B: same checkpoint dir, no faults. The identical request is
	// keyed to the same fingerprint, resumes the saved bins, and must land
	// on exactly the uninterrupted numbers.
	srvB := New(Config{Workers: 1, CheckpointDir: dir})
	srvB.Start()
	defer srvB.Drain(context.Background())
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	resp, out = postJob(t, tsB, string(body))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit status = %d: %s", resp.StatusCode, out)
	}
	st = waitState(t, tsB, "job-1", StateDone)
	if st.ResumedStages < 1 {
		t.Errorf("ResumedStages = %d, want >= 1 (checkpoint restored)", st.ResumedStages)
	}
	assertResultEqual(t, st.Result, baseline)
}

// assertResultEqual compares a job result against a baseline FlowResult
// byte-for-byte through JSON — any drift in any FIT bin fails.
func assertResultEqual(t *testing.T, got *JobResult, want *finser.FlowResult) {
	t.Helper()
	if got == nil {
		t.Fatal("job finished without a result")
	}
	for _, c := range []struct {
		name     string
		got, ref finser.FITResult
	}{
		{"alpha", got.Alpha, want.Alpha},
		{"proton", got.Proton, want.Proton},
	} {
		gb, err := json.Marshal(c.got)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := json.Marshal(c.ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, rb) {
			t.Errorf("%s FIT diverged from baseline:\n got %s\nwant %s", c.name, gb, rb)
		}
	}
	if got.Vdd != want.Vdd {
		t.Errorf("Vdd = %g, want %g", got.Vdd, want.Vdd)
	}
}

// TestDrainRejectsNewSubmits checks the Submit/Drain race discipline
// directly at the API layer (no HTTP): after Drain begins, Submit returns
// ErrDraining, and Drain with an expired context reports it.
func TestDrainRejectsNewSubmits(t *testing.T) {
	s := New(Config{Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		return &JobResult{Vdd: cfg.Vdd}, nil
	}})
	s.Start()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	_, _, err := s.Submit(JobRequest{Vdd: 0.7}, "", "")
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after drain = %v, want ErrDraining", err)
	}
	// Draining twice is idempotent.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestJobTimeoutFails checks the per-request deadline override: a job
// slower than its timeout fails with a deadline message instead of hanging.
func TestJobTimeoutFails(t *testing.T) {
	s := New(Config{
		Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		},
	})
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := postJob(t, ts, `{"vdd": 0.7, "timeout_seconds": 0.05}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, out)
	}
	st := waitState(t, ts, "job-1", StateFailed)
	if !strings.Contains(st.Error, "deadline") {
		t.Errorf("timeout error = %q, want a deadline message", st.Error)
	}
}
