package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"finser"
	"finser/internal/faultinject"
	"finser/internal/journal"
	"finser/internal/obs"
)

// durableServer builds a journal-enabled server rooted at dir and runs
// Recover, failing the test on any recovery error.
func durableServer(t *testing.T, cfg Config, dir string) (*Server, RecoveryStats) {
	t.Helper()
	cfg.DataDir = dir
	s := New(cfg)
	stats, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return s, stats
}

// TestCrashRecoveryBitIdentical is the SIGKILL acceptance test: serd dies
// mid-Monte-Carlo with no chance to journal a terminal record, a fresh
// process over the same data dir replays the journal, re-runs the job from
// its checkpoint under the same ID, and lands on FIT numbers bit-identical
// to an uninterrupted run.
func TestCrashRecoveryBitIdentical(t *testing.T) {
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

	// Server A: the crash trigger fires mid-alpha (particle 2300 of 4500),
	// after the first 1500-particle bin has been checkpointed.
	trigger := make(chan struct{})
	faults := faultinject.New()
	faults.CallAt(finser.FaultSiteParticle, 2300, func() { close(trigger) })
	srvA, _ := durableServer(t, Config{Workers: 1, Faults: faults}, dir)
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
	// Crash-stop: the journal closes before any terminal record can land,
	// so the on-disk state is exactly what kill -9 leaves behind.
	srvA.Kill()
	tsA.Close()

	// Server B: replay finds job-1 in a non-terminal state and requeues it.
	regB := obs.NewRegistry()
	srvB, stats := durableServer(t, Config{Workers: 1, Metrics: regB}, dir)
	if stats.Requeued != 1 || stats.RestoredTerminal != 0 {
		t.Fatalf("recovery stats = %+v, want exactly one requeued job", stats)
	}
	srvB.Start()
	defer srvB.Drain(context.Background())
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	st := waitState(t, tsB, "job-1", StateDone)
	if !st.Recovered {
		t.Error("recovered job not marked Recovered")
	}
	if st.ResumedStages < 1 {
		t.Errorf("ResumedStages = %d, want >= 1 (checkpoint restored)", st.ResumedStages)
	}
	assertResultEqual(t, st.Result, baseline)
	if got := regB.Counter("serd/recovery/requeued").Value(); got != 1 {
		t.Errorf("recovery/requeued = %d, want 1", got)
	}
}

// corruptFrame flips one payload byte of the n-th (0-based) journal frame
// in path, walking frames by their length headers.
func corruptFrame(t *testing.T, path string, n int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for i := 0; i < n; i++ {
		off += 12 + int(binary.LittleEndian.Uint32(buf[off+4:]))
	}
	buf[off+12] ^= 0xFF
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCorruptMiddleRecord is the damaged-journal acceptance test:
// one corrupted record in the middle of the log loses exactly that record
// — jobs journaled before and after it recover, the damage is counted on
// the registry, and the server keeps serving.
func TestRecoveryCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")
	result, _ := json.Marshal(&JobResult{Vdd: 0.7})
	j, _, _, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journal.Record{
		{Kind: journal.KindSubmitted, Job: "job-1", TimeMs: 1000, Request: json.RawMessage(`{"vdd":0.7}`)},
		{Kind: journal.KindState, Job: "job-1", TimeMs: 1001, State: string(StateDone), Result: result},
		{Kind: journal.KindSubmitted, Job: "job-2", TimeMs: 1002, Request: json.RawMessage(`{"vdd":0.8}`)},
		{Kind: journal.KindSubmitted, Job: "job-3", TimeMs: 1003, Request: json.RawMessage(`{"vdd":0.9}`)},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Damage job-2's submission (frame 2, 0-based): job-1 before it and
	// job-3 after it must both survive.
	corruptFrame(t, path, 2)

	reg := obs.NewRegistry()
	instant := func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		return &JobResult{Vdd: cfg.Vdd}, nil
	}
	s, stats := durableServer(t, Config{Workers: 1, Metrics: reg, Runner: instant}, dir)
	if stats.CorruptRecords != 1 {
		t.Fatalf("CorruptRecords = %d, want 1", stats.CorruptRecords)
	}
	if stats.RestoredTerminal != 1 || stats.Requeued != 1 {
		t.Fatalf("stats = %+v, want job-1 restored and job-3 requeued", stats)
	}
	if got := reg.Counter("serd/journal/corrupt_records").Value(); got != 1 {
		t.Errorf("journal/corrupt_records = %d, want 1", got)
	}
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	st := getStatus(t, ts, "job-1")
	if st.State != StateDone || st.Result == nil || st.Result.Vdd != 0.7 {
		t.Errorf("job-1 = %s (result %+v), want done with its journaled result", st.State, st.Result)
	}
	waitState(t, ts, "job-3", StateDone)
	if _, err := s.Status("job-2"); err == nil {
		t.Error("job-2 resurrected from a corrupted submission record")
	}
	// Still serving: a fresh submission admits and finishes.
	resp, out := postJob(t, ts, `{"vdd": 0.65}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-corruption submit = %d: %s", resp.StatusCode, out)
	}
	var fresh JobStatus
	if err := json.Unmarshal(out, &fresh); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, fresh.ID, StateDone)
}

// TestIdempotentSubmission checks retry dedupe on a durable server: an
// identical resubmission (or one differing only in workers) while the
// original is queued, running, or done returns the original job with 200,
// while failed/canceled originals — and any submission on a non-durable
// server — admit fresh jobs.
func TestIdempotentSubmission(t *testing.T) {
	reg := obs.NewRegistry()
	started := make(chan string, 4)
	release := make(chan struct{})
	s, _ := durableServer(t, Config{
		Workers: 1, QueueDepth: 4, Metrics: reg,
		Runner: blockingRunner(started, release),
	}, t.TempDir())
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"vdd": 0.7, "seed": 11}`
	resp, out := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d: %s", resp.StatusCode, out)
	}
	<-started

	// Retry while running: 200 (not 202), same job, counted as deduped.
	resp, out = postJob(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry submit = %d: %s, want 200", resp.StatusCode, out)
	}
	var dup JobStatus
	if err := json.Unmarshal(out, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != "job-1" {
		t.Errorf("retry landed on %s, want job-1", dup.ID)
	}
	if got := reg.Counter("serd/jobs/deduped").Value(); got != 1 {
		t.Errorf("jobs/deduped = %d, want 1", got)
	}

	// The worker count changes no result, so a resubmission that differs
	// only in it is the same job.
	resp, out = postJob(t, ts, `{"vdd": 0.7, "seed": 11, "workers": 4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry with other workers = %d: %s, want 200", resp.StatusCode, out)
	}
	if err := json.Unmarshal(out, &dup); err != nil {
		t.Fatal(err)
	}
	if dup.ID != "job-1" {
		t.Errorf("retry with other workers landed on %s, want job-1", dup.ID)
	}

	// A canceled original does not dedupe: resubmitting is an explicit
	// "try again".
	resp, out = postJob(t, ts, `{"vdd": 0.8, "seed": 12}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit = %d: %s", resp.StatusCode, out)
	}
	var queued JobStatus
	if err := json.Unmarshal(out, &queued); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	resp, out = postJob(t, ts, `{"vdd": 0.8, "seed": 12}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after cancel = %d: %s, want a fresh 202", resp.StatusCode, out)
	}
	var again JobStatus
	if err := json.Unmarshal(out, &again); err != nil {
		t.Fatal(err)
	}
	if again.ID == queued.ID {
		t.Errorf("resubmit after cancel deduped to the canceled %s", queued.ID)
	}

	// Retry after completion returns the finished job with its result.
	close(release)
	waitState(t, ts, "job-1", StateDone)
	resp, out = postJob(t, ts, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry after done = %d: %s, want 200", resp.StatusCode, out)
	}
	var fin JobStatus
	if err := json.Unmarshal(out, &fin); err != nil {
		t.Fatal(err)
	}
	if fin.ID != "job-1" || fin.State != StateDone || fin.Result == nil {
		t.Errorf("retry after done = %s/%s (result %v), want done job-1 with result", fin.ID, fin.State, fin.Result)
	}

	// Back-compat: without a journal, identical submissions stay distinct
	// jobs (the PR 3 drain → resubmit → resume story depends on it).
	plain := New(Config{Workers: 1, Runner: func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		return &JobResult{Vdd: cfg.Vdd}, nil
	}})
	plain.Start()
	defer plain.Drain(context.Background())
	a, _ := plain.Submit(JobRequest{Vdd: 0.7})
	b, _ := plain.Submit(JobRequest{Vdd: 0.7})
	if a.ID == b.ID {
		t.Errorf("non-durable server deduped identical submissions to %s", a.ID)
	}

	// An explicit Idempotency-Key dedupes even without a journal.
	c, deduped, err := plain.SubmitIdem(JobRequest{Vdd: 0.7}, "client-key-1")
	if err != nil || deduped {
		t.Fatalf("keyed submit = (%+v, %v, %v)", c, deduped, err)
	}
	d, deduped, err := plain.SubmitIdem(JobRequest{Vdd: 0.7}, "client-key-1")
	if err != nil || !deduped || d.ID != c.ID {
		t.Errorf("keyed retry = (%s, deduped=%v, %v), want dedupe to %s", d.ID, deduped, err, c.ID)
	}
}

// TestJobTTLEvictionAndCheckpointGC checks retention: terminal jobs older
// than JobTTL leave the registry, their orphaned checkpoint files are
// garbage-collected, the evictions are counted and journaled, and a
// restart does not resurrect them.
func TestJobTTLEvictionAndCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	instant := func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		return &JobResult{Vdd: cfg.Vdd}, nil
	}
	s, _ := durableServer(t, Config{
		Workers: 1, Metrics: reg, Runner: instant, JobTTL: time.Hour,
	}, dir)
	s.Start()
	ts := httptest.NewServer(s.Handler())

	resp, out := postJob(t, ts, `{"vdd": 0.7, "seed": 21}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, out)
	}
	st := waitState(t, ts, "job-1", StateDone)

	// Plant the job's checkpoint file (the injected runner skips the
	// checkpointing pipeline) so GC has something real to collect.
	ckPath := s.checkpointPath(st.Fingerprint)
	if ckPath == "" {
		t.Fatal("no checkpoint path for the job fingerprint")
	}
	if err := os.WriteFile(ckPath, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Not yet expired: a sweep now evicts nothing.
	if n := s.evictExpired(time.Now()); n != 0 {
		t.Fatalf("evicted %d jobs before TTL", n)
	}
	// A sweep after the TTL evicts the job, its checkpoint, and its
	// idempotency-table entry.
	if n := s.evictExpired(time.Now().Add(2 * time.Hour)); n != 1 {
		t.Fatalf("evicted %d jobs after TTL, want 1", n)
	}
	if _, err := s.Status("job-1"); err == nil {
		t.Error("evicted job still queryable")
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Errorf("orphaned checkpoint survived GC: %v", err)
	}
	if got := reg.Counter("serd/jobs/evicted").Value(); got != 1 {
		t.Errorf("jobs/evicted = %d, want 1", got)
	}
	if got := reg.Counter("serd/checkpoints/gc").Value(); got != 1 {
		t.Errorf("checkpoints/gc = %d, want 1", got)
	}
	ts.Close()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Restart: the journaled eviction keeps the job dead.
	s2, stats := durableServer(t, Config{Workers: 1, Runner: instant}, dir)
	if stats.Evicted != 1 {
		t.Errorf("restart stats.Evicted = %d, want 1", stats.Evicted)
	}
	if _, err := s2.Status("job-1"); err == nil {
		t.Error("evicted job resurrected by replay")
	}
	s2.Start()
	s2.Drain(context.Background())
}

// TestDegradedDurability checks the disk-failure seam: when journal writes
// start failing, serving continues, the failure is counted and exposed on
// /readyz as degraded (200, not 503), and jobs still run to completion.
func TestDegradedDurability(t *testing.T) {
	reg := obs.NewRegistry()
	instant := func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error) {
		return &JobResult{Vdd: cfg.Vdd}, nil
	}
	s, _ := durableServer(t, Config{Workers: 1, Metrics: reg, Runner: instant}, t.TempDir())
	s.Start()
	defer s.Drain(context.Background())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fail the disk out from under the server: every later append returns
	// a typed *journal.WriteError.
	s.journal.Close()

	resp, out := postJob(t, ts, `{"vdd": 0.7, "seed": 31}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with dead journal = %d: %s, want 202 (degraded, not down)", resp.StatusCode, out)
	}
	waitState(t, ts, "job-1", StateDone)

	if got := reg.Counter("serd/journal/write_failures").Value(); got < 1 {
		t.Errorf("journal/write_failures = %d, want >= 1", got)
	}
	if msg := s.DegradedDurability(); msg == "" {
		t.Error("DegradedDurability() empty while the journal is dead")
	}
	rz, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer rz.Body.Close()
	if rz.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while degraded = %d, want 200", rz.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(rz.Body)
	if !bytes.Contains(buf.Bytes(), []byte(`"degraded"`)) {
		t.Errorf("/readyz body %s does not report degraded durability", buf.Bytes())
	}
}
