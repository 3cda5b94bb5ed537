// Package server is the SER-as-a-service layer: a bounded admission queue
// with load shedding, a fixed worker pool driving the finser flow, per-job
// deadlines, cancelable queryable job states, and a graceful drain that
// preserves checkpoints so a resubmitted job resumes bit-identically.
//
// The queue is the backpressure boundary: when it is full (or the server
// is draining) a submission is rejected immediately with ErrQueueFull /
// ErrDraining — HTTP 503 plus Retry-After — instead of piling goroutines
// onto a saturated machine. Admission is multi-tenant: the X-Tenant header
// names the tenant (default "anon"), each tenant is policed by a
// token-bucket rate limit and an in-flight quota (typed qos errors, HTTP
// 429 — distinct from the global capacity 503), and workers pull jobs from
// a weighted-fair queue over tenant × class flows (internal/qos) instead
// of a single FIFO, so an interactive job's wait is bounded by its own
// flow's backlog no matter how deep a batch tenant's queue is. With
// preemption enabled, an interactive arrival that finds every worker busy
// on batch work asks the longest-running batch job to yield at its next
// checkpoint boundary; the preempted job requeues and later resumes from
// its fingerprint-keyed checkpoint bit-identically. Each job runs
// characterize → alpha FIT → proton FIT, in process (finser.RunFlowCtx) or
// sharded across a worker pool (Config.Distributor), with no retry around
// it: in-process compute fails deterministically or on I/O, and a failed
// job resubmitted with checkpointing on resumes from its completed bins.
//
// With Config.DataDir set the job layer is durable: every lifecycle
// transition is appended to a CRC-framed fsync'd journal
// (internal/journal), and Recover — called between New and Start — replays
// it after a crash, restoring terminal jobs with their results,
// re-enqueuing jobs that were queued, and re-running jobs that were mid-
// flight from their fingerprint-keyed checkpoints so the recovered FIT is
// bit-identical to an uninterrupted run. Durable servers also dedupe
// retried submissions by idempotency key (defaulting to the flow
// fingerprint), and a failing journal disk degrades serving — /readyz
// reports lost durability — instead of crashing it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/dist"
	"finser/internal/events"
	"finser/internal/faultinject"
	"finser/internal/journal"
	"finser/internal/obs"
	"finser/internal/qos"
	"finser/internal/retry"
)

// Admission-rejection sentinels; the HTTP layer maps both to 503.
var (
	// ErrQueueFull reports a saturated admission queue.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrDraining reports a server that has stopped admitting for
	// shutdown.
	ErrDraining = errors.New("server: draining")
	// ErrUnknownJob reports a job ID with no record.
	ErrUnknownJob = errors.New("server: unknown job")
)

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultQueueDepth = 16
	DefaultWorkers    = 2
	DefaultJobTimeout = time.Hour
	DefaultRetryAfter = 5 * time.Second
	// DefaultHeartbeat is the SSE keep-alive comment interval — frequent
	// enough to defeat common idle-connection timeouts, rare enough to cost
	// nothing.
	DefaultHeartbeat = 15 * time.Second
	// DefaultJournalMaxBytes is the journal size past which the retention
	// sweeper compacts it by atomic rotation.
	DefaultJournalMaxBytes = 4 << 20
	// DefaultRetryAfterMax caps the load-aware 503 Retry-After hint.
	DefaultRetryAfterMax = 60 * time.Second
)

// errPreempted is the cancel cause a preemption attaches to the running
// job's per-run context, distinguishing a yield from a user cancel.
var errPreempted = errors.New("server: preempted for interactive work")

// Config assembles a Server. The zero value is usable: a 16-deep queue,
// 2 workers, 1 h job deadline, no metrics, no checkpointing.
type Config struct {
	// QueueDepth bounds the number of admitted-but-not-running jobs.
	QueueDepth int
	// Workers is the fixed worker-pool size (concurrent jobs).
	Workers int
	// JobTimeout is the default per-job deadline; requests may override
	// it per job. Zero selects 1 h; negative disables the deadline.
	JobTimeout time.Duration
	// RetryAfter is the back-off hint returned with 503 rejections.
	RetryAfter time.Duration
	// Retry is read by nothing.
	//
	// Deprecated: it shaped a per-stage retry around in-process compute,
	// which is gone: that compute fails deterministically (a retry repeats
	// the failure) or on I/O (a resubmission resumes from the checkpoint).
	// The field stays only because the checked-in benchmark (perfbench)
	// still sets it.
	Retry retry.Policy
	// Breaker is read by nothing.
	//
	// Deprecated: it templated per-tenant × species circuit breakers
	// around in-process compute, which are gone for the reason Retry
	// gives. A coordinator's per-worker breakers are dist.Config.Breaker.
	// The field stays only because perfbench still sets it.
	Breaker breaker.Config
	// CheckpointDir, when non-empty, stores one checkpoint file per job
	// configuration fingerprint, so a drained or crashed job's completed
	// FIT bins survive and an identical resubmission resumes from them.
	CheckpointDir string
	// Metrics, when non-nil, receives serving-layer counters and gauges
	// (serd/*) and is threaded through each job's flow as FlowConfig.Obs.
	Metrics *obs.Registry
	// Faults, when non-nil, is injected into every job's flow — for
	// robustness tests only.
	Faults *faultinject.Hooks
	// Guard selects the physics-invariant enforcement mode threaded into
	// every job's flow (finser.GuardOff/GuardWarn/GuardStrict). Violations
	// are counted on Metrics under guard/* and show up in /metrics.
	Guard finser.GuardMode
	// GuardLog, when non-nil, receives warn-mode guard violation logs.
	GuardLog finser.GuardLogf
	// Heartbeat is the SSE keep-alive comment interval on /jobs/{id}/events.
	// Zero selects DefaultHeartbeat.
	Heartbeat time.Duration
	// EventBuffer is each job's event-ring capacity — the replay window an
	// SSE reconnect (Last-Event-ID) can recover losslessly. Zero selects
	// events.DefaultCapacity.
	EventBuffer int
	// Logger, when non-nil, receives one structured line per job lifecycle
	// step, each stamped with the job ID and configuration fingerprint
	// (obs.NewJSONLogger / NewTextLogger fit). Nil disables logging.
	Logger *slog.Logger
	// Runner overrides the production flow — tests inject blocking or
	// instant runners. Nil selects the real flow. Injected runners receive
	// the same telemetry-instrumented FlowConfig (BinDone, GuardEvent,
	// Progress wired to the job's event stream) the real flow gets.
	Runner func(ctx context.Context, cfg finser.FlowConfig) (*JobResult, error)
	// Distributor, when non-nil, switches the server into coordinator
	// mode: jobs run by sharding across a worker-serd pool (dist.New fits)
	// instead of in process. Runner still wins when both are set.
	// /readyz reflects Ready() so a pool with every breaker open reports
	// 503.
	Distributor Distributor
	// ShardConcurrency bounds concurrent shard computations on the worker
	// /shards endpoint; excess shard requests shed with 503 so the
	// coordinator routes them elsewhere. Zero selects Workers.
	ShardConcurrency int
	// DataDir, when non-empty, makes the job layer durable: a write-ahead
	// journal of job lifecycle records lives under it (journal.wal), and —
	// unless CheckpointDir is set — per-job checkpoints default to its
	// checkpoints/ subdirectory. Call Recover between New and Start to
	// replay the journal; without that call the journal stays disabled.
	DataDir string
	// JobTTL evicts terminal jobs from the in-memory registry (and their
	// orphaned checkpoint files from disk) this long after they finish, so
	// sustained traffic cannot grow the job map without bound. Zero keeps
	// terminal jobs forever.
	JobTTL time.Duration
	// JournalMaxBytes triggers compacting journal rotation once the log
	// exceeds it. Zero selects DefaultJournalMaxBytes.
	JournalMaxBytes int64
	// TenantWeights gives named tenants a fair-queue weight (unlisted
	// tenants weigh 1). A tenant's share under contention is proportional
	// to its weight.
	TenantWeights map[string]float64
	// ClassWeights overrides the interactive/batch fair-queue weights.
	// Nil selects qos.DefaultClassWeights (interactive 10 : batch 1).
	ClassWeights map[string]float64
	// TenantRate is each tenant's sustained submission rate (jobs/second);
	// TenantBurst the token-bucket depth (<= 0: max(1, rate)). Rate <= 0
	// disables rate limiting. Over-rate submissions get a typed 429.
	TenantRate  float64
	TenantBurst float64
	// TenantQuota bounds one tenant's in-flight jobs (queued + running);
	// <= 0 disables. Over-quota submissions get a typed 429.
	TenantQuota int
	// Preempt enables checkpoint-boundary preemption: an interactive
	// arrival that finds all workers busy on batch jobs asks the
	// longest-running batch job to yield; it requeues and resumes from its
	// checkpoint. Requires CheckpointDir (or DataDir) so yielded work is
	// never lost.
	Preempt bool
	// RetryAfterMax caps the load-aware 503 Retry-After hint. Zero selects
	// DefaultRetryAfterMax.
	RetryAfterMax time.Duration
}

// Distributor runs one job's FIT across a remote worker pool. It is the
// seam between the serving layer and internal/dist: the server owns job
// lifecycle, checkpoint store, and the event stream; the distributor owns
// sharding, stealing, retry, and the bit-identical merge.
type Distributor interface {
	// Run executes the job, reporting shard lifecycle transitions to emit.
	Run(ctx context.Context, cfg finser.FlowConfig, emit func(dist.ShardEvent)) (*dist.Result, error)
	// Ready reports whether the pool can make progress (nil = ready).
	Ready() error
}

// Server is the resilient SER job daemon core. Construct with New, launch
// the pool with Start, serve Handler, stop with Drain.
type Server struct {
	cfg      Config
	reg      *obs.Registry
	sched    *qos.Scheduler
	limiter  *qos.Limiter
	mux      *http.ServeMux
	wg       sync.WaitGroup
	running  atomic.Int64
	started  time.Time
	build    buildInfo
	shardSem chan struct{}

	// journal is the durable job log (nil until Recover enables it).
	// degradedErr holds the latest journal write failure while durability
	// is degraded, nil while healthy.
	journal     *journal.Journal
	degradedErr atomic.Pointer[string]

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string
	idem     map[string]string // idempotency key → job ID
	nextID   int
	draining bool
	baseCtx  context.Context
	stop     context.CancelFunc
}

// New builds a server (workers not yet started).
func New(cfg Config) *Server {
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Workers <= 0 {
		cfg.Workers = DefaultWorkers
	}
	if cfg.JobTimeout == 0 {
		cfg.JobTimeout = DefaultJobTimeout
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = DefaultRetryAfter
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.JournalMaxBytes <= 0 {
		cfg.JournalMaxBytes = DefaultJournalMaxBytes
	}
	if cfg.RetryAfterMax <= 0 {
		cfg.RetryAfterMax = DefaultRetryAfterMax
	}
	if cfg.DataDir != "" && cfg.CheckpointDir == "" {
		cfg.CheckpointDir = filepath.Join(cfg.DataDir, "checkpoints")
	}
	baseCtx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg: cfg,
		reg: cfg.Metrics,
		sched: qos.NewScheduler(qos.SchedulerConfig{
			Capacity:      cfg.QueueDepth,
			ClassWeights:  cfg.ClassWeights,
			TenantWeights: cfg.TenantWeights,
		}),
		limiter: qos.NewLimiter(qos.LimiterConfig{
			Rate:  cfg.TenantRate,
			Burst: cfg.TenantBurst,
			Quota: cfg.TenantQuota,
		}),
		jobs:    map[string]*job{},
		idem:    map[string]string{},
		baseCtx: baseCtx,
		stop:    stop,
		started: time.Now(),
		build:   readBuildInfo(),
	}
	if cfg.ShardConcurrency <= 0 {
		cfg.ShardConcurrency = cfg.Workers
	}
	s.shardSem = make(chan struct{}, cfg.ShardConcurrency)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /shards", s.handleShard)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// RecoveryStats summarizes one journal replay.
type RecoveryStats struct {
	// Requeued is how many non-terminal jobs went back on the queue (jobs
	// that were mid-flight resume from their checkpoints when they run).
	Requeued int
	// RestoredTerminal is how many finished jobs were restored with their
	// recorded state and result.
	RestoredTerminal int
	// Invalid is how many journaled specs failed re-validation (or could
	// not be decoded); the decodable ones are restored as failed jobs so
	// clients polling them get an answer.
	Invalid int
	// Evicted is how many journaled jobs were dropped because an eviction
	// record retired them.
	Evicted int
	// CorruptRecords is how many damaged journal regions were skipped
	// (each one also counted on the serd/journal/corrupt_records metric).
	CorruptRecords int
}

// Recover opens the DataDir journal and rebuilds the job registry a dead
// process left behind: terminal jobs come back queryable with their
// results, queued and mid-flight jobs go back on the queue (the latter
// resume from their fingerprint-keyed checkpoints, reproducing the
// uninterrupted FIT bit-identically), and the idempotency table is rebuilt
// so client retries of pre-crash submissions dedupe instead of
// double-running. Every replayed spec goes through the same validation
// path as a fresh submission — the guard policy is re-attached, and a spec
// the current server no longer accepts is restored as a failed job rather
// than run. Corrupt journal records are skipped and counted, never fatal;
// only an unopenable journal fails Recover. Call between New and Start;
// without DataDir it is a no-op.
func (s *Server) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.cfg.DataDir == "" {
		return stats, nil
	}
	if err := os.MkdirAll(s.cfg.DataDir, 0o755); err != nil {
		return stats, err
	}
	if s.cfg.CheckpointDir != "" {
		if err := os.MkdirAll(s.cfg.CheckpointDir, 0o755); err != nil {
			return stats, err
		}
	}
	jnl, recs, rst, err := journal.Open(filepath.Join(s.cfg.DataDir, "journal.wal"))
	if err != nil {
		return stats, err
	}
	s.journal = jnl
	stats.CorruptRecords = len(rst.Errors)
	s.reg.Counter("serd/journal/replayed_records").Add(int64(rst.Records))
	s.reg.Counter("serd/journal/corrupt_records").Add(int64(len(rst.Errors)))
	for _, ce := range rst.Errors {
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("journal record skipped", "error", ce.Error())
		}
	}

	// Fold the record sequence into one latest-state entry per job.
	type folded struct {
		sub     *journal.Record
		state   string
		errMsg  string
		result  json.RawMessage
		lastMs  int64
		evicted bool
	}
	byJob := map[string]*folded{}
	var ord []string
	for i := range recs {
		r := &recs[i]
		switch r.Kind {
		case journal.KindSubmitted:
			if _, dup := byJob[r.Job]; dup {
				continue // first submission wins; a duplicate is journal damage
			}
			byJob[r.Job] = &folded{sub: r}
			ord = append(ord, r.Job)
		case journal.KindState:
			f := byJob[r.Job]
			if f == nil {
				// A state record whose submission was lost to corruption
				// must never materialize a ghost job.
				s.reg.Counter("serd/recovery/orphan_records").Inc()
				continue
			}
			f.state, f.errMsg, f.lastMs = r.State, r.Error, r.TimeMs
			if len(r.Result) > 0 {
				f.result = r.Result
			}
		case journal.KindEvicted:
			if f := byJob[r.Job]; f != nil {
				f.evicted = true
			}
		}
	}

	var requeue []*job
	maxID := 0
	s.mu.Lock()
	for _, id := range ord {
		f := byJob[id]
		if f.evicted {
			stats.Evicted++
			continue
		}
		var n int
		if _, serr := fmt.Sscanf(id, "job-%d", &n); serr == nil && n > maxID {
			maxID = n
		}
		var req JobRequest
		if uerr := json.Unmarshal(f.sub.Request, &req); uerr != nil {
			stats.Invalid++
			s.reg.Counter("serd/recovery/invalid_specs").Inc()
			continue
		}
		tenant := f.sub.Tenant
		if tenant == "" {
			tenant = qos.DefaultTenant
		}
		class := f.sub.Class
		if class == "" {
			class = req.class()
		}
		j := &job{
			id:          id,
			req:         req,
			submitted:   time.UnixMilli(f.sub.TimeMs),
			fingerprint: f.sub.Fingerprint,
			idemKey:     f.sub.IdempotencyKey,
			recovered:   true,
			tenant:      tenant,
			class:       class,
			cost:        estimateCost(req),
		}
		j.events = events.NewStream(s.cfg.EventBuffer, func() {
			s.reg.Counter("serd/events/dropped_subscribers").Inc()
		})
		j.log = obs.JobLogger(s.cfg.Logger, j.id, j.fingerprint)

		// Replay goes through the same admission validation as a live
		// submission: re-derive the flow config and re-attach the server's
		// guard policy. A spec this server no longer accepts is restored as
		// a failed job — queryable, never run.
		cfg, cerr := req.flowConfig()
		if cerr == nil {
			cerr = cfg.Validate()
		}
		switch {
		case cerr != nil:
			stats.Invalid++
			s.reg.Counter("serd/recovery/invalid_specs").Inc()
			j.state = StateFailed
			j.err = "recovery re-validation: " + cerr.Error()
			j.finished = time.Now()
			s.publish(j, events.Event{Type: events.TypeRecovery, State: "failed-validation", Error: j.err})
			s.publish(j, events.Event{Type: events.TypeState, State: string(StateFailed), Error: j.err})
			j.events.Close()
		case f.state == string(StateDone) && len(f.result) > 0 && json.Unmarshal(f.result, &j.result) == nil:
			j.state = StateDone
			j.finished = time.UnixMilli(f.lastMs)
			stats.RestoredTerminal++
			s.publish(j, events.Event{Type: events.TypeRecovery, State: "restored"})
			s.publish(j, events.Event{Type: events.TypeState, State: string(StateDone)})
			j.events.Close()
		case f.state == string(StateFailed) || f.state == string(StateCanceled):
			j.state = JobState(f.state)
			j.err = f.errMsg
			j.finished = time.UnixMilli(f.lastMs)
			stats.RestoredTerminal++
			s.publish(j, events.Event{Type: events.TypeRecovery, State: "restored"})
			s.publish(j, events.Event{Type: events.TypeState, State: string(j.state), Error: j.err})
			j.events.Close()
		default:
			// Queued, running, or done-with-unreadable-result: run it
			// (again). Determinism makes the re-run idempotent, and the
			// checkpoint store skips whatever already completed.
			cfg.Guard = s.cfg.Guard
			cfg.GuardLog = s.cfg.GuardLog
			j.cfg = cfg
			j.result = nil
			requeue = append(requeue, j)
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
		if j.idemKey != "" {
			s.idem[j.idemKey] = id
		}
	}
	if s.nextID < maxID {
		s.nextID = maxID
	}
	for _, j := range requeue {
		jctx, jcancel := context.WithCancel(s.baseCtx)
		j.ctx, j.cancel = jctx, jcancel
		j.state = StateQueued
		// ForcePush: every job admitted before the crash goes back on the
		// fair queue regardless of the configured capacity, and Restore
		// re-counts it against its tenant's quota without re-checking the
		// limit — a pre-crash admission is never refused its own slot.
		s.sched.ForcePush(j.tenant, j.class, j.cost, j)
		s.limiter.Restore(j.tenant)
		stats.Requeued++
		s.publish(j, events.Event{Type: events.TypeRecovery, State: "requeued"})
		s.publish(j, events.Event{Type: events.TypeState, State: string(StateQueued)})
		j.logInfo("job recovered from journal", "requeued", true)
	}
	s.mu.Unlock()

	s.reg.Counter("serd/recovery/requeued").Add(int64(stats.Requeued))
	s.reg.Counter("serd/recovery/terminal_restored").Add(int64(stats.RestoredTerminal))
	// Compact immediately: the rewritten journal drops corrupt regions,
	// evicted jobs, and stale intermediate state records.
	if rst.Records > 0 || len(rst.Errors) > 0 {
		s.rotateJournal()
	}
	return stats, nil
}

// Kill crash-stops the server: the journal is closed first so no terminal
// record can land, then every job context is cut and the workers are
// awaited. On disk this is indistinguishable from a SIGKILL mid-run —
// which is exactly what the chaos tests use it for. Production shutdown
// is Drain; Kill is the unclean path.
func (s *Server) Kill() {
	if s.journal != nil {
		s.journal.Close()
	}
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.sched.Close()
	s.stop()
	s.wg.Wait()
}

// sweepLoop periodically evicts expired terminal jobs and compacts the
// journal; it exits when the server's base context is cut (Drain/Kill).
func (s *Server) sweepLoop() {
	interval := s.cfg.JobTTL / 4
	if interval < 25*time.Millisecond {
		interval = 25 * time.Millisecond
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-tick.C:
			s.evictExpired(time.Now())
			if s.journal != nil && s.journal.Size() > s.cfg.JournalMaxBytes {
				s.rotateJournal()
			}
		}
	}
}

// evictExpired removes terminal jobs older than JobTTL from the registry,
// journals the eviction (so replay does not resurrect them), and garbage-
// collects their checkpoint files when no surviving job shares the
// fingerprint. Returns how many jobs were evicted.
func (s *Server) evictExpired(now time.Time) int {
	ttl := s.cfg.JobTTL
	if ttl <= 0 {
		return 0
	}
	s.mu.Lock()
	var evicted []*job
	keep := make([]string, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state.Terminal() && !j.finished.IsZero() && now.Sub(j.finished) >= ttl {
			evicted = append(evicted, j)
			delete(s.jobs, id)
			if j.idemKey != "" && s.idem[j.idemKey] == id {
				delete(s.idem, j.idemKey)
			}
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	liveFP := map[string]bool{}
	for _, id := range s.order {
		if fp := s.jobs[id].fingerprint; fp != "" {
			liveFP[fp] = true
		}
	}
	s.mu.Unlock()

	for _, j := range evicted {
		s.journalAppend(journal.Record{Kind: journal.KindEvicted, Job: j.id})
		s.reg.Counter("serd/jobs/evicted").Inc()
		if path := s.checkpointPath(j.fingerprint); path != "" && !liveFP[j.fingerprint] {
			if err := os.Remove(path); err == nil {
				s.reg.Counter("serd/checkpoints/gc").Inc()
			}
		}
		j.logInfo("job evicted", "age_seconds", now.Sub(j.finished).Seconds())
	}
	return len(evicted)
}

// checkpointPath returns the fingerprint-keyed checkpoint file for fp, or
// "" when checkpointing is off or the fingerprint is unusable.
func (s *Server) checkpointPath(fp string) string {
	if s.cfg.CheckpointDir == "" || len(fp) < 16 {
		return ""
	}
	return filepath.Join(s.cfg.CheckpointDir, "ser-"+fp[:16]+".ck.json")
}

// rotateJournal atomically compacts the journal down to the live job
// registry — one submitted record per job plus its latest state.
func (s *Server) rotateJournal() {
	if s.journal == nil {
		return
	}
	s.mu.Lock()
	live := make([]journal.Record, 0, 2*len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		reqJSON, err := json.Marshal(j.req)
		if err != nil {
			continue
		}
		live = append(live, journal.Record{
			Kind: journal.KindSubmitted, Job: j.id, TimeMs: j.submitted.UnixMilli(),
			Request: reqJSON, Fingerprint: j.fingerprint, IdempotencyKey: j.idemKey,
			Tenant: j.tenant, Class: j.class,
		})
		if j.state == StateQueued {
			continue
		}
		rec := journal.Record{
			Kind: journal.KindState, Job: j.id, State: string(j.state), Error: j.err,
			TimeMs: j.finished.UnixMilli(),
		}
		if j.state == StateDone && j.result != nil {
			if res, rerr := json.Marshal(j.result); rerr == nil {
				rec.Result = res
			}
		}
		live = append(live, rec)
	}
	s.mu.Unlock()
	if err := s.journal.Rotate(live); err != nil {
		s.reg.Counter("serd/journal/write_failures").Inc()
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("journal rotation failed", "error", err.Error())
		}
		return
	}
	s.reg.Counter("serd/journal/rotations").Inc()
}

// Start launches the worker pool (and, with JobTTL set, the retention
// sweeper). Call once, after any Recover.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for {
				it, ok := s.sched.Pop()
				if !ok {
					return
				}
				s.runJob(it.(*job))
			}
		}()
	}
	if s.cfg.JobTTL > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.sweepLoop()
		}()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit validates and admits a job. It returns the queued job's status,
// or ErrDraining / ErrQueueFull when admission is shut, or a 400-class
// validation error (*RequestError / *finser.ConfigError).
func (s *Server) Submit(req JobRequest) (JobStatus, error) {
	st, _, err := s.SubmitIdem(req, "")
	return st, err
}

// SubmitIdem is Submit with an idempotency key: when the key (or, on a
// durable server, its default — the flow fingerprint) matches a job that
// is queued, running, or done, the original job's status is returned with
// deduped=true instead of admitting a double-run. A client whose first
// submission's response was lost to a crash retries safely: it lands on
// the same job and, once that finishes, on its result. Failed and canceled
// originals do not dedupe — resubmitting one is an explicit "try again"
// (it still resumes from the original's checkpoint).
func (s *Server) SubmitIdem(req JobRequest, idemKey string) (JobStatus, bool, error) {
	return s.SubmitTenant(req, idemKey, "")
}

// SubmitTenant is SubmitIdem on behalf of a named tenant ("" selects
// qos.DefaultTenant). The tenant is policed by the per-tenant rate limit
// and in-flight quota (typed *qos.RateError / *qos.QuotaError — HTTP 429,
// the tenant is over budget) before the global capacity check (ErrQueueFull
// — HTTP 503, the server is full), and the job lands in the tenant ×
// class fair-queue flow.
func (s *Server) SubmitTenant(req JobRequest, idemKey, tenant string) (JobStatus, bool, error) {
	if tenant == "" {
		tenant = qos.DefaultTenant
	}
	cfg, err := req.flowConfig()
	if err != nil {
		return JobStatus{}, false, err
	}
	if err := cfg.Validate(); err != nil {
		return JobStatus{}, false, err
	}
	// The guard configuration is the server's policy, not the client's:
	// attach it at admission so every execution path (including injected
	// runners) sees it.
	cfg.Guard = s.cfg.Guard
	cfg.GuardLog = s.cfg.GuardLog

	// The fingerprint keys the job's checkpoint file, serves as the default
	// idempotency key, and correlates its log lines, metrics, and event
	// stream; cfg already validated, so this cannot fail — but a failure
	// only costs the correlation key.
	fingerprint := ""
	if fp, ferr := finser.FlowFingerprint(cfg, []float64{cfg.Vdd}); ferr == nil {
		fingerprint = fp
	}
	if idemKey == "" && s.journal != nil {
		idemKey = fingerprint
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if idemKey != "" {
		if id, ok := s.idem[idemKey]; ok {
			if j, ok := s.jobs[id]; ok && j.state != StateFailed && j.state != StateCanceled {
				s.reg.Counter("serd/jobs/deduped").Inc()
				j.logInfo("submission deduped to existing job", "idempotency_key", idemKey)
				return j.status(), true, nil
			}
		}
	}
	if s.draining {
		s.reg.Counter("serd/jobs/rejected_draining").Inc()
		return JobStatus{}, false, ErrDraining
	}
	// Per-tenant policing before global capacity: an over-budget tenant
	// gets its typed 429 even when the server has room, and never burns a
	// queue slot. Rate first (cheap, burns a token only on success), then
	// the in-flight quota.
	class := req.class()
	if err := s.limiter.Admit(tenant); err != nil {
		s.reg.Counter(obs.Labeled("serd/tenant/rejected_rate", "tenant", tenant)).Inc()
		return JobStatus{}, false, err
	}
	if err := s.limiter.Acquire(tenant); err != nil {
		s.reg.Counter(obs.Labeled("serd/tenant/rejected_quota", "tenant", tenant)).Inc()
		return JobStatus{}, false, err
	}
	s.nextID++
	jctx, jcancel := context.WithCancel(s.baseCtx)
	j := &job{
		id:          fmt.Sprintf("job-%d", s.nextID),
		req:         req,
		cfg:         cfg,
		state:       StateQueued,
		submitted:   time.Now(),
		cancel:      jcancel,
		ctx:         jctx,
		fingerprint: fingerprint,
		idemKey:     idemKey,
		tenant:      tenant,
		class:       class,
		cost:        estimateCost(req),
	}
	if perr := s.sched.Push(tenant, class, j.cost, j); perr != nil {
		// Load shedding: a full queue refuses immediately rather than
		// accumulating unbounded goroutines or latency.
		s.nextID--
		jcancel()
		s.limiter.Release(tenant)
		s.reg.Counter("serd/jobs/rejected_full").Inc()
		if errors.Is(perr, qos.ErrClosed) {
			return JobStatus{}, false, ErrDraining
		}
		return JobStatus{}, false, ErrQueueFull
	}
	j.events = events.NewStream(s.cfg.EventBuffer, func() {
		s.reg.Counter("serd/events/dropped_subscribers").Inc()
	})
	j.log = obs.JobLogger(s.cfg.Logger, j.id, j.fingerprint)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if idemKey != "" {
		s.idem[idemKey] = j.id
	}
	if reqJSON, jerr := json.Marshal(req); jerr == nil {
		s.journalAppend(journal.Record{
			Kind: journal.KindSubmitted, Job: j.id, Request: reqJSON,
			Fingerprint: j.fingerprint, IdempotencyKey: idemKey,
			Tenant: tenant, Class: class,
		})
	}
	s.reg.Counter("serd/jobs/submitted").Inc()
	s.reg.Counter(obs.Labeled("serd/tenant/jobs_submitted", "tenant", tenant, "class", class)).Inc()
	s.reg.Gauge("serd/queue/depth").Set(float64(s.sched.Len()))
	s.publish(j, events.Event{Type: events.TypeState, State: string(StateQueued)})
	j.logInfo("job queued", "vdd", cfg.Vdd, "tenant", tenant, "class", class, "queue_depth", s.sched.Len())
	if class == qos.ClassInteractive && s.cfg.Preempt && s.cfg.CheckpointDir != "" {
		s.maybePreemptLocked(j)
	}
	return j.status(), false, nil
}

// maybePreemptLocked asks the longest-running batch job to yield its
// worker when an interactive job has just been queued and every worker is
// busy. The victim's per-run context is cancelled with errPreempted — its
// flow unwinds cooperatively at the next checkpoint boundary (each
// completed FIT bin is already saved), requeues, and later resumes
// bit-identically. Interactive and already-preempting jobs are never
// victims. Callers hold s.mu.
func (s *Server) maybePreemptLocked(trigger *job) {
	if s.running.Load() < int64(s.cfg.Workers) {
		return // a worker is (or is about to be) free; WFQ order suffices
	}
	var victim *job
	for _, id := range s.order {
		c := s.jobs[id]
		if c.state != StateRunning || c.class != qos.ClassBatch ||
			c.preemptPending || c.preemptCancel == nil {
			continue
		}
		if victim == nil || c.started.Before(victim.started) {
			victim = c
		}
	}
	if victim == nil {
		return
	}
	victim.preemptPending = true
	victim.preemptCancel(errPreempted)
	s.reg.Counter("serd/jobs/preempt_requested").Inc()
	victim.logInfo("preemption requested", "for_job", trigger.id, "for_tenant", trigger.tenant)
}

// estimateCost is the WFQ cost estimate for one job — relative Monte-Carlo
// work units (bins × iterations, plus characterization samples). Precision
// is unimportant: the fair queue only needs costs to scale with runtime so
// a cheap interactive lookup's virtual finish tag stays far below a
// million-particle batch job's.
func estimateCost(req JobRequest) float64 {
	samples := req.Samples
	if samples <= 0 {
		samples = 1000
	}
	iters := req.ItersPerBin
	if iters <= 0 {
		iters = 50000
	}
	alphaBins := req.AlphaBins
	if alphaBins <= 0 {
		alphaBins = 12
	}
	protonBins := req.ProtonBins
	if protonBins <= 0 {
		protonBins = 16
	}
	return float64(samples) + float64(iters)*float64(alphaBins+protonBins)
}

// publish stamps the job ID onto e and publishes it to the job's stream,
// counting accepted events on the registry.
func (s *Server) publish(j *job, e events.Event) {
	e.Job = j.id
	if j.events.Publish(e) != 0 {
		s.reg.Counter("serd/events/published").Inc()
	}
}

// journalAppend records one lifecycle transition in the durable journal,
// stamping the wall time. Failures never propagate to the job: they flip
// the server into degraded-durability mode (counted, flagged on /readyz,
// warned once per episode) while serving continues; the first later
// success — disk freed, device back — restores healthy mode. No-op
// without a journal. Safe to call with or without s.mu held: the journal
// has its own lock and never takes the server's.
func (s *Server) journalAppend(rec journal.Record) {
	if s.journal == nil {
		return
	}
	rec.TimeMs = time.Now().UnixMilli()
	if err := s.journal.Append(rec); err != nil {
		s.reg.Counter("serd/journal/write_failures").Inc()
		s.reg.Gauge("serd/journal/degraded").Set(1)
		msg := err.Error()
		if s.degradedErr.Swap(&msg) == nil && s.cfg.Logger != nil {
			s.cfg.Logger.Warn("journal write failed: durability degraded, serving continues",
				"error", msg)
		}
		return
	}
	s.reg.Counter("serd/journal/appends").Inc()
	if s.degradedErr.Swap(nil) != nil {
		s.reg.Gauge("serd/journal/degraded").Set(0)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Info("journal write succeeded: durability restored")
		}
	}
}

// DegradedDurability returns the latest journal write failure while the
// server is serving without durability, or "" when the journal is healthy
// (or absent).
func (s *Server) DegradedDurability() string {
	if msg := s.degradedErr.Load(); msg != nil {
		return *msg
	}
	return ""
}

// latency returns one of the serving-layer latency histograms, with
// exponential buckets from 1 ms to ~9 min.
func (s *Server) latency(name string) *obs.Histogram {
	return s.reg.Histogram("serd/latency/"+name+"_seconds", obs.ExpBuckets(0.001, 2, 20))
}

// Status returns one job's state.
func (s *Server) Status(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j.status(), nil
}

// List returns every job in admission order.
func (s *Server) List() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	return out
}

// Cancel cancels a job: a queued job is finalized immediately (workers
// skip it), a running one has its context cancelled and finalizes when the
// flow unwinds. Cancelling a terminal job is a no-op.
func (s *Server) Cancel(id string) (JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.state {
	case StateQueued:
		j.cancel()
		s.finalizeLocked(j, StateCanceled, "canceled while queued")
	case StateRunning:
		j.cancel()
	}
	return j.status(), nil
}

// Draining reports whether admission is shut.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain gracefully shuts the server down: stop admitting (new submissions
// see ErrDraining, /readyz flips to 503), cancel every queued and running
// job, and wait for the workers to unwind. Running flows stop
// cooperatively within milliseconds; their completed FIT bins are already
// checkpointed, so a resubmission after restart resumes bit-identically.
// The context bounds the wait.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	// Close after draining is visible: admission checks draining under
	// s.mu, and preemption requeues do too, so nothing pushes after Close.
	// Workers keep popping the backlog (each popped job finalizes as
	// canceled once its context is cut below), then exit on the closed
	// scheduler.
	s.sched.Close()
	s.stop() // cancels every job context derived from baseCtx

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Clean shutdown: every in-flight cancellation has journaled its
		// terminal record, so the journal can close at a frame boundary.
		if s.journal != nil {
			s.journal.Close()
		}
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// RetryAfter returns the 503 back-off hint.
func (s *Server) RetryAfter() time.Duration { return s.cfg.RetryAfter }

// runJob drives one admitted job through its flow and finalizes it.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		s.mu.Unlock()
		return
	}
	if err := j.ctx.Err(); err != nil { // drain landed before pickup
		s.finalizeLocked(j, StateCanceled, "canceled before start: server draining")
		s.mu.Unlock()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	// The per-run context layers under the job context: a preemption cuts
	// only this run (the job requeues), while j.cancel and drains cut
	// j.ctx and stay terminal.
	runCtx, preemptCancel := context.WithCancelCause(j.ctx)
	j.preemptCancel = preemptCancel
	j.preemptPending = false
	resumedRun := j.preempts > 0
	s.reg.Gauge("serd/queue/depth").Set(float64(s.sched.Len()))
	s.reg.Gauge("serd/jobs/running").Set(float64(s.running.Add(1)))
	queueWait := j.started.Sub(j.submitted)
	s.mu.Unlock()
	defer func() { s.reg.Gauge("serd/jobs/running").Set(float64(s.running.Add(-1))) }()
	defer preemptCancel(nil)
	s.latency("queue_wait").Observe(queueWait.Seconds())
	s.journalAppend(journal.Record{Kind: journal.KindState, Job: j.id, State: string(StateRunning)})
	s.publish(j, events.Event{Type: events.TypeState, State: string(StateRunning)})
	if resumedRun {
		s.reg.Counter("serd/jobs/preempt_resumed").Inc()
		s.publish(j, events.Event{Type: events.TypeResumed, State: string(StateRunning)})
		j.logInfo("job resuming after preemption", "preemptions", j.preempts)
	}
	j.logInfo("job running", "queue_wait_seconds", queueWait.Seconds())
	s.instrumentFlow(j)

	ctx := runCtx
	timeout := s.cfg.JobTimeout
	if j.req.TimeoutSeconds > 0 {
		timeout = time.Duration(j.req.TimeoutSeconds * float64(time.Second))
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var res *JobResult
	var err error
	if s.cfg.Runner != nil {
		res, err = s.cfg.Runner(ctx, j.cfg)
	} else {
		res, err = s.runFlow(ctx, j)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	j.preemptCancel = nil
	preempted := j.preemptPending
	j.preemptPending = false
	switch {
	case err == nil:
		// The flow can finish before noticing a pending preemption — a
		// completed job always wins over a requeue.
		j.result = res
		s.finalizeLocked(j, StateDone, "")
	case preempted && errors.Is(err, context.Canceled) && j.ctx.Err() == nil && !s.draining:
		// Preemption requeue: only when the yield's cancellation (and not a
		// user cancel, drain, or timeout) unwound the flow. Completed bins
		// are checkpointed, so the resume is bit-identical.
		j.state = StateQueued
		j.preempts++
		s.reg.Counter("serd/jobs/preempted").Inc()
		s.reg.Counter(obs.Labeled("serd/tenant/jobs_preempted", "tenant", j.tenant)).Inc()
		s.journalAppend(journal.Record{Kind: journal.KindState, Job: j.id, State: string(StateQueued)})
		s.publish(j, events.Event{Type: events.TypePreempted, State: string(StateQueued)})
		s.publish(j, events.Event{Type: events.TypeState, State: string(StateQueued)})
		j.logInfo("job preempted at checkpoint boundary", "preemptions", j.preempts)
		s.sched.ForcePush(j.tenant, j.class, j.cost, j)
	case errors.Is(err, context.Canceled):
		msg := "canceled"
		if s.draining {
			msg = "canceled: server draining (resubmit to resume from checkpoint)"
		}
		s.finalizeLocked(j, StateCanceled, msg)
	case errors.Is(err, context.DeadlineExceeded):
		s.finalizeLocked(j, StateFailed, fmt.Sprintf("deadline %v exceeded: %v", timeout, err))
	default:
		s.finalizeLocked(j, StateFailed, err.Error())
	}
}

// instrumentFlow wires the job's flow callbacks to its event stream, so
// per-bin FIT results, guard violations, and throttled progress reach
// streaming clients as they happen. Both the production flow and injected
// test runners run under the instrumented config.
func (s *Server) instrumentFlow(j *job) {
	j.cfg.BinDone = func(be finser.BinEvent) {
		ev := events.Event{
			Type: events.TypeBin, Stage: be.Stage, Bin: be.Bin, Bins: be.Bins,
			EnergyMeV: be.Point.EnergyMeV, POF: be.Point.Tot, POFStdErr: be.Point.TotStdErr,
			FITSoFar: be.FITSoFar, Resumed: be.Resumed,
		}
		if be.Adaptive {
			ev.RelErr = be.Conv.RelErr
			ev.Tol = be.Conv.Tol
			ev.Converged = be.Conv.Converged
			ev.Batches = be.Conv.Batches
			ev.StrikesSaved = be.Conv.StrikesSaved
		}
		s.publish(j, ev)
	}
	j.cfg.GuardEvent = func(v finser.GuardViolation) {
		s.publish(j, events.Event{
			Type: events.TypeViolation, Stage: v.Stage,
			Invariant: v.Invariant, Detail: v.Detail, Value: v.Value,
		})
	}
	prev := j.cfg.Progress
	j.cfg.Progress = func(p finser.Progress) {
		s.publish(j, events.Event{
			Type: events.TypeProgress, Stage: p.Stage,
			Done: p.Done, Total: p.Total, Rate: p.Rate,
		})
		if prev != nil {
			prev(p)
		}
	}
}

// finalizeLocked moves a job to a terminal state; callers hold s.mu.
func (s *Server) finalizeLocked(j *job, state JobState, msg string) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.err = msg
	j.finished = time.Now()
	s.limiter.Release(j.tenant)
	tenant, class := j.tenant, j.class
	if tenant == "" {
		tenant = qos.DefaultTenant
	}
	if class == "" {
		class = qos.ClassBatch
	}
	s.reg.Counter(obs.Labeled("serd/tenant/jobs_"+string(state), "tenant", tenant, "class", class)).Inc()
	switch state {
	case StateDone:
		s.reg.Counter("serd/jobs/completed").Inc()
		if !j.started.IsZero() {
			s.latency("run").Observe(j.finished.Sub(j.started).Seconds())
		}
		s.latency("admission_to_done").Observe(j.finished.Sub(j.submitted).Seconds())
		s.reg.Histogram(
			obs.Labeled("serd/tenant/admission_to_done_seconds", "tenant", tenant, "class", class),
			obs.ExpBuckets(0.001, 2, 20),
		).Observe(j.finished.Sub(j.submitted).Seconds())
	case StateFailed:
		s.reg.Counter("serd/jobs/failed").Inc()
	case StateCanceled:
		s.reg.Counter("serd/jobs/canceled").Inc()
	}
	// The terminal record carries the result, so a post-crash replay can
	// restore a finished job without re-running it.
	rec := journal.Record{Kind: journal.KindState, Job: j.id, State: string(state), Error: msg}
	if state == StateDone && j.result != nil {
		if res, rerr := json.Marshal(j.result); rerr == nil {
			rec.Result = res
		}
	}
	s.journalAppend(rec)
	// Terminal event, then close: subscribers drain the final transition
	// and see a clean end-of-stream.
	s.publish(j, events.Event{Type: events.TypeState, State: string(state), Error: msg})
	j.events.Close()
	j.logInfo("job "+string(state),
		"total_seconds", j.finished.Sub(j.submitted).Seconds(), "error", msg)
}

// runFlow runs one job under the server's telemetry and faults, against
// its fingerprint-keyed checkpoint when checkpointing is on: in process
// with finser.RunFlowCtx, or, with a Distributor, sharded across the
// worker pool, whose shard lifecycle transitions become TypeShard events
// on the job's SSE stream (a *dist.PartialError surfaces as a failed job
// whose error names the missing bins).
func (s *Server) runFlow(ctx context.Context, j *job) (*JobResult, error) {
	cfg := j.cfg
	cfg.Obs = s.reg
	cfg.Faults = s.cfg.Faults
	if s.cfg.CheckpointDir != "" {
		store, resumed, err := s.openCheckpoint(cfg)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		cfg.Checkpoint = store
		s.mu.Lock()
		j.resumed = resumed
		s.mu.Unlock()
	}
	if s.cfg.Distributor == nil {
		res, err := finser.RunFlowCtx(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return &JobResult{Vdd: res.Vdd, Alpha: res.Alpha, Proton: res.Proton}, nil
	}
	emit := func(ev dist.ShardEvent) {
		e := events.Event{
			Type: events.TypeShard, State: ev.Kind,
			Shard: ev.Shard.String(), Worker: ev.Worker, Attempt: ev.Attempt,
			Resumed: ev.Kind == dist.EventResumed,
		}
		if ev.Err != nil {
			e.Error = ev.Err.Error()
		}
		s.publish(j, e)
		if ev.Kind == dist.EventRetried || ev.Kind == dist.EventFailed {
			j.logInfo("shard "+ev.Kind, "shard", ev.Shard.String(),
				"worker", ev.Worker, "attempt", ev.Attempt, "error", e.Error)
		}
	}
	res, err := s.cfg.Distributor.Run(ctx, cfg, emit)
	if err != nil {
		return nil, err
	}
	return &JobResult{Vdd: res.Vdd, Alpha: res.Alpha, Proton: res.Proton}, nil
}

// openCheckpoint opens (or creates) the job's fingerprint-keyed checkpoint
// file, returning the store and how many stages it restored. An unreadable
// or mismatched existing file is replaced rather than failing the job — a
// stale checkpoint must never block fresh work.
func (s *Server) openCheckpoint(cfg finser.FlowConfig) (*finser.CheckpointStore, int, error) {
	vdds := []float64{cfg.Vdd}
	fp, err := finser.FlowFingerprint(cfg, vdds)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(s.cfg.CheckpointDir, "ser-"+fp[:16]+".ck.json")
	if _, serr := os.Stat(path); serr == nil {
		if store, rerr := finser.ResumeCheckpoint(path, cfg, vdds); rerr == nil {
			return store, len(store.Stages()), nil
		}
	}
	store, err := finser.CreateCheckpoint(path, cfg, vdds)
	if err != nil {
		return nil, 0, err
	}
	return store, 0, nil
}

// ---- HTTP layer ----

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	// RetryAfterSeconds mirrors the Retry-After header on 503s.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

// writeUnavailable writes a 503 with the Retry-After hint — the load-shed
// contract: callers back off and resubmit instead of piling on.
func (s *Server) writeUnavailable(w http.ResponseWriter, msg string) {
	secs := s.retryAfterHint()
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: msg, RetryAfterSeconds: secs})
}

// retryAfterHint is the load-aware 503 back-off, in whole seconds: the
// estimated time for the worker pool to drain the current backlog (queue
// depth + running jobs, at the observed mean job runtime), clamped to
// [1s, RetryAfterMax]. Before any job has completed — no runtime signal —
// it falls back to the configured RetryAfter constant, preserving the
// original header contract.
func (s *Server) retryAfterHint() int {
	secs := int(s.cfg.RetryAfter / time.Second)
	if h := s.latency("run"); h.Count() > 0 {
		backlog := float64(s.sched.Len()) + float64(s.running.Load())
		workers := float64(s.cfg.Workers)
		if est := h.Mean() * (backlog + 1) / workers; est > 0 && !math.IsNaN(est) {
			secs = int(math.Ceil(est))
		}
	}
	if max := int(s.cfg.RetryAfterMax / time.Second); secs > max && max > 0 {
		secs = max
	}
	if secs < 1 {
		secs = 1
	}
	return secs
}

// writeTooManyRequests writes a per-tenant 429 — "you are over budget",
// deliberately distinct from the global 503 "the server is full". Rate
// rejections carry a Retry-After naming the token refill time.
func writeTooManyRequests(w http.ResponseWriter, err error, retryAfter time.Duration) {
	secs := 0
	if retryAfter > 0 {
		secs = int(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error(), RetryAfterSeconds: secs})
}

// maxSubmitBytes bounds the submit request body. A job request is a small
// flat JSON object; anything near a megabyte is a mistake or an attack, and
// without the cap a client could stream an unbounded body into the decoder.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBytes)
	var req JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad request body: " + err.Error()})
		return
	}
	st, deduped, err := s.SubmitTenant(req, r.Header.Get("Idempotency-Key"), r.Header.Get("X-Tenant"))
	var rateErr *qos.RateError
	var quotaErr *qos.QuotaError
	switch {
	case err == nil && deduped:
		// The job already exists: 200 (not 202) tells the retrying client
		// nothing new was admitted.
		writeJSON(w, http.StatusOK, st)
	case err == nil:
		writeJSON(w, http.StatusAccepted, st)
	case errors.As(err, &rateErr):
		writeTooManyRequests(w, err, rateErr.RetryAfter)
	case errors.As(err, &quotaErr):
		writeTooManyRequests(w, err, 0)
	case errors.Is(err, ErrQueueFull):
		s.writeUnavailable(w, err.Error())
	case errors.Is(err, ErrDraining):
		s.writeUnavailable(w, err.Error())
	default:
		// Validation errors are the caller's fault: 400, not 500.
		var ce *finser.ConfigError
		var re *RequestError
		if errors.As(err, &ce) || errors.As(err, &re) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorBody{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// buildInfo is the build identity /healthz reports — what exactly is
// running, resolved once at startup from the binary's embedded metadata.
type buildInfo struct {
	GoVersion string `json:"go_version,omitempty"`
	Module    string `json:"module,omitempty"`
	Version   string `json:"version,omitempty"`
	// Revision/BuildTime/Modified come from the VCS stamp (present when the
	// binary was built inside a git checkout).
	Revision  string `json:"vcs_revision,omitempty"`
	BuildTime string `json:"vcs_time,omitempty"`
	Modified  bool   `json:"vcs_modified,omitempty"`
}

func readBuildInfo() buildInfo {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return buildInfo{}
	}
	out := buildInfo{
		GoVersion: bi.GoVersion,
		Module:    bi.Main.Path,
		Version:   bi.Main.Version,
	}
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			out.Revision = kv.Value
		case "vcs.time":
			out.BuildTime = kv.Value
		case "vcs.modified":
			out.Modified = kv.Value == "true"
		}
	}
	return out
}

// healthBody is the /healthz response: liveness plus build identity and
// uptime, so one probe answers "is it up" and "what exactly is running".
type healthBody struct {
	Status        string    `json:"status"`
	UptimeSeconds float64   `json:"uptime_seconds"`
	Build         buildInfo `json:"build"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Liveness: the process serves; draining or saturated still counts.
	writeJSON(w, http.StatusOK, healthBody{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Build:         s.build,
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		s.writeUnavailable(w, "draining")
		return
	}
	// Coordinator mode: readiness means the worker pool can make progress.
	// A pool with every breaker open would only queue jobs to fail, so
	// report 503 until a worker's half-open probe succeeds.
	if s.cfg.Distributor != nil {
		if err := s.cfg.Distributor.Ready(); err != nil {
			s.writeUnavailable(w, err.Error())
			return
		}
	}
	// Degraded durability is a warning, not an outage: the server still
	// accepts and runs jobs, but a crash in this window would lose
	// unjournaled lifecycle records, so orchestrators get the signal.
	if msg := s.DegradedDurability(); msg != "" {
		writeJSON(w, http.StatusOK, map[string]string{
			"status":     "degraded",
			"durability": msg,
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WritePrometheus(w, "finser") // nil-safe: empty body without a registry
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if s.reg == nil {
		w.Write([]byte("{}\n"))
		return
	}
	s.reg.WriteJSON(w)
}
