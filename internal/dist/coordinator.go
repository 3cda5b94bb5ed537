package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/obs"
	"finser/internal/retry"
)

// Shard lifecycle event kinds, in the order a shard typically sees them.
const (
	// EventResumed: the shard's result was restored from a coordinator
	// checkpoint; it will not be dispatched.
	EventResumed = "resumed"
	// EventDispatched: the shard was handed to a worker for the first
	// concurrent attempt.
	EventDispatched = "dispatched"
	// EventStolen: an idle worker duplicate-dispatched a shard another
	// worker has held longer than StealAfter (first result wins).
	EventStolen = "stolen"
	// EventRetried: an attempt failed transiently; the shard re-enters the
	// queue after a backoff.
	EventRetried = "retried"
	// EventCompleted: the shard's first valid result landed and was merged.
	EventCompleted = "completed"
	// EventDuplicate: a result for an already-completed shard arrived (the
	// losing side of a steal) and was discarded by fingerprint dedup.
	EventDuplicate = "duplicate"
	// EventFailed: the shard exhausted its attempt budget (or hit a
	// permanent error) and will be reported in a *PartialError.
	EventFailed = "failed"
)

// ShardEvent reports one transition in a shard's life to the Run caller —
// the feed a serving layer forwards onto its SSE stream.
type ShardEvent struct {
	Kind  string
	Shard ShardID
	// Worker is the worker URL involved (empty for resumed shards).
	Worker string
	// Attempt is the 1-based dispatch count for dispatch/steal/retry kinds.
	Attempt int
	// Err carries the attempt failure for retried/failed kinds.
	Err error
}

// Result is the merged outcome of a distributed FIT job — the distributed
// twin of finser.FlowResult, minus the characterization the coordinator
// built and shipped to its workers.
type Result struct {
	Vdd    float64
	Alpha  finser.FITResult
	Proton finser.FITResult
}

// PartialError reports a distributed run in which some shards exhausted
// their retry budget. It names every missing shard and carries the partial
// FIT sum over the bins that did complete, mirroring finser.SweepError's
// contract that hours of finished Monte-Carlo work survive a late fault.
// Match with errors.As.
type PartialError struct {
	// Missing lists the shards with no valid result, in plan order.
	Missing []ShardID
	// Partial is the FIT assembled from the completed bins only.
	Partial *Result
	// Err is the underlying failure of the last missing shard attempts.
	Err error
}

func (e *PartialError) Error() string {
	ids := make([]string, len(e.Missing))
	for i, id := range e.Missing {
		ids[i] = id.String()
	}
	return fmt.Sprintf("dist: %d shard(s) missing after retry budget: %s: %v",
		len(e.Missing), strings.Join(ids, " "), e.Err)
}

func (e *PartialError) Unwrap() error { return e.Err }

// Config assembles a Coordinator.
type Config struct {
	// Workers are the base URLs of the worker serds (e.g.
	// "http://10.0.0.2:8080"). At least one is required.
	Workers []string
	// Client issues the shard requests; nil selects a default client.
	// Per-attempt deadlines come from ShardTimeout, not the client.
	Client *http.Client
	// ShardBins is the number of energy bins per shard; 0 selects 2.
	ShardBins int
	// ShardTimeout bounds one shard attempt end to end; 0 selects 10m.
	ShardTimeout time.Duration
	// ShardAttempts is the per-shard attempt budget across all workers
	// before the shard is declared missing; 0 selects 4.
	ShardAttempts int
	// StealAfter is how long a shard may stay in flight before an idle
	// worker duplicate-dispatches it; 0 selects 30s.
	StealAfter time.Duration
	// Retry shapes the backoff between one shard's failed attempts
	// (MaxAttempts is ignored — ShardAttempts owns the budget).
	Retry retry.Policy
	// Breaker is the per-worker circuit breaker template. Countable nil
	// selects a dist-specific default in which attempt timeouts DO count
	// (a hung worker indicts the worker) and only parent-context
	// cancellation does not.
	Breaker breaker.Config
	// Metrics, when non-nil, receives shard counters, per-worker latency
	// histograms, and the healthy-worker gauge.
	Metrics *obs.Registry
	// Rand supplies backoff jitter in [0,1); nil selects math/rand.
	Rand func() float64
	// now is the test clock hook.
	now func() time.Time
}

// worker is one remote serd plus its health state.
type worker struct {
	url  string
	name string
	br   *breaker.Breaker
	lat  *obs.Histogram
	// state caches the breaker's last observed state (written from its
	// OnStateChange observer, which runs under the breaker lock and so
	// cannot query the breaker itself).
	state atomic.Int32
}

// Coordinator fans a FIT job's energy-bin shards out to worker serds with
// work stealing, per-worker circuit breakers, retry-elsewhere on failure,
// and a deterministic merge that is bit-identical to the single-node run.
type Coordinator struct {
	cfg     Config
	client  *http.Client
	workers []*worker

	healthy    *obs.Gauge
	dispatched *obs.Counter
	stolen     *obs.Counter
	retried    *obs.Counter
	completed  *obs.Counter
	duplicate  *obs.Counter
	failed     *obs.Counter
	resumed    *obs.Counter
}

// New validates cfg and builds a Coordinator. Worker URLs are normalized
// (scheme required, trailing slash stripped) and each gets its own breaker
// so one flapping worker cannot shed the whole pool.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: coordinator needs at least one worker URL")
	}
	if cfg.ShardBins == 0 {
		cfg.ShardBins = 2
	}
	if cfg.ShardBins < 0 {
		return nil, fmt.Errorf("dist: shard bins must be positive, got %d", cfg.ShardBins)
	}
	if cfg.ShardTimeout == 0 {
		cfg.ShardTimeout = 10 * time.Minute
	}
	if cfg.ShardAttempts == 0 {
		cfg.ShardAttempts = 4
	}
	if cfg.ShardAttempts < 0 || cfg.ShardTimeout < 0 {
		return nil, errors.New("dist: shard attempts and timeout must be positive")
	}
	if cfg.StealAfter == 0 {
		cfg.StealAfter = 30 * time.Second
	}
	if cfg.Retry.BaseDelay == 0 {
		cfg.Retry.BaseDelay = 250 * time.Millisecond
	}
	if cfg.Retry.MaxDelay == 0 {
		cfg.Retry.MaxDelay = 5 * time.Second
	}
	if cfg.Breaker.FailureThreshold == 0 {
		cfg.Breaker.FailureThreshold = 3
	}
	if cfg.Breaker.Cooldown == 0 {
		cfg.Breaker.Cooldown = 5 * time.Second
	}
	if cfg.Breaker.Countable == nil {
		// An attempt timeout is the worker's fault here, unlike the
		// library default; only parent-context cancellation is ours.
		cfg.Breaker.Countable = func(err error) bool {
			return !errors.Is(err, context.Canceled)
		}
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	c := &Coordinator{cfg: cfg, client: client}
	if cfg.Metrics != nil {
		c.healthy = cfg.Metrics.Gauge("dist/workers/healthy")
		c.dispatched = cfg.Metrics.Counter("dist/shards/dispatched")
		c.stolen = cfg.Metrics.Counter("dist/shards/stolen")
		c.retried = cfg.Metrics.Counter("dist/shards/retried")
		c.completed = cfg.Metrics.Counter("dist/shards/completed")
		c.duplicate = cfg.Metrics.Counter("dist/shards/duplicate")
		c.failed = cfg.Metrics.Counter("dist/shards/failed")
		c.resumed = cfg.Metrics.Counter("dist/shards/resumed")
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for _, raw := range cfg.Workers {
		u, err := url.Parse(strings.TrimSpace(raw))
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("dist: worker URL %q must be absolute (http://host:port)", raw)
		}
		base := strings.TrimRight(u.String(), "/")
		if seen[base] {
			return nil, fmt.Errorf("dist: duplicate worker URL %q", base)
		}
		seen[base] = true
		w := &worker{url: base, name: u.Host}
		bcfg := cfg.Breaker
		bcfg.Name = "dist/" + u.Host
		userStateChange := bcfg.OnStateChange
		bcfg.OnStateChange = func(name string, from, to breaker.State) {
			// Fired under the breaker's own lock: cache the new state and
			// derive the gauge from the caches. Calling back into the
			// breaker (State, Do) here would self-deadlock.
			w.state.Store(int32(to))
			c.updateHealthy()
			if userStateChange != nil {
				userStateChange(name, from, to)
			}
		}
		w.br = breaker.New(bcfg)
		if cfg.Metrics != nil {
			w.lat = cfg.Metrics.Histogram("dist/worker/"+u.Host+"/shard_seconds", obs.ExpBuckets(0.01, 2, 16))
		}
		c.workers = append(c.workers, w)
	}
	c.updateHealthy()
	return c, nil
}

// updateHealthy refreshes the healthy-worker gauge (workers whose breaker
// is not open) from the cached per-worker states. It must stay safe to
// call from inside an OnStateChange observer, so it never queries the
// breakers directly.
func (c *Coordinator) updateHealthy() {
	if c.healthy == nil {
		return
	}
	n := 0
	for _, w := range c.workers {
		if w != nil && breaker.State(w.state.Load()) != breaker.Open {
			n++
		}
	}
	c.healthy.Set(float64(n))
}

// Ready reports whether the worker pool can make progress: nil while at
// least one worker's breaker admits traffic, an error once every breaker
// is open — the signal a coordinator's /readyz surfaces as 503.
func (c *Coordinator) Ready() error {
	for _, w := range c.workers {
		if w.br.State() != breaker.Open {
			return nil
		}
	}
	return fmt.Errorf("dist: all %d workers unavailable (circuit breakers open)", len(c.workers))
}

// Workers returns the normalized worker base URLs (diagnostics).
func (c *Coordinator) Workers() []string {
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

// maxConcurrentAttempts bounds how many workers may hold the same shard at
// once: the original holder plus one thief.
const maxConcurrentAttempts = 2

// shardState is one shard's dispatcher bookkeeping. All mutable fields are
// guarded by the dispatcher mutex.
type shardState struct {
	id    ShardID
	seeds []uint64
	req   *ShardRequest
	body  []byte

	attempts      int          // dispatches started (1-based Attempt in events)
	failures      int          // failed attempts
	inflight      map[int]bool // worker index → attempt outstanding
	inflightSince time.Time    // when the oldest outstanding attempt started
	notBefore     time.Time    // backoff gate for the next dispatch
	done          bool         // terminal (succeeded or failed)
	succeeded     bool
	worker        string // worker that produced the accepted result
	points        []finser.POFPoint
	conv          []finser.BinConv // per-bin convergence state (adaptive jobs)
	err           error            // last attempt error
}

// dispatcher owns the shard queue shared by the per-worker goroutines.
type dispatcher struct {
	mu     sync.Mutex
	cond   *sync.Cond
	shards []*shardState
	open   int // shards not yet terminal
	now    func() time.Time
	steal  time.Duration
}

func newDispatcher(shards []*shardState, now func() time.Time, steal time.Duration) *dispatcher {
	d := &dispatcher{shards: shards, now: now, steal: steal}
	d.cond = sync.NewCond(&d.mu)
	for _, s := range shards {
		if !s.done {
			d.open++
		}
	}
	return d
}

// next blocks until a shard is dispatchable by worker wi, every shard is
// terminal, or ctx is cancelled. It returns the claimed shard (already
// marked in flight) and whether the claim is a steal; nil means stop.
func (d *dispatcher) next(ctx context.Context, wi int) (s *shardState, stolen bool, attempt int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if ctx.Err() != nil || d.open == 0 {
			return nil, false, 0
		}
		now := d.now()
		var fresh, victim *shardState
		var wake time.Time
		later := func(t time.Time) {
			if t.After(now) && (wake.IsZero() || t.Before(wake)) {
				wake = t
			}
		}
		for _, cand := range d.shards {
			if cand.done {
				continue
			}
			if len(cand.inflight) == 0 {
				if !cand.notBefore.After(now) {
					if fresh == nil {
						fresh = cand
					}
				} else {
					later(cand.notBefore)
				}
				continue
			}
			if cand.inflight[wi] || len(cand.inflight) >= maxConcurrentAttempts {
				continue
			}
			eligible := cand.inflightSince.Add(d.steal)
			if !eligible.After(now) {
				if victim == nil || cand.inflightSince.Before(victim.inflightSince) {
					victim = cand
				}
			} else {
				later(eligible)
			}
		}
		pick := fresh
		stolen = false
		if pick == nil && victim != nil {
			pick, stolen = victim, true
		}
		if pick != nil {
			if pick.inflight == nil {
				pick.inflight = make(map[int]bool, maxConcurrentAttempts)
			}
			if len(pick.inflight) == 0 {
				pick.inflightSince = now
			}
			pick.inflight[wi] = true
			pick.attempts++
			return pick, stolen, pick.attempts
		}
		// Nothing dispatchable yet: arm a wake-up for the nearest backoff
		// or steal-eligibility horizon, then sleep on the condition.
		if !wake.IsZero() {
			t := time.AfterFunc(wake.Sub(now), d.broadcast)
			d.cond.Wait()
			t.Stop()
		} else {
			d.cond.Wait()
		}
	}
}

// broadcast wakes every waiter on behalf of a timer or a cancellation,
// which change no dispatcher state. Taking the lock orders the wake-up
// after a waiter's last check of the clock and context: a bare Broadcast
// could fire between that check and the waiter's cond.Wait and be lost.
func (d *dispatcher) broadcast() {
	d.mu.Lock()
	d.cond.Broadcast()
	d.mu.Unlock()
}

// release drops worker wi's outstanding attempt on s without judging it
// (breaker shed, context cancellation).
func (d *dispatcher) release(s *shardState, wi int) {
	d.mu.Lock()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	d.mu.Unlock()
	d.cond.Broadcast()
}

// fail records a failed attempt. It returns the shard's terminal fate:
// terminal=true when the budget is exhausted or the error is permanent.
// backoffFor maps the post-increment failure count to a retry delay; it is
// called under the dispatcher lock so the count cannot race a twin attempt.
func (d *dispatcher) fail(s *shardState, wi int, err error, budget int, backoffFor func(failures int) time.Duration) (terminal bool) {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	if s.done {
		return false
	}
	s.failures++
	s.err = err
	if retry.IsPermanent(err) || s.failures >= budget {
		s.done = true
		s.succeeded = false
		d.open--
		return true
	}
	s.notBefore = d.now().Add(backoffFor(s.failures))
	return false
}

// accept records a successful attempt. first is true when this result won
// the shard (merge it); false when a twin already did (discard as dup).
func (d *dispatcher) accept(s *shardState, wi int, pts []finser.POFPoint, conv []finser.BinConv, workerName string) (first bool) {
	d.mu.Lock()
	defer func() {
		d.mu.Unlock()
		d.cond.Broadcast()
	}()
	delete(s.inflight, wi)
	if len(s.inflight) == 0 {
		s.inflightSince = time.Time{}
	}
	if s.succeeded {
		return false
	}
	// A late success may rescue a shard already declared failed (its twin
	// exhausted the budget first); reopen the slot it closed.
	if !s.done {
		d.open--
	}
	s.done, s.succeeded = true, true
	s.points = pts
	s.conv = conv
	s.worker = workerName
	s.err = nil
	return true
}

// shardCheckpoint is the per-shard payload in the coordinator's checkpoint
// store, keyed by stage "dist/<species>/<start>-<end>".
type shardCheckpoint struct {
	Fingerprint string            `json:"fingerprint"`
	Worker      string            `json:"worker,omitempty"`
	Points      []finser.POFPoint `json:"points"`
	Conv        []finser.BinConv  `json:"conv,omitempty"`
}

func shardStage(id ShardID) string {
	return fmt.Sprintf("dist/%s/%d-%d", id.Species, id.Start, id.End)
}

// plan splits the job into its shard list: per species, consecutive
// ShardBins-sized bin ranges in deterministic order (alpha first).
func (c *Coordinator) plan(spec JobSpec, flow finser.FlowConfig) ([]*shardState, error) {
	var shards []*shardState
	for _, name := range []string{SpeciesAlpha, SpeciesProton} {
		sp, _ := Species(name)
		bins, err := finser.SpeciesBins(flow, sp)
		if err != nil {
			return nil, err
		}
		sched, err := finser.SpeciesSeedSchedule(flow, sp)
		if err != nil {
			return nil, err
		}
		for start := 0; start < len(bins); start += c.cfg.ShardBins {
			end := start + c.cfg.ShardBins
			if end > len(bins) {
				end = len(bins)
			}
			id := ShardID{Species: name, Start: start, End: end}
			seeds := sched[start:end:end]
			fp, err := ShardFingerprint(spec, id, seeds)
			if err != nil {
				return nil, fmt.Errorf("dist: fingerprint %v: %w", id, err)
			}
			req := &ShardRequest{Job: spec, Shard: id, Seeds: seeds, Fingerprint: fp}
			shards = append(shards, &shardState{id: id, seeds: seeds, req: req})
		}
	}
	return shards, nil
}

// Run executes one distributed FIT job: plan shards, restore any from the
// checkpoint, characterize the cell once for the rest (under flow's Obs,
// Faults, Guard and Progress) and ship it in every shard request, fan them
// out across the worker pool with stealing and retry, and merge in
// deterministic shard order. A job whose every shard is restored
// characterizes nothing. The merged Result is bit-identical to the
// single-node run of the same flow config. emit, when non-nil, observes
// every shard lifecycle transition.
//
// Failure modes: an invalid flow config or a failed characterization fails
// fast; cancellation of ctx returns its error with completed shards
// checkpointed (a resubmission resumes only the missing ones); shards that
// exhaust their attempt budget yield a *PartialError carrying the partial
// FIT and the missing bins.
func (c *Coordinator) Run(ctx context.Context, flow finser.FlowConfig, emit func(ShardEvent)) (*Result, error) {
	if emit == nil {
		emit = func(ShardEvent) {}
	}
	if err := flow.Validate(); err != nil {
		return nil, err
	}
	spec, err := SpecFromFlow(flow)
	if err != nil {
		return nil, err
	}
	shards, err := c.plan(spec, flow)
	if err != nil {
		return nil, err
	}

	if flow.Checkpoint != nil {
		for _, s := range shards {
			var prev shardCheckpoint
			ok, err := flow.Checkpoint.Load(shardStage(s.id), &prev)
			if err != nil {
				return nil, fmt.Errorf("dist: checkpoint %v: %w", s.id, err)
			}
			if !ok {
				continue
			}
			// A restored shard crossed a disk boundary: hold it to the same
			// validation as one that crossed the network, and ignore stale
			// entries from a different job shape.
			if prev.Fingerprint != s.req.Fingerprint ||
				len(prev.Points) != s.id.End-s.id.Start ||
				ValidatePoints(prev.Points) != nil ||
				ValidateConv(prev.Points, prev.Conv, flow.FITRelErr > 0) != nil {
				continue
			}
			s.done, s.succeeded = true, true
			s.points = prev.Points
			s.conv = prev.Conv
			s.worker = prev.Worker
			if c.resumed != nil {
				c.resumed.Inc()
			}
			emit(ShardEvent{Kind: EventResumed, Shard: s.id, Worker: s.worker})
		}
	}
	if err := c.ship(ctx, flow, shards); err != nil {
		return nil, err
	}

	d := newDispatcher(shards, c.cfg.now, c.cfg.StealAfter)
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	stopWake := context.AfterFunc(runCtx, d.broadcast)
	defer stopWake()

	var wg sync.WaitGroup
	for wi := range c.workers {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			c.runWorker(runCtx, d, wi, flow, emit)
		}(wi)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: run interrupted: %w", err)
	}
	return c.merge(flow, shards, emit)
}

// ship characterizes the job once, if any shard is left to compute, and
// encodes every such shard's request with the characterization in it.
func (c *Coordinator) ship(ctx context.Context, flow finser.FlowConfig, shards []*shardState) error {
	var char *finser.Characterization
	for _, s := range shards {
		if s.done {
			continue
		}
		if char == nil {
			full, err := finser.CharacterizeFlowCtx(ctx, flow)
			if err != nil {
				return fmt.Errorf("dist: %w", err)
			}
			shipped := *full
			shipped.Shifts = nil // read only by flip-surface validation
			char = &shipped
		}
		s.req.Char = char
		body, err := encodeJSON(s.req)
		if err != nil {
			return fmt.Errorf("dist: encode %v: %w", s.id, err)
		}
		s.body = body
	}
	return nil
}

// runWorker is one worker goroutine: claim, attempt, judge, repeat.
func (c *Coordinator) runWorker(ctx context.Context, d *dispatcher, wi int, flow finser.FlowConfig, emit func(ShardEvent)) {
	w := c.workers[wi]
	for {
		s, stolen, attempt := d.next(ctx, wi)
		if s == nil {
			return
		}
		if stolen {
			if c.stolen != nil {
				c.stolen.Inc()
			}
			emit(ShardEvent{Kind: EventStolen, Shard: s.id, Worker: w.url, Attempt: attempt})
		} else {
			if c.dispatched != nil {
				c.dispatched.Inc()
			}
			emit(ShardEvent{Kind: EventDispatched, Shard: s.id, Worker: w.url, Attempt: attempt})
		}

		start := c.cfg.now()
		pts, conv, err := c.attempt(ctx, w, s)
		if w.lat != nil {
			w.lat.Observe(c.cfg.now().Sub(start).Seconds())
		}
		c.updateHealthy()

		switch {
		case err == nil:
			if d.accept(s, wi, pts, conv, w.url) {
				if c.completed != nil {
					c.completed.Inc()
				}
				emit(ShardEvent{Kind: EventCompleted, Shard: s.id, Worker: w.url, Attempt: attempt})
				c.persist(flow, s, d)
				c.emitBins(flow, s.id, d)
			} else {
				if c.duplicate != nil {
					c.duplicate.Inc()
				}
				emit(ShardEvent{Kind: EventDuplicate, Shard: s.id, Worker: w.url, Attempt: attempt})
			}
		case errors.Is(err, breaker.ErrOpen):
			if c.Ready() != nil {
				// Every breaker in the pool is open: there is nowhere to
				// route this shard, so the skip must burn budget or an
				// unreachable pool would stall the run for the full
				// cooldown. The backoff gate still leaves room for a
				// half-open probe to rescue later attempts.
				c.judge(d, s, wi, w, attempt, errPoolOpen, emit)
				continue
			}
			// Only this worker is drained from rotation; give the shard
			// back untainted and sit out a fraction of the cooldown before
			// rejoining (the breaker itself admits the half-open probe).
			d.release(s, wi)
			c.pause(ctx, d, c.cfg.Breaker.Cooldown/4)
		case ctx.Err() != nil:
			// Shutdown, not a worker fault: leave the shard for a resumed
			// run rather than burning its budget.
			d.release(s, wi)
			return
		default:
			c.judge(d, s, wi, w, attempt, err, emit)
		}
	}
}

// errPoolOpen marks an attempt skipped because every worker breaker was open.
var errPoolOpen = errors.New("dist: every worker breaker is open")

// judge records a failed attempt and emits the retried-or-failed verdict.
func (c *Coordinator) judge(d *dispatcher, s *shardState, wi int, w *worker, attempt int, err error, emit func(ShardEvent)) {
	backoffFor := func(failures int) time.Duration {
		return c.cfg.Retry.Backoff(failures, c.cfg.Rand())
	}
	if d.fail(s, wi, err, c.cfg.ShardAttempts, backoffFor) {
		if c.failed != nil {
			c.failed.Inc()
		}
		emit(ShardEvent{Kind: EventFailed, Shard: s.id, Worker: w.url, Attempt: attempt, Err: err})
	} else {
		if c.retried != nil {
			c.retried.Inc()
		}
		emit(ShardEvent{Kind: EventRetried, Shard: s.id, Worker: w.url, Attempt: attempt, Err: err})
	}
}

// pause parks a breaker-drained worker for up to dur, waking early when the
// run is cancelled or every shard reaches a terminal state (so a sidelined
// worker never delays run completion).
func (c *Coordinator) pause(ctx context.Context, d *dispatcher, dur time.Duration) {
	if dur <= 0 {
		dur = 50 * time.Millisecond
	}
	deadline := c.cfg.now().Add(dur)
	t := time.AfterFunc(dur, d.broadcast)
	defer t.Stop()
	d.mu.Lock()
	defer d.mu.Unlock()
	for ctx.Err() == nil && d.open > 0 && c.cfg.now().Before(deadline) {
		d.cond.Wait()
	}
}

// maxShardResponse caps a worker response body; a shard of maxShardBins
// points is far below this.
const maxShardResponse = 16 << 20

// attempt runs one shard attempt against one worker through its breaker.
// Returned errors are classified for the retry layer: 4xx responses are
// permanent (the request itself is bad everywhere), everything else —
// connection failures, timeouts, 5xx, invalid payloads — is transient and
// worth a different worker.
func (c *Coordinator) attempt(ctx context.Context, w *worker, s *shardState) ([]finser.POFPoint, []finser.BinConv, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	var pts []finser.POFPoint
	var conv []finser.BinConv
	err := w.br.Do(actx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url+"/shards", bytes.NewReader(s.body))
		if err != nil {
			return retry.Permanent(err)
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := c.client.Do(req)
		if err != nil {
			return fmt.Errorf("dist: %v on %s: %w", s.id, w.name, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxShardResponse))
		if err != nil {
			return fmt.Errorf("dist: %v on %s: read response: %w", s.id, w.name, err)
		}
		switch {
		case resp.StatusCode == http.StatusOK:
			res, err := DecodeShardResult(body, s.req)
			if err != nil {
				// A corrupt success payload is the worker's fault: countable
				// for its breaker, transient for the shard.
				return fmt.Errorf("dist: %v on %s: %w", s.id, w.name, err)
			}
			pts, conv = res.Points, res.Conv
			return nil
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
			return retry.Permanent(fmt.Errorf("dist: %v on %s: HTTP %d: %s",
				s.id, w.name, resp.StatusCode, truncate(body, 200)))
		default:
			return fmt.Errorf("dist: %v on %s: HTTP %d: %s",
				s.id, w.name, resp.StatusCode, truncate(body, 200))
		}
	})
	if err != nil {
		return nil, nil, err
	}
	return pts, conv, nil
}

// persist saves a completed shard to the job checkpoint so a coordinator
// restart resumes only the missing shards.
func (c *Coordinator) persist(flow finser.FlowConfig, s *shardState, d *dispatcher) {
	if flow.Checkpoint == nil {
		return
	}
	d.mu.Lock()
	rec := shardCheckpoint{Fingerprint: s.req.Fingerprint, Worker: s.worker, Points: s.points, Conv: s.conv}
	d.mu.Unlock()
	// Best effort: a checkpoint write failure must not fail the shard the
	// workers just computed; the merge only needs the in-memory points.
	_ = flow.Checkpoint.Save(shardStage(s.id), rec)
}

// emitBins replays a completed shard's bins through flow.BinDone so the
// live telemetry stream sees per-bin progress in distributed mode too.
// FITSoFar is the partial FIT over all bins completed so far — note bins
// complete out of bin order in a distributed run.
func (c *Coordinator) emitBins(flow finser.FlowConfig, id ShardID, d *dispatcher) {
	if flow.BinDone == nil {
		return
	}
	sp, _ := Species(id.Species)
	binsTotal := 0
	if b, err := finser.SpeciesBins(flow, sp); err == nil {
		binsTotal = len(b)
	}
	// Snapshot the species' completed bins under the dispatcher lock.
	adaptive := flow.FITRelErr > 0
	type binPt struct {
		idx  int
		pt   finser.POFPoint
		conv finser.BinConv
	}
	var completedBins []binPt
	d.mu.Lock()
	for _, s := range d.shards {
		if s.id.Species != id.Species || !s.succeeded {
			continue
		}
		for k, pt := range s.points {
			b := binPt{idx: s.id.Start + k, pt: pt}
			if adaptive && k < len(s.conv) {
				b.conv = s.conv[k]
			}
			completedBins = append(completedBins, b)
		}
	}
	d.mu.Unlock()
	sort.Slice(completedBins, func(i, j int) bool { return completedBins[i].idx < completedBins[j].idx })
	for _, b := range completedBins {
		if b.idx < id.Start || b.idx >= id.End {
			continue
		}
		// Partial FIT over every completed bin up to and including this one
		// (the distributed analogue of FITCtx's running sum).
		var binIdx []int
		var pts []finser.POFPoint
		for _, cb := range completedBins {
			if cb.idx > b.idx {
				break
			}
			binIdx = append(binIdx, cb.idx)
			pts = append(pts, cb.pt)
		}
		soFar := 0.0
		if fit, err := finser.AssembleSpeciesFIT(flow, sp, binIdx, pts); err == nil {
			soFar = fit.TotalFIT
		}
		flow.BinDone(finser.BinEvent{
			Stage:    "fit/" + id.Species,
			Bin:      b.idx + 1,
			Bins:     binsTotal,
			Point:    b.pt,
			FITSoFar: soFar,
			Adaptive: adaptive,
			Conv:     b.conv,
		})
	}
}

// merge folds the shard results into the job Result in deterministic plan
// order. With every shard complete the assembly runs the same float
// operations in the same order as single-node FITCtx — bit-identical by
// construction. With missing shards it returns a *PartialError carrying
// the partial FIT over the completed bins.
func (c *Coordinator) merge(flow finser.FlowConfig, shards []*shardState, emit func(ShardEvent)) (*Result, error) {
	res := &Result{Vdd: flow.Vdd}
	var missing []ShardID
	var lastErr error
	for _, out := range []struct {
		name string
		dst  *finser.FITResult
	}{
		{SpeciesAlpha, &res.Alpha},
		{SpeciesProton, &res.Proton},
	} {
		sp, _ := Species(out.name)
		adaptive := flow.FITRelErr > 0
		var binIdx []int
		var pts []finser.POFPoint
		var conv []finser.BinConv
		complete := true
		for _, s := range shards {
			if s.id.Species != out.name {
				continue
			}
			if !s.succeeded {
				complete = false
				missing = append(missing, s.id)
				if s.err != nil {
					lastErr = s.err
				}
				continue
			}
			for k, pt := range s.points {
				binIdx = append(binIdx, s.id.Start+k)
				pts = append(pts, pt)
				if adaptive && k < len(s.conv) {
					conv = append(conv, s.conv[k])
				}
			}
		}
		if complete {
			binIdx = nil // full set: assemble exactly as single-node
		}
		if len(pts) == 0 && !complete {
			continue // species entirely missing; leave zero FITResult
		}
		fit, err := finser.AssembleSpeciesFIT(flow, sp, binIdx, pts)
		if err != nil {
			return nil, fmt.Errorf("dist: merge %s: %w", out.name, err)
		}
		if adaptive {
			fit.Conv = conv
		}
		*out.dst = fit
	}
	if len(missing) > 0 {
		if lastErr == nil {
			lastErr = errors.New("shard attempts exhausted")
		}
		return nil, &PartialError{Missing: missing, Partial: res, Err: lastErr}
	}
	return res, nil
}

// encodeJSON marshals v (a shard wire message) to its request body.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimRight(buf.Bytes(), "\n"), nil
}

func truncate(b []byte, n int) string {
	s := strings.TrimSpace(string(b))
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}
