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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"finser"
	"finser/internal/breaker"
	"finser/internal/core"
	"finser/internal/obs"
	"finser/internal/retry"
)

// Shard lifecycle event kinds, in the order a shard typically sees them.
const (
	// EventResumed: the shard's bins were restored from the job's
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

// PartialError reports a distributed run in which some shards exhausted
// their retry budget. It names every missing shard and carries the partial
// FIT sum over the bins that did complete, so hours of finished
// Monte-Carlo work survive a late fault. Match with errors.As.
type PartialError struct {
	// Missing lists the shards with no valid result, in plan order.
	Missing []ShardID
	// Partial is the FIT assembled from the completed bins only, with the
	// characterization the run built (nil when it built none).
	Partial *finser.FlowResult
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
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{cfg: cfg}
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
	id     ShardID
	ledger *core.Ledger // the species' bin ledger the shard completes into
	req    *ShardRequest
	body   []byte

	attempts      int          // dispatches started (1-based Attempt in events)
	failures      int          // failed attempts
	inflight      map[int]bool // worker index → attempt outstanding
	inflightSince time.Time    // when the oldest outstanding attempt started
	notBefore     time.Time    // backoff gate for the next dispatch
	done          bool         // terminal (succeeded or failed)
	succeeded     bool
	err           error // last attempt error
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
func (d *dispatcher) accept(s *shardState, wi int) (first bool) {
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
	s.err = nil
	return true
}

// plan restores each species' bin ledger and splits the job into shards:
// per species, alpha first, ShardBins-sized blocks of bins, each cut into
// maximal runs of restored bins (EventResumed) and of missing bins.
func (c *Coordinator) plan(flow finser.FlowConfig, emit func(ShardEvent)) ([]*core.Ledger, []*shardState, error) {
	var ledgers []*core.Ledger
	var shards []*shardState
	for _, name := range []string{SpeciesAlpha, SpeciesProton} {
		sp, _ := Species(name)
		l, err := finser.SpeciesLedger(flow, sp)
		if err != nil {
			return nil, nil, err
		}
		_ = l.Restore() // a record failing the checks is recomputed
		ledgers = append(ledgers, l)
		sched := l.Plan().Seeds
		for start := 0; start < len(sched); start += c.cfg.ShardBins {
			end := min(start+c.cfg.ShardBins, len(sched))
			for from, to := start, start+1; from < end; from, to = to, to+1 {
				for to < end && l.Done(to) == l.Done(from) {
					to++
				}
				s := &shardState{id: ShardID{Species: name, Start: from, End: to}, ledger: l}
				shards = append(shards, s)
				if l.Done(from) {
					s.done, s.succeeded = true, true
					if c.resumed != nil {
						c.resumed.Inc()
					}
					emit(ShardEvent{Kind: EventResumed, Shard: s.id})
					continue
				}
				seeds := sched[from:to:to]
				fp, err := ShardFingerprint(flow, s.id, seeds)
				if err != nil {
					return nil, nil, fmt.Errorf("dist: fingerprint %v: %w", s.id, err)
				}
				s.req = &ShardRequest{Job: flow, Shard: s.id, Seeds: seeds, Fingerprint: fp}
			}
		}
	}
	return ledgers, shards, nil
}

// Run executes one distributed FIT job: restore each species' bin ledger
// and plan shards over its missing bins, characterize the cell once for
// them (under flow's Obs, Faults, Guard and Progress) and ship it in every
// shard request, fan them out across the worker pool with stealing and
// retry, and record each accepted shard in its ledger, which checkpoints
// it and fires flow.BinDone per bin. A job whose every bin is restored
// characterizes nothing. The ledgers fold a FlowResult bit-identical to
// the single-node run's; its Char is the characterization the run built,
// nil when it built none. emit, when non-nil, observes every shard
// transition.
//
// Failure modes: an invalid flow config or a failed characterization fails
// fast; cancellation of ctx returns its error with completed shards
// checkpointed (a resubmission resumes only the missing bins); shards that
// exhaust their attempt budget yield a *PartialError carrying the partial
// FIT and the missing bins. A failed checkpoint write fails nothing.
func (c *Coordinator) Run(ctx context.Context, flow finser.FlowConfig, emit func(ShardEvent)) (*finser.FlowResult, error) {
	if emit == nil {
		emit = func(ShardEvent) {}
	}
	if _, err := flow.Validate(); err != nil {
		return nil, err
	}
	// The card is off the wire: workers run every shard on the default one.
	if flow.Tech.Name != "" && flow.Tech.Name != finser.Default14nmSOI().Name {
		return nil, &WireError{Field: "tech", Reason: fmt.Sprintf("custom technology %q cannot be distributed", flow.Tech.Name)}
	}
	ledgers, shards, err := c.plan(flow, emit)
	if err != nil {
		return nil, err
	}
	char, err := c.ship(ctx, flow, shards)
	if err != nil {
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
			c.runWorker(runCtx, d, wi, emit)
		}(wi)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: run interrupted: %w", err)
	}
	// Each ledger folds the full FIT, or the partial sum over its bins.
	res := &finser.FlowResult{Vdd: flow.Vdd, Alpha: ledgers[0].FIT(), Proton: ledgers[1].FIT(), Char: char}
	var missing []ShardID
	lastErr := errors.New("shard attempts exhausted")
	for _, s := range shards {
		if !s.succeeded {
			missing = append(missing, s.id)
			if s.err != nil {
				lastErr = s.err
			}
		}
	}
	if len(missing) > 0 {
		return nil, &PartialError{Missing: missing, Partial: res, Err: lastErr}
	}
	return res, nil
}

// ship characterizes the job once, if any shard is left to compute, and
// encodes every such shard's request with the characterization in it. It
// returns the characterization it built, nil when every shard was done.
func (c *Coordinator) ship(ctx context.Context, flow finser.FlowConfig, shards []*shardState) (*finser.Characterization, error) {
	var full, shipped *finser.Characterization
	for _, s := range shards {
		if s.done {
			continue
		}
		if full == nil {
			var err error
			if full, err = finser.CharacterizeFlowCtx(ctx, flow); err != nil {
				return nil, fmt.Errorf("dist: %w", err)
			}
			wire := *full
			wire.Shifts = nil // read only by flip-surface validation
			shipped = &wire
		}
		s.req.Char = shipped
		body, err := encodeJSON(s.req)
		if err != nil {
			return nil, fmt.Errorf("dist: encode %v: %w", s.id, err)
		}
		s.body = body
	}
	return full, nil
}

// runWorker is one worker goroutine: claim, attempt, judge, repeat.
func (c *Coordinator) runWorker(ctx context.Context, d *dispatcher, wi int, emit func(ShardEvent)) {
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
			if d.accept(s, wi) {
				if c.completed != nil {
					c.completed.Inc()
				}
				emit(ShardEvent{Kind: EventCompleted, Shard: s.id, Worker: w.url, Attempt: attempt})
				// Best effort: a checkpoint write failure must not fail the
				// shard the workers just computed; the merge reads the
				// ledger in memory.
				_ = s.ledger.Complete(s.id.Start, pts, conv)
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
		return c.cfg.Retry.Backoff(failures, rand.Float64())
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

// maxShardResponse caps a worker response body; a shard of every bin a
// validated job may plan is far below this.
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
		resp, err := http.DefaultClient.Do(req) // ShardTimeout bounds the attempt
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
