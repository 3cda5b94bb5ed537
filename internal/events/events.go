// Package events is the flow's live telemetry bus: a bounded, non-blocking
// per-job event stream that long-running stages publish into (state
// transitions, throttled progress, per-bin FIT results as each energy bin
// converges, guard violations) and that streaming clients — the serd SSE
// endpoint, the serload generator — subscribe to.
//
// The design constraints mirror the rest of the flow's observability:
//
//   - Publishing must never block or fail the producing job. The stream is
//     a fixed ring; a subscriber that cannot keep up is dropped (its
//     channel closed, the drop counted) instead of backpressuring the
//     Monte-Carlo worker that produced the event.
//   - Publishing with zero subscribers is allocation-free — the event is a
//     flat value copied into a pre-allocated ring slot, so an unwatched job
//     pays nothing beyond a mutex and a struct copy per event (and events
//     are per-bin / throttled, never per-particle).
//   - Every event carries a monotonic per-stream sequence ID, and
//     Subscribe replays retained events from any sequence, so a
//     reconnecting client (SSE Last-Event-ID) sees only what it missed —
//     or a Missed count when the gap has already rolled out of the ring.
//
// A nil *Stream accepts Publish and Close and does nothing, following the
// nil-receiver no-op idiom of internal/obs.
package events

import (
	"sync"
	"time"
)

// Event types published by the flow and serving layers.
const (
	// TypeState marks a job lifecycle transition; State/Error are set.
	TypeState = "state"
	// TypeProgress is a throttled done/total/rate report from a stage.
	TypeProgress = "progress"
	// TypeBin reports one completed FIT energy bin (POF point + the
	// cumulative FIT integral so far).
	TypeBin = "bin"
	// TypeViolation reports a physics-invariant guard violation.
	TypeViolation = "violation"
	// TypeShard marks a distributed-shard lifecycle transition
	// (dispatched/stolen/retried/completed/duplicate/failed/resumed);
	// Shard, Worker, Attempt, and State (the transition kind) are set.
	TypeShard = "shard"
	// TypeGap is synthesized by a streaming front-end (not published into
	// the ring) when a reconnecting subscriber's resume point has aged out
	// of the buffer; Missed carries the number of lost events.
	TypeGap = "gap"
	// TypeRecovery marks a journal-replay action on a restarted server:
	// State is "requeued" (job going back on the queue to resume from its
	// checkpoint), "restored" (terminal job rebuilt with its result), or
	// "failed-validation" (journaled spec the server no longer accepts).
	TypeRecovery = "recovery"
	// TypePreempted marks a running batch job yielding its worker to an
	// interactive arrival at a checkpoint boundary; the job requeues and
	// its completed bins stay checkpointed.
	TypePreempted = "preempted"
	// TypeResumed marks a previously preempted job starting to run again;
	// it picks up from its fingerprint-keyed checkpoint bit-identically.
	TypeResumed = "resumed"
)

// Event is one telemetry datum on a job's stream. It is a flat union over
// the event types: unused fields stay zero and are omitted from JSON, so
// one pre-allocatable value type serves every producer without a heap
// allocation per publish.
type Event struct {
	// Seq is the stream-assigned monotonic sequence ID (1-based). It is
	// the SSE event ID, so Last-Event-ID reconnects resume exactly here.
	Seq int64 `json:"seq"`
	// Type is one of the Type* constants.
	Type string `json:"type"`
	// TimeMs is the publish wall time in Unix milliseconds (stamped by
	// Publish when zero).
	TimeMs int64 `json:"t_ms"`
	// Job is the owning job ID.
	Job string `json:"job,omitempty"`

	// State events.
	State string `json:"state,omitempty"`
	Error string `json:"error,omitempty"`

	// Progress and bin events share Stage ("characterize", "fit/alpha").
	Stage string `json:"stage,omitempty"`

	// Progress events.
	Done  int64   `json:"done,omitempty"`
	Total int64   `json:"total,omitempty"`
	Rate  float64 `json:"rate,omitempty"`

	// Bin events. Bin is 1-based so a bare JSON zero never masquerades as
	// the first bin.
	Bin       int     `json:"bin,omitempty"`
	Bins      int     `json:"bins,omitempty"`
	EnergyMeV float64 `json:"energy_mev,omitempty"`
	POF       float64 `json:"pof,omitempty"`
	POFStdErr float64 `json:"pof_stderr,omitempty"`
	// FITSoFar is the cumulative FIT integral through this bin — the live
	// convergence signal a watching client plots.
	FITSoFar float64 `json:"fit_so_far,omitempty"`
	// Resumed marks a bin restored from a checkpoint rather than computed
	// in this run.
	Resumed bool `json:"resumed,omitempty"`
	// Adaptive-FIT convergence fields (only set when the job runs with
	// fit_rel_err > 0): RelErr is the bin's achieved stderr/mean, Tol its
	// weight-scaled target, Converged whether it stopped inside tolerance
	// (vs hitting the per-bin cap), Batches how many fixed-size batches it
	// consumed, and StrikesSaved the flat budget minus the particles spent
	// (negative when the bin overran chasing tolerance).
	RelErr       float64 `json:"rel_err,omitempty"`
	Tol          float64 `json:"tol,omitempty"`
	Converged    bool    `json:"converged,omitempty"`
	Batches      int     `json:"batches,omitempty"`
	StrikesSaved int     `json:"strikes_saved,omitempty"`

	// Violation events.
	Invariant string  `json:"invariant,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	Value     float64 `json:"value,omitempty"`

	// Shard events (distributed runs). Shard names the energy-bin range
	// ("alpha[0:2)"), Worker the worker serd URL, Attempt the 1-based
	// dispatch count; State carries the transition kind.
	Shard   string `json:"shard,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Attempt int    `json:"attempt,omitempty"`

	// Gap events (front-end synthesized).
	Missed int64 `json:"missed,omitempty"`
}

// DefaultCapacity is the ring size NewStream uses for capacity <= 0 — deep
// enough that a reconnect within a few seconds of progress reports replays
// losslessly, small enough that an unwatched job costs tens of kilobytes.
const DefaultCapacity = 256

// Stream is one job's bounded event history plus its live subscribers.
// All methods are safe for concurrent use; Publish never blocks on a
// subscriber.
type Stream struct {
	mu     sync.Mutex
	ring   []Event // fixed ring; slot for seq s is ring[(s-1)%len]
	next   int64   // last assigned sequence ID (0 before the first event)
	subs   map[*Subscription]struct{}
	closed bool

	droppedSubs int64
	onSubDrop   func() // optional drop hook; called under mu, keep it cheap
}

// NewStream builds a stream with the given ring capacity (<= 0 selects
// DefaultCapacity). onSubDrop, when non-nil, is invoked once per stalled
// subscriber the stream kills — the serving layer's drop counter.
func NewStream(capacity int, onSubDrop func()) *Stream {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Stream{
		ring:      make([]Event, capacity),
		subs:      map[*Subscription]struct{}{},
		onSubDrop: onSubDrop,
	}
}

// Publish assigns the next sequence ID, stores the event in the ring, and
// fans it out to subscribers without blocking: a subscriber whose channel
// is full is dropped (channel closed, drop counted) rather than stalling
// the publisher. Returns the assigned sequence ID. Publishing to a closed
// or nil stream is a no-op returning 0. With zero subscribers the call is
// allocation-free.
func (s *Stream) Publish(e Event) int64 {
	if s == nil {
		return 0
	}
	if e.TimeMs == 0 {
		e.TimeMs = time.Now().UnixMilli()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0
	}
	s.next++
	e.Seq = s.next
	s.ring[(e.Seq-1)%int64(len(s.ring))] = e
	for sub := range s.subs {
		select {
		case sub.ch <- e:
		default:
			// Stalled subscriber: its buffer (ring capacity + slack) is
			// full, meaning it has not consumed a full ring's worth of
			// events. Kill it so the job never waits on a dead client.
			s.dropLocked(sub)
		}
	}
	return e.Seq
}

// dropLocked removes one subscriber and closes its channel; callers hold mu.
func (s *Stream) dropLocked(sub *Subscription) {
	if _, ok := s.subs[sub]; !ok {
		return
	}
	delete(s.subs, sub)
	sub.dropped = true
	close(sub.ch)
	s.droppedSubs++
	if s.onSubDrop != nil {
		s.onSubDrop()
	}
}

// Subscribe registers a subscriber and replays every retained event with
// sequence > after into its channel (after = 0 replays the full retained
// history; an SSE reconnect passes its Last-Event-ID). Events that have
// already rolled out of the ring are reported in the subscription's Missed
// count instead. Subscribing to a closed stream still replays the retained
// tail and returns a subscription whose channel is already closed, so a
// late client sees the job's final events and a clean end-of-stream.
func (s *Stream) Subscribe(after int64) *Subscription {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Replay fits by construction: at most len(ring) retained events, and
	// the channel holds a full ring plus slack for live events.
	sub := &Subscription{
		stream: s,
		ch:     make(chan Event, len(s.ring)+64),
	}
	oldest := s.next - int64(len(s.ring)) + 1 // seq of the oldest retained event
	if oldest < 1 {
		oldest = 1
	}
	start := after + 1
	if start < oldest {
		sub.missed = oldest - start
		start = oldest
	}
	for q := start; q <= s.next; q++ {
		sub.ch <- s.ring[(q-1)%int64(len(s.ring))]
	}
	if s.closed {
		sub.dropped = true
		close(sub.ch)
		return sub
	}
	s.subs[sub] = struct{}{}
	return sub
}

// Close ends the stream: every subscriber's channel is closed after the
// events already fanned out, and later Publish calls are dropped. Closing
// terminates live SSE handlers promptly (their range loop ends). Idempotent
// and nil-safe.
func (s *Stream) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for sub := range s.subs {
		delete(s.subs, sub)
		sub.dropped = true
		close(sub.ch)
	}
}

// LastSeq returns the most recently assigned sequence ID (0 on a fresh or
// nil stream).
func (s *Stream) LastSeq() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// DroppedSubscribers returns how many stalled subscribers the stream has
// killed.
func (s *Stream) DroppedSubscribers() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.droppedSubs
}

// Subscribers returns the current live subscriber count.
func (s *Stream) Subscribers() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Subscription is one subscriber's view of a stream: a buffered channel of
// events (replayed history first, then live) that closes when the stream
// closes, the subscriber cancels, or the subscriber stalls past a full
// ring of unconsumed events.
type Subscription struct {
	stream  *Stream
	ch      chan Event
	missed  int64
	dropped bool // guarded by stream.mu after registration
}

// C returns the event channel. It is closed on stream close, Cancel, or a
// stall-drop; consumers range over it.
func (u *Subscription) C() <-chan Event { return u.ch }

// Missed returns how many events between the requested resume point and
// the oldest retained event were lost to ring wraparound — a streaming
// front-end surfaces this as a gap marker.
func (u *Subscription) Missed() int64 { return u.missed }

// Cancel unregisters the subscription and closes its channel. Safe to call
// when the stream already closed or dropped the subscriber.
func (u *Subscription) Cancel() {
	s := u.stream
	s.mu.Lock()
	defer s.mu.Unlock()
	if u.dropped {
		return
	}
	if _, ok := s.subs[u]; ok {
		delete(s.subs, u)
		u.dropped = true
		close(u.ch)
	}
}
