package qos

import (
	"errors"
	"slices"
	"sync"
)

// Scheduler sentinels.
var (
	// ErrFull reports a scheduler at its global capacity — the server's
	// load-shedding boundary (HTTP 503), shared by every tenant.
	ErrFull = errors.New("qos: scheduler full")
	// ErrClosed reports a scheduler that has stopped admitting (drain).
	ErrClosed = errors.New("qos: scheduler closed")
)

// SchedulerConfig tunes the weighted-fair queue.
type SchedulerConfig struct {
	// Capacity bounds the total queued (not yet popped) items across all
	// flows. <= 0 means unbounded.
	Capacity int
	// ClassWeights maps priority-class names to weights. Missing classes
	// weigh 1. Nil selects DefaultClassWeights.
	ClassWeights map[string]float64
	// TenantWeights maps tenant names to weights. Missing tenants weigh 1.
	TenantWeights map[string]float64
}

// flowKey identifies one tenant × class queue.
type flowKey struct {
	tenant, class string
}

// entry is one queued item with its virtual start/finish tags.
type entry struct {
	item   any
	start  float64
	finish float64
}

// flow is one tenant × class FIFO with its virtual-time bookkeeping.
type flow struct {
	key   flowKey
	items []entry
	// lastFinish is the finish tag of the most recently enqueued item —
	// the next item in this flow starts no earlier.
	lastFinish float64
}

// Scheduler is a start-time fair queueing (SFQ) dispatcher over per-tenant
// × per-class flows. Push assigns each item a virtual finish tag
// (start + cost/weight); Pop blocks until an item is available and always
// returns the globally smallest finish tag, breaking ties by flow key so
// dispatch order is deterministic. Within one flow, order is strict FIFO —
// with a single flow the scheduler is exactly a FIFO queue.
//
// Close stops admission but lets Pop drain the remaining backlog (the
// server cancels those jobs' contexts; each is finalized as it is popped),
// then return false.
type Scheduler struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cfg    SchedulerConfig
	flows  map[flowKey]*flow
	vtime  float64 // virtual time: start tag of the last dispatched item
	size   int
	closed bool
}

// NewScheduler builds a scheduler.
func NewScheduler(cfg SchedulerConfig) *Scheduler {
	if cfg.ClassWeights == nil {
		cfg.ClassWeights = DefaultClassWeights()
	}
	s := &Scheduler{cfg: cfg, flows: map[flowKey]*flow{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// weight resolves one flow's weight: tenant weight × class weight, floored
// at a tiny positive value so a zero-configured weight cannot divide by
// zero or park a flow forever.
func (s *Scheduler) weight(k flowKey) float64 {
	tw := 1.0
	if w, ok := s.cfg.TenantWeights[k.tenant]; ok && w > 0 {
		tw = w
	}
	cw := 1.0
	if w, ok := s.cfg.ClassWeights[k.class]; ok && w > 0 {
		cw = w
	}
	w := tw * cw
	if w <= 0 {
		w = 1e-9
	}
	return w
}

// Push enqueues an item for tenant × class with the given cost estimate
// (<= 0 counts as 1). It returns ErrFull at capacity and ErrClosed after
// Close; the caller maps those to 503s.
func (s *Scheduler) Push(tenant, class string, cost float64, item any) error {
	return s.push(tenant, class, cost, item, false)
}

// ForcePush enqueues ignoring the capacity bound — journal recovery uses
// it so every job admitted before a crash fits regardless of the
// configured queue depth. It still refuses after Close.
func (s *Scheduler) ForcePush(tenant, class string, cost float64, item any) error {
	return s.push(tenant, class, cost, item, true)
}

func (s *Scheduler) push(tenant, class string, cost float64, item any, force bool) error {
	if cost <= 0 {
		cost = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if !force && s.cfg.Capacity > 0 && s.size >= s.cfg.Capacity {
		return ErrFull
	}
	k := flowKey{tenant, class}
	f, ok := s.flows[k]
	if !ok {
		f = &flow{key: k}
		s.flows[k] = f
	}
	// SFQ tags: a flow that was idle starts at the current virtual time
	// (no credit for the past); a backlogged flow continues where its last
	// item finished.
	start := s.vtime
	if f.lastFinish > start {
		start = f.lastFinish
	}
	finish := start + cost/s.weight(k)
	f.lastFinish = finish
	f.items = append(f.items, entry{item: item, start: start, finish: finish})
	s.size++
	s.cond.Signal()
	return nil
}

// Remove takes a still-queued item out of its tenant × class flow; an
// item that is not queued there (a worker already popped it) is ignored.
// The flow keeps the virtual time the item was charged at Push.
func (s *Scheduler) Remove(tenant, class string, item any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.flows[flowKey{tenant, class}]
	if f == nil {
		return
	}
	for i, e := range f.items {
		if e.item == item {
			f.items = slices.Delete(f.items, i, i+1)
			s.size--
			return
		}
	}
}

// Pop blocks until an item is available and returns the one with the
// globally smallest virtual finish tag. After Close it keeps draining the
// backlog, then returns (nil, false) once empty — worker loops exit on
// the false.
func (s *Scheduler) Pop() (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.size == 0 {
		if s.closed {
			return nil, false
		}
		s.cond.Wait()
	}
	var best *flow
	for _, f := range s.flows {
		if len(f.items) == 0 {
			continue
		}
		if best == nil || less(f, best) {
			best = f
		}
	}
	e := best.items[0]
	// Shift rather than re-slice forever: the backing array is reused once
	// the flow drains, and flows are few.
	copy(best.items, best.items[1:])
	best.items = best.items[:len(best.items)-1]
	s.size--
	if e.start > s.vtime {
		s.vtime = e.start
	}
	return e.item, true
}

// less orders flows by head finish tag, tie-breaking on the flow key so
// concurrent tenants dispatch in a stable, deterministic order.
func less(a, b *flow) bool {
	af, bf := a.items[0].finish, b.items[0].finish
	if af != bf {
		return af < bf
	}
	if a.key.tenant != b.key.tenant {
		return a.key.tenant < b.key.tenant
	}
	return a.key.class < b.key.class
}

// Close stops admission and wakes every blocked Pop. Remaining items keep
// draining through Pop; once the backlog is empty Pop returns false.
// Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.cond.Broadcast()
}

// Len returns the total queued item count.
func (s *Scheduler) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}
