// Package breaker implements a closed → open → half-open circuit breaker.
// The distributed coordinator (internal/dist) keeps one per worker serd
// around its shard attempts. When a worker fails repeatedly, its breaker
// opens and sheds further attempts on it immediately — a fast ErrOpen
// instead of round trips to a dead or sick node — so its shards go to the
// other workers; with every breaker open, the coordinator's /readyz
// reports 503. After a cooldown the breaker lets a single probe through
// (half-open); a healthy probe closes the circuit, a failed one re-opens
// it for another cooldown.
package breaker

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrOpen is returned (wrapped, with the breaker's name) when the circuit
// is open and the call was shed without running. Match with errors.Is.
var ErrOpen = errors.New("breaker: open")

// State is the circuit state.
type State int

const (
	// Closed passes calls through, counting consecutive failures.
	Closed State = iota
	// Open sheds every call until the cooldown elapses.
	Open
	// HalfOpen admits limited probe calls to test recovery.
	HalfOpen
)

func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Defaults applied by New when the corresponding Config field is zero.
const (
	DefaultFailureThreshold  = 5
	DefaultCooldown          = 30 * time.Second
	DefaultHalfOpenSuccesses = 1
)

// Config tunes one breaker. The zero value is usable: 5 consecutive
// failures open the circuit for 30 s, one healthy probe re-closes it.
type Config struct {
	// Name labels the breaker in errors and state-change callbacks.
	Name string
	// FailureThreshold is the consecutive countable failures that trip
	// the circuit from closed to open.
	FailureThreshold int
	// Cooldown is how long an open circuit sheds before admitting a
	// half-open probe.
	Cooldown time.Duration
	// HalfOpenSuccesses is the consecutive probe successes required to
	// re-close.
	HalfOpenSuccesses int
	// Countable decides whether an error indicts the workload class. Nil
	// selects the default: context cancellation and deadline expiry are
	// the caller's doing, not the class's, and do not count; everything
	// else does.
	Countable func(error) bool
	// OnStateChange, when non-nil, observes every transition.
	OnStateChange func(name string, from, to State)
	// Now supplies the clock (tests inject a fake; nil selects time.Now).
	Now func() time.Time
}

// Breaker is one circuit. Construct with New; the zero value is not
// usable.
type Breaker struct {
	cfg Config

	mu       sync.Mutex
	state    State
	failures int       // consecutive countable failures while closed
	probeOK  int       // consecutive probe successes while half-open
	probing  bool      // a half-open probe is in flight
	openedAt time.Time // when the circuit last tripped
	trips    int64
	shed     int64
}

// New builds a breaker, resolving zero Config fields to the defaults.
func New(cfg Config) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.HalfOpenSuccesses <= 0 {
		cfg.HalfOpenSuccesses = DefaultHalfOpenSuccesses
	}
	if cfg.Countable == nil {
		cfg.Countable = countable
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Breaker{cfg: cfg}
}

// countable is the default failure classifier (see Config.Countable).
func countable(err error) bool {
	return err != nil &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// State returns the current state, promoting an expired open circuit to
// half-open (so observers see the state a call would actually meet).
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.maybeHalfOpenLocked()
	return b.state
}

// Trips returns how many times the circuit has transitioned to open.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Shed returns how many calls were rejected without running.
func (b *Breaker) Shed() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shed
}

// maybeHalfOpenLocked moves an open circuit whose cooldown has elapsed to
// half-open. Callers hold b.mu.
func (b *Breaker) maybeHalfOpenLocked() {
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.transitionLocked(HalfOpen)
		b.probeOK = 0
		b.probing = false
	}
}

// transitionLocked moves to the target state, firing the observer.
// Callers hold b.mu.
func (b *Breaker) transitionLocked(to State) {
	from := b.state
	if from == to {
		return
	}
	b.state = to
	if to == Open {
		b.trips++
		b.openedAt = b.cfg.Now()
	}
	if cb := b.cfg.OnStateChange; cb != nil {
		// Fired under the lock: transitions stay strictly ordered for the
		// observer, which only bumps counters/gauges.
		cb(b.cfg.Name, from, to)
	}
}

// Do runs op through the circuit. An open circuit (or a half-open one
// whose probe slot is taken) sheds the call with ErrOpen wrapped in the
// breaker's name. Countable failures advance the trip machinery; context
// cancellation passes through without indicting the class.
func (b *Breaker) Do(ctx context.Context, op func(context.Context) error) error {
	b.mu.Lock()
	b.maybeHalfOpenLocked()
	switch b.state {
	case Open:
		b.shed++
		b.mu.Unlock()
		return fmt.Errorf("breaker %q: %w", b.cfg.Name, ErrOpen)
	case HalfOpen:
		if b.probing {
			b.shed++
			b.mu.Unlock()
			return fmt.Errorf("breaker %q: probe in flight: %w", b.cfg.Name, ErrOpen)
		}
		b.probing = true
	}
	b.mu.Unlock()

	err := op(ctx)

	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case HalfOpen:
		b.probing = false
		if err == nil {
			b.probeOK++
			if b.probeOK >= b.cfg.HalfOpenSuccesses {
				b.failures = 0
				b.transitionLocked(Closed)
			}
		} else if b.cfg.Countable(err) {
			b.transitionLocked(Open)
		}
	case Closed:
		if err == nil {
			b.failures = 0
		} else if b.cfg.Countable(err) {
			b.failures++
			if b.failures >= b.cfg.FailureThreshold {
				b.transitionLocked(Open)
			}
		}
	}
	return err
}
