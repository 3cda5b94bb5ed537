// Package retry shapes the backoff between a distributed shard's failed
// attempts and marks the errors no further attempt can fix. The
// coordinator (internal/dist) owns the attempt budget; this package only
// answers "how long until the next try" and "is it worth one".
//
// Full jitter (delay drawn uniformly from [0, cap]) is deliberate: a fleet
// of workers retrying a shared dependency with synchronized backoff
// re-creates the thundering herd it is trying to escape; spreading each
// delay over the whole window decorrelates them at no cost in expected
// wait.
package retry

import (
	"errors"
	"time"
)

// Defaults applied by Backoff when the corresponding Policy field is zero.
const (
	DefaultBaseDelay  = 100 * time.Millisecond
	DefaultMaxDelay   = 5 * time.Second
	DefaultMultiplier = 2.0
)

// Policy shapes the backoff. The zero value is usable: 100 ms base delay
// doubling to a 5 s cap, full jitter.
type Policy struct {
	// MaxAttempts is read by nothing.
	//
	// Deprecated: it budgeted serd's per-stage retry of in-process
	// compute, which is gone; a failed job is resubmitted and resumes from
	// its checkpoint. The field stays only because the checked-in
	// benchmark (perfbench) still sets it.
	MaxAttempts int
	// BaseDelay is the backoff cap after the first failure.
	BaseDelay time.Duration
	// MaxDelay bounds the backoff cap growth.
	MaxDelay time.Duration
	// Multiplier grows the cap per failed attempt (default 2).
	Multiplier float64
}

// permanentError marks an error as not worth retrying.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as non-retryable: a caller that consults
// IsPermanent fails fast on it. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var pe *permanentError
	return errors.As(err, &pe)
}

// withDefaults resolves the zero-value conveniences.
func (p Policy) withDefaults() Policy {
	if p.BaseDelay <= 0 {
		p.BaseDelay = DefaultBaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	if p.Multiplier <= 1 {
		p.Multiplier = DefaultMultiplier
	}
	return p
}

// Backoff returns the fully jittered delay scheduled after the given
// failed attempt (1-based): uniform in [0, cap] where cap is
// min(MaxDelay, BaseDelay·Multiplier^(attempt-1)). r is the jitter draw
// in [0, 1).
func (p Policy) Backoff(attempt int, r float64) time.Duration {
	p = p.withDefaults()
	cap := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		cap *= p.Multiplier
		if cap >= float64(p.MaxDelay) {
			cap = float64(p.MaxDelay)
			break
		}
	}
	return time.Duration(r * cap)
}
