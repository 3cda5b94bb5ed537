package retry

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestBackoffJitterWithinBounds checks the full-jitter invariant: every
// delay lies in [0, cap] where cap follows the exponential schedule
// truncated at MaxDelay — for extreme draws and across many random draws.
func TestBackoffJitterWithinBounds(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Multiplier: 2}
	caps := []time.Duration{
		100 * time.Millisecond, // attempt 1
		200 * time.Millisecond, // attempt 2
		250 * time.Millisecond, // attempt 3: 400ms truncated to the cap
		250 * time.Millisecond, // attempt 4: stays at the cap
	}
	for i, want := range caps {
		attempt := i + 1
		if got := p.Backoff(attempt, 0); got != 0 {
			t.Errorf("attempt %d, r=0: delay %v, want 0", attempt, got)
		}
		if got := p.Backoff(attempt, 1); got != want {
			t.Errorf("attempt %d, r=1: delay %v, want %v", attempt, got, want)
		}
	}

	// Random draws never escape the window.
	r := uint64(1)
	next := func() float64 { // xorshift, no global rand state in tests
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%1000) / 1000
	}
	for attempt := 1; attempt <= 6; attempt++ {
		for i := 0; i < 200; i++ {
			d := p.Backoff(attempt, next())
			if d < 0 || d > 250*time.Millisecond {
				t.Fatalf("attempt %d: delay %v outside [0, 250ms]", attempt, d)
			}
		}
	}
}

// TestPermanentSurvivesWrapping checks that a Permanent mark, which the
// coordinator reads to fail a shard without spending its budget, survives
// error wrapping and keeps the cause reachable.
func TestPermanentSurvivesWrapping(t *testing.T) {
	errCfg := errors.New("bad config")
	err := fmt.Errorf("dist: shard: %w", Permanent(errCfg))
	if !IsPermanent(err) {
		t.Errorf("IsPermanent = false for wrapped %v", err)
	}
	if !errors.Is(err, errCfg) {
		t.Errorf("error lost the cause: %v", err)
	}
	if IsPermanent(errCfg) || IsPermanent(nil) {
		t.Error("an unmarked error reads as permanent")
	}
	if Permanent(nil) != nil {
		t.Error("Permanent(nil) is not nil")
	}
}

// TestZeroPolicyDefaults checks the zero value resolves to the documented
// defaults rather than a zero delay.
func TestZeroPolicyDefaults(t *testing.T) {
	var p Policy
	if got := p.Backoff(1, 1); got != DefaultBaseDelay {
		t.Errorf("first backoff cap %v, want %v", got, DefaultBaseDelay)
	}
	if got := p.Backoff(2, 1); got != time.Duration(DefaultMultiplier*float64(DefaultBaseDelay)) {
		t.Errorf("second backoff cap %v, want %v×%v", got, DefaultMultiplier, DefaultBaseDelay)
	}
	if got := p.Backoff(30, 1); got != DefaultMaxDelay {
		t.Errorf("late backoff cap %v, want %v", got, DefaultMaxDelay)
	}
}
