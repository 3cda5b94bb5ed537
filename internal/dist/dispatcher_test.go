package dist

import (
	"context"
	"testing"
	"time"
)

// TestDispatcherBackoffWakeup: a worker waiting out a shard's backoff gate
// is woken when the gate opens, however close the gate is. A wake-up that
// fires before the waiter reaches cond.Wait must not be lost, or the run
// hangs with nothing left to wake it.
func TestDispatcherBackoffWakeup(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			s := &shardState{notBefore: time.Now().Add(time.Duration(i%40) * time.Microsecond)}
			d := newDispatcher([]*shardState{s}, time.Now, time.Hour)
			if got, _, _ := d.next(context.Background(), 0); got != s {
				t.Errorf("iteration %d: next returned %v, want the gated shard", i, got)
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a worker waiting on a backoff gate was never woken")
	}
}
