package qos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a deterministic time source for limiter tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestTokenBucketRefill pins the rate-limit contract: a tenant burns its
// burst, is refused with a *RateError whose RetryAfter names the refill
// time, and is admitted again exactly after tokens accrue — while a second
// tenant's bucket is untouched.
func TestTokenBucketRefill(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	l := NewLimiter(LimiterConfig{Rate: 2, Burst: 3, Now: clk.Now})

	for i := 0; i < 3; i++ {
		if err := l.Admit("acme"); err != nil {
			t.Fatalf("burst admit %d: %v", i, err)
		}
	}
	err := l.Admit("acme")
	var re *RateError
	if !errors.As(err, &re) {
		t.Fatalf("over-burst admit = %v, want *RateError", err)
	}
	if re.Tenant != "acme" {
		t.Errorf("RateError.Tenant = %q, want acme", re.Tenant)
	}
	// Bucket empty, rate 2/s: one token needs 500 ms.
	if got, want := re.RetryAfter, 500*time.Millisecond; got != want {
		t.Errorf("RetryAfter = %v, want %v", got, want)
	}
	// Another tenant is isolated: its own fresh bucket admits.
	if err := l.Admit("other"); err != nil {
		t.Fatalf("isolated tenant refused: %v", err)
	}
	// After 500 ms one token accrued.
	clk.Advance(500 * time.Millisecond)
	if err := l.Admit("acme"); err != nil {
		t.Fatalf("post-refill admit: %v", err)
	}
	if err := l.Admit("acme"); err == nil {
		t.Fatal("second post-refill admit succeeded, want rate error")
	}
	// Refill caps at burst: a long idle period grants 3, not 3000.
	clk.Advance(time.Hour)
	for i := 0; i < 3; i++ {
		if err := l.Admit("acme"); err != nil {
			t.Fatalf("burst-capped admit %d: %v", i, err)
		}
	}
	if err := l.Admit("acme"); err == nil {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

// TestQuotaAcquireRelease pins the in-flight quota: Acquire refuses at the
// limit with a *QuotaError, Release frees a slot, and Restore (the
// recovery path) bypasses the check.
func TestQuotaAcquireRelease(t *testing.T) {
	l := NewLimiter(LimiterConfig{Quota: 2})
	if err := l.Acquire("acme"); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire("acme"); err != nil {
		t.Fatal(err)
	}
	err := l.Acquire("acme")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota acquire = %v, want *QuotaError", err)
	}
	if qe.InFlight != 2 || qe.Limit != 2 {
		t.Errorf("QuotaError = %+v, want inflight 2 of 2", qe)
	}
	// Other tenants have their own quota.
	if err := l.Acquire("other"); err != nil {
		t.Fatalf("isolated tenant refused: %v", err)
	}
	l.Release("acme")
	if err := l.Acquire("acme"); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	// Recovery restore ignores the quota (jobs admitted pre-crash must
	// never be refused their own slots) and still releases cleanly.
	l.Restore("acme")
	if got := l.InFlight("acme"); got != 3 {
		t.Fatalf("InFlight after restore = %d, want 3", got)
	}
	l.Release("acme")
	l.Release("acme")
	l.Release("acme")
	l.Release("acme") // extra release must not underflow
	if got := l.InFlight("acme"); got != 0 {
		t.Fatalf("InFlight after releases = %d, want 0", got)
	}
}

// TestNilLimiterAdmitsEverything: nil-receiver no-op, matching the repo's
// observability idiom.
func TestNilLimiterAdmitsEverything(t *testing.T) {
	var l *Limiter
	if err := l.Admit("x"); err != nil {
		t.Fatal(err)
	}
	if err := l.Acquire("x"); err != nil {
		t.Fatal(err)
	}
	l.Release("x")
	l.Restore("x")
	if l.InFlight("x") != 0 {
		t.Fatal("nil limiter tracked state")
	}
}

// TestSchedulerSingleFlowIsFIFO: with one tenant and one class the WFQ
// degenerates to exactly admission order — the pre-QoS contract.
func TestSchedulerSingleFlowIsFIFO(t *testing.T) {
	s := NewScheduler(SchedulerConfig{})
	for i := 0; i < 10; i++ {
		if err := s.Push(DefaultTenant, ClassBatch, 100, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, ok := s.Pop()
		if !ok || got.(int) != i {
			t.Fatalf("pop %d = %v (ok=%v), want FIFO order", i, got, ok)
		}
	}
}

// TestSchedulerInteractiveOvertakesBatchBacklog: a deep batch backlog is
// already queued when one interactive item arrives; the interactive item
// must be dispatched next (its finish tag is far smaller), and batch order
// is preserved around it.
func TestSchedulerInteractiveOvertakesBatchBacklog(t *testing.T) {
	s := NewScheduler(SchedulerConfig{})
	for i := 0; i < 20; i++ {
		if err := s.Push("bulk", ClassBatch, 1000, fmt.Sprintf("batch-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// One batch item dispatches first (it was alone when it arrived).
	first, _ := s.Pop()
	if first != "batch-0" {
		t.Fatalf("first pop = %v, want batch-0", first)
	}
	if err := s.Push("ui", ClassInteractive, 1, "interactive-0"); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Pop()
	if got != "interactive-0" {
		t.Fatalf("pop after interactive push = %v, want interactive-0 (overtakes %d queued batch items)", got, 19)
	}
	next, _ := s.Pop()
	if next != "batch-1" {
		t.Fatalf("batch order disturbed: pop = %v, want batch-1", next)
	}
}

// TestSchedulerWeightedShare: two backlogged tenants with 3:1 weights must
// dispatch in a ~3:1 interleave, not strict alternation and not
// starvation.
func TestSchedulerWeightedShare(t *testing.T) {
	s := NewScheduler(SchedulerConfig{
		TenantWeights: map[string]float64{"heavy": 3, "light": 1},
	})
	const n = 40
	for i := 0; i < n; i++ {
		s.Push("heavy", ClassBatch, 10, "heavy")
		s.Push("light", ClassBatch, 10, "light")
	}
	heavyFirst := 0
	for i := 0; i < 24; i++ {
		it, _ := s.Pop()
		if it == "heavy" {
			heavyFirst++
		}
	}
	// Ideal share over 24 dispatches is 18 heavy / 6 light; allow slack
	// for tag rounding at the boundary.
	if heavyFirst < 15 || heavyFirst > 21 {
		t.Fatalf("heavy got %d of 24 dispatches, want ~18 (3:1 share)", heavyFirst)
	}
}

// TestSchedulerCapacityAndClose: capacity refuses with ErrFull, Close
// refuses new pushes with ErrClosed but drains the backlog, then Pop
// reports done.
func TestSchedulerCapacityAndClose(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Capacity: 2})
	if err := s.Push("a", ClassBatch, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("a", ClassBatch, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Push("a", ClassBatch, 1, 3); !errors.Is(err, ErrFull) {
		t.Fatalf("push at capacity = %v, want ErrFull", err)
	}
	// ForcePush ignores capacity (recovery path).
	if err := s.ForcePush("a", ClassBatch, 1, 3); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Push("a", ClassBatch, 1, 4); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close = %v, want ErrClosed", err)
	}
	for want := 1; want <= 3; want++ {
		got, ok := s.Pop()
		if !ok || got.(int) != want {
			t.Fatalf("drain pop = %v (ok=%v), want %d", got, ok, want)
		}
	}
	if _, ok := s.Pop(); ok {
		t.Fatal("Pop after drain returned ok")
	}
}

// TestSchedulerRemoveFreesCapacity: removing a queued item frees its slot
// at once and keeps the rest of its flow in order; an item no longer
// queued is not found.
func TestSchedulerRemoveFreesCapacity(t *testing.T) {
	s := NewScheduler(SchedulerConfig{Capacity: 2})
	for _, it := range []int{1, 2} {
		if err := s.Push("a", ClassBatch, 1, it); err != nil {
			t.Fatal(err)
		}
	}
	s.Remove("a", ClassBatch, 1)
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after removing a queued item = %d, want 1", n)
	}
	s.Remove("a", ClassBatch, 1)
	s.Remove("b", ClassBatch, 2)
	if n := s.Len(); n != 1 {
		t.Fatalf("Len after removing items not queued in those flows = %d, want 1", n)
	}
	if err := s.Push("a", ClassBatch, 1, 3); err != nil {
		t.Fatalf("push after remove = %v, want the freed slot", err)
	}
	for _, want := range []int{2, 3} {
		if got, _ := s.Pop(); got.(int) != want {
			t.Fatalf("pop = %v, want %d", got, want)
		}
	}
}

// TestSchedulerBlockingPop: Pop blocks until a push arrives, and Close
// wakes blocked pops. Run with -race to catch signaling bugs.
func TestSchedulerBlockingPop(t *testing.T) {
	s := NewScheduler(SchedulerConfig{})
	got := make(chan any, 1)
	go func() {
		it, ok := s.Pop()
		if !ok {
			got <- nil
			return
		}
		got <- it
	}()
	time.Sleep(10 * time.Millisecond)
	s.Push("a", ClassInteractive, 1, "wake")
	select {
	case it := <-got:
		if it != "wake" {
			t.Fatalf("blocked pop woke with %v", it)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Pop never woke on Push")
	}

	done := make(chan struct{})
	go func() {
		_, ok := s.Pop()
		if ok {
			t.Error("Pop on closed empty scheduler returned ok")
		}
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Pop never woke on Close")
	}
}

// TestSchedulerConcurrent hammers Push/Pop from many goroutines under the
// race detector and checks conservation: every pushed item is popped
// exactly once.
func TestSchedulerConcurrent(t *testing.T) {
	s := NewScheduler(SchedulerConfig{})
	const producers, perProducer = 8, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", p%3)
			class := ClassBatch
			if p%2 == 0 {
				class = ClassInteractive
			}
			for i := 0; i < perProducer; i++ {
				if err := s.Push(tenant, class, float64(1+i%7), p*perProducer+i); err != nil {
					t.Errorf("push: %v", err)
					return
				}
			}
		}(p)
	}
	seen := make([]bool, producers*perProducer)
	var cmu sync.Mutex
	var cwg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				it, ok := s.Pop()
				if !ok {
					return
				}
				cmu.Lock()
				idx := it.(int)
				if seen[idx] {
					t.Errorf("item %d popped twice", idx)
				}
				seen[idx] = true
				cmu.Unlock()
			}
		}()
	}
	wg.Wait()
	// Wait for the backlog to drain, then close to release the consumers.
	for s.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	cwg.Wait()
	for i, ok := range seen {
		if !ok {
			t.Fatalf("item %d never popped", i)
		}
	}
}
