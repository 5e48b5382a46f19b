// Package resilience provides the fault-tolerance primitives of the
// powerd ring's peer calls: retry with exponential backoff and full
// jitter, and circuit breakers. A forward to another node can fail
// transiently, which is what both are for; the estimators themselves
// are pure computations and run once. Everything time-dependent is
// driven through a Clock so tests replace the wall clock with a fake
// and assert transition sequences deterministically — the same design
// discipline budget.FaultPlan applies to failure injection.
package resilience

import (
	"context"
	"sync"
	"time"
)

// Clock abstracts the two time operations the package needs: reading
// the current instant and sleeping for a backoff interval. Production
// code uses Wall; tests use Fake to make every delay and breaker
// transition deterministic.
type Clock interface {
	Now() time.Time
	// Sleep blocks for d or until ctx is done, returning ctx.Err() in
	// the latter case.
	Sleep(ctx context.Context, d time.Duration) error
}

// Wall is the real wall clock.
type Wall struct{}

// Now returns time.Now().
func (Wall) Now() time.Time { return time.Now() }

// Sleep waits for d or the context, whichever ends first.
func (Wall) Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Fake is a manual clock for tests. Sleep advances virtual time
// immediately and records the requested duration, so a retry loop under
// Fake runs its whole backoff schedule synchronously and the recorded
// sequence can be compared exactly. Advance moves time for components
// (like a breaker's open timeout) that only read Now.
type Fake struct {
	mu    sync.Mutex
	now   time.Time
	slept []time.Duration
}

// NewFake returns a fake clock starting at the given instant.
func NewFake(start time.Time) *Fake { return &Fake{now: start} }

// Now returns the current virtual time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Sleep advances virtual time by d and records it. A done context still
// wins, matching Wall's contract.
func (f *Fake) Sleep(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if d > 0 {
		f.now = f.now.Add(d)
	}
	f.slept = append(f.slept, d)
	return nil
}

// Advance moves virtual time forward by d.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
}

// Slept returns a copy of the recorded sleep durations in order.
func (f *Fake) Slept() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]time.Duration, len(f.slept))
	copy(out, f.slept)
	return out
}
