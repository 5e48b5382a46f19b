package resilience

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// The three positions of the breaker state machine.
const (
	// Closed: requests flow; consecutive failures are counted.
	Closed BreakerState = iota
	// Open: requests fail fast until the open timeout elapses.
	Open
	// HalfOpen: a limited number of probe requests test recovery.
	HalfOpen
)

var stateNames = [...]string{Closed: "closed", Open: "open", HalfOpen: "half-open"}

func (s BreakerState) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrBreakerOpen is the sentinel matched by errors.Is for every
// fast-fail rejection, whatever breaker issued it.
var ErrBreakerOpen = errors.New("resilience: circuit breaker open")

// OpenError is a fast-fail rejection from a specific breaker, carrying
// the wait the caller should impose before trying again (the basis for
// an HTTP Retry-After header).
type OpenError struct {
	Name       string
	RetryAfter time.Duration
}

// Error formats the rejection.
func (e *OpenError) Error() string {
	return fmt.Sprintf("resilience: %s breaker open, retry after %v", e.Name, e.RetryAfter)
}

// Is matches ErrBreakerOpen.
func (e *OpenError) Is(target error) bool { return target == ErrBreakerOpen }

// BreakerConfig parameterizes one breaker.
type BreakerConfig struct {
	Name             string
	FailureThreshold int           // consecutive failures that open the breaker (0 means 5)
	OpenTimeout      time.Duration // time in Open before probing (0 means 1s)
	HalfOpenProbes   int           // consecutive probe successes that close it (0 means 1)
	Clock            Clock         // nil means the wall clock
	// OnTransition, when set, observes every state change under the
	// breaker's clock. It is called outside the breaker lock.
	OnTransition func(name string, from, to BreakerState, at time.Time)
}

// BreakerStats is a point-in-time snapshot of one breaker, including
// cumulative transition counters — the observability surface the chaos
// soak asserts on.
type BreakerStats struct {
	Name                string `json:"name"`
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures"`
	Successes           int64  `json:"successes"`
	Failures            int64  `json:"failures"`
	Rejected            int64  `json:"rejected"`
	Opened              int64  `json:"opened"`               // transitions into Open
	HalfOpened          int64  `json:"half_opened"`          // transitions Open -> HalfOpen
	ClosedFromHalfOpen  int64  `json:"closed_from_halfopen"` // transitions HalfOpen -> Closed
}

// Breaker is a closed/open/half-open circuit breaker. It opens after
// FailureThreshold consecutive failures, fails fast for OpenTimeout,
// then admits probes one at a time; HalfOpenProbes consecutive probe
// successes close it and any probe failure reopens it. All decisions
// read time from the injected Clock, so transition sequences are
// deterministic under a Fake clock. Safe for concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	clock Clock

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	probeBusy   bool // a half-open probe is in flight
	probeOK     int  // consecutive probe successes this half-open episode
	stats       BreakerStats
}

// NewBreaker builds a breaker, applying config defaults.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = 5
	}
	if cfg.OpenTimeout <= 0 {
		cfg.OpenTimeout = time.Second
	}
	if cfg.HalfOpenProbes <= 0 {
		cfg.HalfOpenProbes = 1
	}
	clock := cfg.Clock
	if clock == nil {
		clock = Wall{}
	}
	return &Breaker{cfg: cfg, clock: clock, stats: BreakerStats{Name: cfg.Name}}
}

// transition must be called with the lock held; it returns the callback
// to invoke once the lock is released.
func (b *Breaker) transition(to BreakerState, at time.Time) func() {
	from := b.state
	b.state = to
	switch to {
	case Open:
		b.stats.Opened++
		b.openedAt = at
		b.probeBusy = false
		b.probeOK = 0
	case HalfOpen:
		b.stats.HalfOpened++
		b.probeOK = 0
	case Closed:
		if from == HalfOpen {
			b.stats.ClosedFromHalfOpen++
		}
		b.consecFails = 0
	}
	if cb := b.cfg.OnTransition; cb != nil {
		name := b.cfg.Name
		return func() { cb(name, from, to, at) }
	}
	return nil
}

// Allow reports whether a call may proceed now. nil means yes — the
// caller must pair it with exactly one Record or Abandon. A non-nil
// return is an *OpenError carrying the remaining fast-fail window.
func (b *Breaker) Allow() error {
	now := b.clock.Now()
	b.mu.Lock()
	var cb func()
	defer func() {
		b.mu.Unlock()
		if cb != nil {
			cb()
		}
	}()
	switch b.state {
	case Closed:
		return nil
	case Open:
		if wait := b.openedAt.Add(b.cfg.OpenTimeout).Sub(now); wait > 0 {
			b.stats.Rejected++
			return &OpenError{Name: b.cfg.Name, RetryAfter: wait}
		}
		cb = b.transition(HalfOpen, now)
		b.probeBusy = true
		return nil
	default: // HalfOpen
		if b.probeBusy {
			b.stats.Rejected++
			return &OpenError{Name: b.cfg.Name, RetryAfter: b.cfg.OpenTimeout}
		}
		b.probeBusy = true
		return nil
	}
}

// Record reports the outcome of a call previously admitted by Allow.
// A nil err — or one marked Permanent, which means the subsystem
// correctly rejected bad input rather than failing — counts as success.
func (b *Breaker) Record(err error) {
	failure := err != nil && !IsPermanent(err)
	now := b.clock.Now()
	b.mu.Lock()
	var cb func()
	defer func() {
		b.mu.Unlock()
		if cb != nil {
			cb()
		}
	}()
	if failure {
		b.stats.Failures++
	} else {
		b.stats.Successes++
	}
	switch b.state {
	case Closed:
		if failure {
			b.consecFails++
			if b.consecFails >= b.cfg.FailureThreshold {
				cb = b.transition(Open, now)
			}
		} else {
			b.consecFails = 0
		}
	case HalfOpen:
		b.probeBusy = false
		if failure {
			cb = b.transition(Open, now)
			return
		}
		b.probeOK++
		if b.probeOK >= b.cfg.HalfOpenProbes {
			cb = b.transition(Closed, now)
		}
	case Open:
		// A call admitted before the trip finished late; its outcome is
		// already accounted in the totals and changes nothing else.
	}
}

// Abandon ends a call previously admitted by Allow without an outcome:
// the caller gave up (its context ended), which says nothing about the
// subsystem. It counts as neither success nor failure, so a closed
// breaker keeps its consecutive-failure count, and it frees a half-open
// probe slot without closing or reopening the breaker, so the next
// caller probes instead.
func (b *Breaker) Abandon() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probeBusy = false
	}
}

// Do runs op under the breaker: fast-fails with *OpenError when the
// breaker rejects the call, otherwise records op's outcome.
func (b *Breaker) Do(op func() error) error {
	if err := b.Allow(); err != nil {
		return err
	}
	err := op()
	b.Record(err)
	return err
}

// State returns the current position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Stats returns a snapshot of the breaker's counters.
func (b *Breaker) Stats() BreakerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	s.State = b.state.String()
	s.ConsecutiveFailures = b.consecFails
	return s
}
