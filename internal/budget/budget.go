// Package budget provides resource governance for the estimation core.
// Every potentially exponential algorithm in this repository — BDD
// construction, Quine–McCluskey minimization, FSM synthesis, gate-level
// and ISA simulation — accepts a *Budget and stops with a typed
// *Exceeded error (or degrades to a cheaper estimate) instead of
// running without bound. A Budget combines a wall-clock deadline, an
// optional context.Context for cancellation, and step/node counters
// with cheap periodic check points: counter updates are a few integer
// operations, and the clock and context are only consulted every
// CheckInterval steps.
//
// All methods are safe on a nil *Budget (they are no-ops), so budgets
// thread through call chains without nil checks at every layer. A
// Budget is owned by one goroutine; share budgets across goroutines by
// giving each worker its own.
package budget

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hlpower/internal/hlerr"
)

// ErrExceeded is the sentinel matched by errors.Is for every budget
// violation, whatever the exhausted resource.
var ErrExceeded = errors.New("budget exceeded")

// Exceeded reports which resource ran out. It matches ErrExceeded via
// errors.Is and context errors when the violation came from the
// wrapped context.
type Exceeded struct {
	Resource string // "deadline", "steps", "nodes", "canceled", or "fault"
	Limit    int64  // the configured ceiling (nanoseconds for deadlines)
	Used     int64  // consumption observed at the trip point
	Cause    error  // non-nil when a context cancellation tripped the budget
}

// Error formats the violation.
func (e *Exceeded) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("budget exceeded: %s (%v)", e.Resource, e.Cause)
	}
	return fmt.Sprintf("budget exceeded: %s (%d of %d)", e.Resource, e.Used, e.Limit)
}

// Is matches ErrExceeded.
func (e *Exceeded) Is(target error) bool { return target == ErrExceeded }

// Unwrap exposes the context error for errors.Is(err, context.Canceled)
// and friends.
func (e *Exceeded) Unwrap() error { return e.Cause }

// DefaultCheckInterval is how many steps pass between wall-clock and
// context consultations when WithCheckInterval is not given.
const DefaultCheckInterval = 1024

// Budget tracks resource consumption for one estimation run.
type Budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	start       time.Time

	maxSteps, steps int64
	maxNodes, nodes int64

	interval   int64
	untilCheck int64
	checks     int64 // completed slow check points (fault-injection hook)

	fault *FaultPlan
	err   error // sticky: first violation observed
}

// Option configures a Budget.
type Option func(*Budget)

// WithTimeout sets a wall-clock deadline d from now.
func WithTimeout(d time.Duration) Option {
	return func(b *Budget) {
		b.deadline = b.start.Add(d)
		b.hasDeadline = true
	}
}

// WithDeadline sets an absolute wall-clock deadline.
func WithDeadline(t time.Time) Option {
	return func(b *Budget) {
		b.deadline = t
		b.hasDeadline = true
	}
}

// WithContext ties the budget to ctx: cancellation and the context
// deadline both trip the budget at the next check point.
func WithContext(ctx context.Context) Option {
	return func(b *Budget) {
		b.ctx = ctx
		if t, ok := ctx.Deadline(); ok && (!b.hasDeadline || t.Before(b.deadline)) {
			b.deadline = t
			b.hasDeadline = true
		}
	}
}

// WithMaxSteps caps the abstract work counter (BDD operations, cube
// merges, simulated cycles·gates, executed instructions).
func WithMaxSteps(n int64) Option { return func(b *Budget) { b.maxSteps = n } }

// WithMaxNodes caps allocated nodes — the memory proxy for BDD and
// cover construction.
func WithMaxNodes(n int64) Option { return func(b *Budget) { b.maxNodes = n } }

// WithCheckInterval sets how many steps pass between clock/context
// consultations. Smaller means tighter deadline enforcement at more
// overhead.
func WithCheckInterval(n int64) Option {
	return func(b *Budget) {
		if n > 0 {
			b.interval = n
		}
	}
}

// New builds a budget. With no options it never trips — handy as an
// explicit "unbounded" value.
func New(opts ...Option) *Budget {
	b := &Budget{start: time.Now(), interval: DefaultCheckInterval}
	for _, o := range opts {
		o(b)
	}
	b.untilCheck = b.interval
	return b
}

// FromContext wraps a context as a budget: its deadline and
// cancellation govern the run.
func FromContext(ctx context.Context) *Budget {
	return New(WithContext(ctx))
}

// Err returns the sticky violation, or nil while the budget holds.
// nil-safe.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	return b.err
}

// Ok reports whether the budget still holds. nil-safe.
func (b *Budget) Ok() bool { return b.Err() == nil }

// FaultArmed reports whether a fault-injection plan is armed on this
// budget. Memoization layers consult it before caching: a result
// computed under injected chaos must never be stored as a fresh
// estimate, and lookups are bypassed so the injected fault always
// reaches the real estimation path. nil-safe.
func (b *Budget) FaultArmed() bool { return b != nil && b.fault != nil }

// StepsUsed returns the consumed step count. nil-safe.
func (b *Budget) StepsUsed() int64 {
	if b == nil {
		return 0
	}
	return b.steps
}

// MaxSteps returns the step allowance, 0 when steps are unlimited.
// nil-safe.
func (b *Budget) MaxSteps() int64 {
	if b == nil || b.maxSteps < 0 {
		return 0
	}
	return b.maxSteps
}

// NodesUsed returns the consumed node count. nil-safe.
func (b *Budget) NodesUsed() int64 {
	if b == nil {
		return 0
	}
	return b.nodes
}

// Step consumes n units of work and returns the (sticky) violation if
// the budget is exhausted. It is the cheap per-iteration check point:
// a few integer operations on the fast path.
func (b *Budget) Step(n int64) error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.steps += n
	if b.maxSteps > 0 && b.steps > b.maxSteps {
		b.err = &Exceeded{Resource: "steps", Limit: b.maxSteps, Used: b.steps}
		return b.err
	}
	b.untilCheck -= n
	if b.untilCheck <= 0 {
		b.untilCheck = b.interval
		return b.slowCheck()
	}
	return nil
}

// Nodes charges n allocated nodes against the memory ceiling.
func (b *Budget) Nodes(n int64) error {
	if b == nil {
		return nil
	}
	if b.err != nil {
		return b.err
	}
	b.nodes += n
	if b.maxNodes > 0 && b.nodes > b.maxNodes {
		b.err = &Exceeded{Resource: "nodes", Limit: b.maxNodes, Used: b.nodes}
		return b.err
	}
	return nil
}

// Check is Step for deep recursions without error plumbing: on
// violation it panics with a typed value that hlerr.Recover (or
// budget.Recover) converts back into an error at the entry point.
func (b *Budget) Check(n int64) {
	if err := b.Step(n); err != nil {
		hlerr.Throw(err)
	}
}

// CheckNodes is Nodes with the typed-panic reporting of Check.
func (b *Budget) CheckNodes(n int64) {
	if err := b.Nodes(n); err != nil {
		hlerr.Throw(err)
	}
}

// slowCheck consults the expensive signals: injected faults, context
// cancellation, and the wall clock.
func (b *Budget) slowCheck() error {
	b.checks++
	if b.fault != nil {
		if err := b.fault.trip(b.checks); err != nil {
			b.err = err
			return b.err
		}
	}
	if b.ctx != nil {
		if cause := b.ctx.Err(); cause != nil {
			b.err = &Exceeded{Resource: "canceled", Cause: cause}
			return b.err
		}
	}
	if b.hasDeadline && !time.Now().Before(b.deadline) {
		b.err = &Exceeded{
			Resource: "deadline",
			Limit:    int64(b.deadline.Sub(b.start)),
			Used:     int64(time.Since(b.start)),
		}
		return b.err
	}
	return nil
}

// Recover converts a Check/CheckNodes panic (or any hlerr.Throw) into
// *errp. It is a direct alias of hlerr.Recover (a wrapper would defeat
// recover(), which must be called by the deferred function itself), so
// budget users need only one import.
var Recover = hlerr.Recover
