package memo

import (
	"context"
	"errors"
	"testing"
	"time"

	"hlpower/internal/hlerr"
)

// A flight is one in-flight computation and the callers that joined it.
// These tests pin its lifecycle under DoContext: who may leave, who
// cancels it, and what a later caller joins.

// startFlight starts a DoContext call for k on ctx whose compute
// signals entry on started and then runs body on the flight's context.
// The call's outcome arrives on the returned channel.
func startFlight(c *Cache, ctx context.Context, k Key, started chan<- struct{}, body func(ctx context.Context) (any, error)) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, shared, err := c.DoContext(ctx, k, func(fctx context.Context) (any, int64, bool, error) {
			close(started)
			v, err := body(fctx)
			return v, 8, err == nil, err
		})
		out <- outcome{v, shared, err}
	}()
	return out
}

// join makes a DoContext call for k that must not compute.
func join(t *testing.T, c *Cache, ctx context.Context, k Key) <-chan outcome {
	out := make(chan outcome, 1)
	go func() {
		v, shared, err := c.DoContext(ctx, k, func(context.Context) (any, int64, bool, error) {
			t.Error("a waiter computed while a flight was in progress")
			return nil, 0, false, nil
		})
		out <- outcome{v, shared, err}
	}()
	return out
}

type outcome struct {
	val    any
	shared bool
	err    error
}

// recv takes one outcome, failing the test if none arrives in 5 s.
func recv(t *testing.T, what string, ch <-chan outcome) outcome {
	t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: no outcome after 5s", what)
		return outcome{}
	}
}

// TestFlightWaiterLeavesAlone: a waiter whose context ends returns at
// once with its context's error; the flight goes on, and the computing
// caller and the other waiter get its value.
func TestFlightWaiterLeavesAlone(t *testing.T) {
	c := New(Options{})
	k := keyOf(30)
	started, release := make(chan struct{}), make(chan struct{})
	leader := startFlight(c, context.Background(), k, started, func(context.Context) (any, error) {
		<-release
		return "value", nil
	})
	<-started
	ctx, leave := context.WithCancel(context.Background())
	quitter := join(t, c, ctx, k)
	stayer := join(t, c, context.Background(), k)
	waitForCollapsed(t, c, 2)

	leave()
	if o := recv(t, "leaving waiter", quitter); !errors.Is(o.err, context.Canceled) || o.val != nil {
		t.Fatalf("leaving waiter: %+v, want context.Canceled at once", o)
	}
	close(release)
	if o := recv(t, "staying waiter", stayer); o.err != nil || !o.shared || o.val != "value" {
		t.Fatalf("staying waiter: %+v, want the shared value", o)
	}
	if o := recv(t, "computing caller", leader); o.err != nil || o.shared || o.val != "value" {
		t.Fatalf("computing caller: %+v, want its own value", o)
	}
	if st := c.Stats(); st.Stores != 1 {
		t.Fatalf("the flight's value was not stored: %+v", st)
	}
}

// TestFlightLastLeaverCancels: the computing caller leaving does not
// stop the flight while a waiter remains; the last participant to
// leave cancels the compute's context, and the computing caller then
// returns with what its compute made of the cancellation.
func TestFlightLastLeaverCancels(t *testing.T) {
	c := New(Options{})
	k := keyOf(31)
	started := make(chan struct{})
	leaderCtx, leaderLeaves := context.WithCancel(context.Background())
	leader := startFlight(c, leaderCtx, k, started, func(ctx context.Context) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	waiterCtx, waiterLeaves := context.WithCancel(context.Background())
	waiter := join(t, c, waiterCtx, k)
	waitForCollapsed(t, c, 1)

	leaderLeaves()
	select {
	case o := <-leader:
		t.Fatalf("the flight stopped while a waiter remained: %+v", o)
	case <-time.After(50 * time.Millisecond):
	}
	waiterLeaves()
	if o := recv(t, "waiter", waiter); !errors.Is(o.err, context.Canceled) {
		t.Fatalf("waiter: %+v, want context.Canceled", o)
	}
	if o := recv(t, "computing caller", leader); !errors.Is(o.err, context.Canceled) || o.shared {
		t.Fatalf("computing caller: %+v, want its compute's context.Canceled", o)
	}
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("a canceled flight stored its outcome: %+v", st)
	}
}

// TestFlightAfterEveryoneLeftStartsFresh: once every participant has
// left, a new caller starts a flight of its own instead of joining the
// canceled one, even while the canceled compute has not returned yet.
func TestFlightAfterEveryoneLeftStartsFresh(t *testing.T) {
	c := New(Options{})
	k := keyOf(32)
	started, release := make(chan struct{}), make(chan struct{})
	ctx, leave := context.WithCancel(context.Background())
	flightCtxs := make(chan context.Context, 1)
	first := startFlight(c, ctx, k, started, func(fctx context.Context) (any, error) {
		flightCtxs <- fctx
		<-release // ignores the cancellation until released
		return "stale", nil
	})
	<-started
	flightCtx := <-flightCtxs
	leave()
	deadline := time.Now().Add(5 * time.Second)
	for flightCtx.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("the flight's context was not canceled when its only participant left")
		}
		time.Sleep(time.Millisecond)
	}

	v, shared, err := c.DoContext(context.Background(), k, func(context.Context) (any, int64, bool, error) {
		return "fresh", 8, true, nil
	})
	if err != nil || shared || v != "fresh" {
		t.Fatalf("caller after everyone left: v=%v shared=%v err=%v, want its own fresh value", v, shared, err)
	}
	close(release)
	recv(t, "abandoned flight", first)
	if st := c.Stats(); st.Misses != 2 || st.Collapsed != 0 {
		t.Fatalf("want two flights and no joiner, got %+v", st)
	}
}

// TestFlightPanicReachesEveryWaiter: a panicking flight reaches every
// waiter, leaving-capable or not, as a typed error.
func TestFlightPanicReachesEveryWaiter(t *testing.T) {
	c := New(Options{})
	k := keyOf(33)
	started, release := make(chan struct{}), make(chan struct{})
	leader := startFlight(c, context.Background(), k, started, func(context.Context) (any, error) {
		<-release
		hlerr.Throwf("memo.test", "malformed netlist")
		return nil, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	waiters := []<-chan outcome{join(t, c, ctx, k), join(t, c, context.Background(), k)}
	waitForCollapsed(t, c, 2)
	close(release)
	for i, w := range append(waiters, leader) {
		if o := recv(t, "participant", w); !hlerr.IsInput(o.err) {
			t.Fatalf("participant %d: %+v, want the thrown input error", i, o)
		}
	}
	if st := c.Stats(); st.Stores != 0 {
		t.Fatalf("a panicking flight stored: %+v", st)
	}
}

// TestNilCacheFlight: a nil Cache runs each call as a flight of its
// own on the caller's context, shares and stores nothing, and still
// captures panics.
func TestNilCacheFlight(t *testing.T) {
	var c *Cache
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, shared, err := c.DoContext(ctx, keyOf(34), func(fctx context.Context) (any, int64, bool, error) {
		return fctx.Err(), 8, true, nil
	})
	if err != nil || shared || !errors.Is(v.(error), context.Canceled) {
		t.Fatalf("nil cache: v=%v shared=%v err=%v, want compute run once on the caller's context", v, shared, err)
	}
	if _, _, err := c.Do(keyOf(34), func() (any, int64, bool, error) { panic("estimator exploded") }); err == nil {
		t.Fatal("nil cache let a panic escape as nil")
	}
}
