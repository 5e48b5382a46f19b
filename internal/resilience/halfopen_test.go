package resilience

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// openBreaker returns a breaker driven to Open on a fake clock, one
// tick away from admitting its first half-open probe.
func openBreaker(t *testing.T, probes int) (*Breaker, *Fake) {
	t.Helper()
	clock := NewFake(time.Unix(100, 0))
	b := NewBreaker(BreakerConfig{
		Name:             "ho",
		FailureThreshold: 1,
		OpenTimeout:      50 * time.Millisecond,
		HalfOpenProbes:   probes,
		Clock:            clock,
	})
	if err := b.Do(func() error { return errBoom }); err == nil {
		t.Fatal("op error swallowed")
	}
	if b.State() != Open {
		t.Fatal("setup: breaker not open")
	}
	clock.Advance(50 * time.Millisecond)
	return b, clock
}

// The half-open state admits exactly one probe at a time: a stampede
// of concurrent callers arriving the moment the open window expires
// must produce one admitted probe and reject the rest, however the
// goroutines interleave.
func TestBreakerHalfOpenConcurrentProbes(t *testing.T) {
	for round := 0; round < 50; round++ {
		b, _ := openBreaker(t, 1)
		const callers = 8
		var (
			admitted atomic.Int64
			rejected atomic.Int64
			start    sync.WaitGroup
			done     sync.WaitGroup
		)
		start.Add(1)
		for i := 0; i < callers; i++ {
			done.Add(1)
			go func() {
				defer done.Done()
				start.Wait()
				if err := b.Allow(); err != nil {
					if !errors.Is(err, ErrBreakerOpen) {
						t.Errorf("rejection is %v, want ErrBreakerOpen", err)
					}
					rejected.Add(1)
					return
				}
				admitted.Add(1)
				// Hold the probe slot briefly so siblings must decide while
				// it is busy, then succeed.
				time.Sleep(time.Millisecond)
				b.Record(nil)
			}()
		}
		start.Done()
		done.Wait()
		if a := admitted.Load(); a != 1 {
			t.Fatalf("round %d: %d probes admitted concurrently, want exactly 1", round, a)
		}
		if r := rejected.Load(); r != callers-1 {
			t.Fatalf("round %d: %d rejected, want %d", round, rejected.Load(), callers-1)
		}
		if b.State() != Closed {
			t.Fatalf("round %d: successful probe did not close the breaker", round)
		}
	}
}

// With HalfOpenProbes > 1, probes are still serialized: each Allow
// admits one probe only after the previous Record, and the breaker
// closes exactly at the configured probe count.
func TestBreakerHalfOpenSequentialProbeBudget(t *testing.T) {
	const probes = 3
	b, _ := openBreaker(t, probes)
	for i := 0; i < probes; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("probe %d not admitted: %v", i, err)
		}
		// While this probe is in flight, nothing else gets in.
		if err := b.Allow(); err == nil {
			t.Fatalf("probe %d: second concurrent probe admitted", i)
		}
		if i < probes-1 {
			b.Record(nil)
			if st := b.State(); st != HalfOpen {
				t.Fatalf("closed after %d/%d probe successes (state %v)", i+1, probes, st)
			}
		}
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatal("breaker not closed after full probe budget succeeded")
	}
}

// A probe failure at any point in the budget reopens immediately and
// resets the probe streak: the next half-open episode starts from
// zero, not from the prior episode's partial count.
func TestBreakerHalfOpenProbeStreakResets(t *testing.T) {
	b, clock := openBreaker(t, 2)
	// First probe succeeds, second fails: reopen.
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := b.Do(func() error { return errBoom }); err == nil {
		t.Fatal("op error swallowed")
	}
	if b.State() != Open {
		t.Fatal("probe failure did not reopen")
	}
	// Next episode: one success must NOT close (streak reset), two must.
	clock.Advance(50 * time.Millisecond)
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state after first probe of new episode = %v, want half-open (streak must reset)", st)
	}
	if err := b.Do(func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if b.State() != Closed {
		t.Fatal("two fresh probe successes did not close")
	}
}

// Transition counters are monotone and mutually consistent under
// concurrent load: Opened >= HalfOpened >= ClosedFromHalfOpen at every
// observation point, and no counter ever decreases.
func TestBreakerTransitionCountersMonotonic(t *testing.T) {
	clock := NewFake(time.Unix(100, 0))
	b := NewBreaker(BreakerConfig{
		Name:             "mono",
		FailureThreshold: 2,
		OpenTimeout:      10 * time.Millisecond,
		HalfOpenProbes:   1,
		Clock:            clock,
	})
	var (
		load sync.WaitGroup
		stop atomic.Bool
		obs  sync.WaitGroup
		bad  atomic.Int64
	)
	// Observer: snapshots must never regress or violate the lattice.
	obs.Add(1)
	go func() {
		defer obs.Done()
		var prev BreakerStats
		for !stop.Load() {
			st := b.Stats()
			if st.Opened < prev.Opened || st.HalfOpened < prev.HalfOpened ||
				st.ClosedFromHalfOpen < prev.ClosedFromHalfOpen ||
				st.Successes < prev.Successes || st.Failures < prev.Failures ||
				st.Rejected < prev.Rejected {
				bad.Add(1)
			}
			// Every half-open came from an open, every half-open close from
			// a half-open entry.
			if st.HalfOpened > st.Opened || st.ClosedFromHalfOpen > st.HalfOpened {
				bad.Add(1)
			}
			prev = st
		}
	}()
	// Load: drive open/half-open/closed cycles from several goroutines
	// with a mix of outcomes while time advances.
	for w := 0; w < 4; w++ {
		load.Add(1)
		go func(seed int) {
			defer load.Done()
			for i := 0; i < 500; i++ {
				if err := b.Allow(); err == nil {
					// Failures come in bursts of two so even a single
					// goroutine's stream crosses the consecutive-failure
					// threshold and cycles the breaker.
					if (i/2+seed)%3 == 0 {
						b.Record(errBoom)
					} else {
						b.Record(nil)
					}
				}
				if i%20 == 0 {
					clock.Advance(10 * time.Millisecond)
				}
			}
		}(w)
	}
	load.Wait()
	stop.Store(true)
	obs.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d monotonicity/lattice violations observed", bad.Load())
	}
	st := b.Stats()
	if st.Opened == 0 || st.HalfOpened == 0 {
		t.Fatalf("load never cycled the breaker: %+v", st)
	}
}

// An abandoned call is no evidence either way: a half-open probe whose
// caller gave up leaves the breaker half-open with its probe slot free
// (the next caller probes), and in the closed state it neither resets
// nor extends the consecutive-failure count.
func TestBreakerAbandonIsNoOutcome(t *testing.T) {
	b, _ := openBreaker(t, 1)
	if err := b.Allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	b.Abandon()
	st := b.Stats()
	if b.State() != HalfOpen || st.ClosedFromHalfOpen != 0 || st.Successes != 0 || st.Failures != 1 {
		t.Fatalf("after an abandoned probe: %s, %+v; want half-open with no new outcome", b.State(), st)
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("abandoned probe kept its slot: %v", err)
	}
	b.Record(nil)
	if b.State() != Closed {
		t.Fatalf("a probe success after the abandoned one left the breaker %s", b.State())
	}

	closed := NewBreaker(BreakerConfig{Name: "c", FailureThreshold: 2, Clock: NewFake(time.Unix(0, 0))})
	for i, step := range []func(){
		func() { _ = closed.Do(func() error { return errBoom }) },
		func() { _ = closed.Allow(); closed.Abandon() },
		func() { _ = closed.Do(func() error { return errBoom }) },
	} {
		step()
		if want := i == 2; (closed.State() == Open) != want {
			t.Fatalf("closed breaker after step %d: %s (consecutive failures %d)", i, closed.State(), closed.Stats().ConsecutiveFailures)
		}
	}
}
