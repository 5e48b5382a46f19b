package memo

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/hlerr"
)

func keyOf(parts ...uint64) Key {
	e := NewEnc()
	for _, p := range parts {
		e.Uint64(p)
	}
	return e.Key()
}

func TestDoComputesOnceThenHits(t *testing.T) {
	c := New(Options{})
	var computes atomic.Int64
	compute := func() (any, int64, bool, error) {
		computes.Add(1)
		return 42.0, 8, true, nil
	}
	k := keyOf(1)
	v, shared, err := c.Do(k, compute)
	if err != nil || shared || v.(float64) != 42.0 {
		t.Fatalf("first Do: v=%v shared=%v err=%v", v, shared, err)
	}
	v, shared, err = c.Do(k, compute)
	if err != nil || !shared || v.(float64) != 42.0 {
		t.Fatalf("second Do: v=%v shared=%v err=%v", v, shared, err)
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Stores != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate %v, want 0.5", st.HitRate())
	}
}

func TestNonCacheableValueIsReturnedNotStored(t *testing.T) {
	c := New(Options{})
	var computes atomic.Int64
	compute := func() (any, int64, bool, error) {
		computes.Add(1)
		return "degraded", 8, false, nil
	}
	k := keyOf(2)
	for i := 0; i < 3; i++ {
		v, shared, err := c.Do(k, compute)
		if err != nil || shared || v.(string) != "degraded" {
			t.Fatalf("Do %d: v=%v shared=%v err=%v", i, v, shared, err)
		}
	}
	if got := computes.Load(); got != 3 {
		t.Fatalf("compute ran %d times, want 3 (non-cacheable)", got)
	}
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("non-cacheable value was stored: %+v", st)
	}
}

// TestErrorsAreNeverStored: an input error and a transient one alike
// are returned to their caller and forgotten, so every call computes.
func TestErrorsAreNeverStored(t *testing.T) {
	c := New(Options{})
	for i, want := range []error{
		hlerr.Errorf("memo.test", "width 99 out of range"),
		errors.New("transient"),
	} {
		var computes atomic.Int64
		k := keyOf(3, uint64(i))
		for call := 0; call < 3; call++ {
			_, shared, err := c.Do(k, func() (any, int64, bool, error) {
				computes.Add(1)
				return nil, 0, false, want
			})
			if err != want || shared {
				t.Fatalf("%v, call %d: err=%v shared=%v", want, call, err, shared)
			}
		}
		if got := computes.Load(); got != 3 {
			t.Fatalf("%v: compute ran %d times, want 3 (errors are never stored)", want, got)
		}
	}
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 6 {
		t.Fatalf("stats %+v, want 6 misses and nothing stored", st)
	}
}

// stored reports whether k holds an entry, probing through Do with a
// compute that records that it ran and stores nothing. A hit moves the
// entry to the front, as every served hit does.
func stored(c *Cache, k Key) bool {
	ran := false
	c.Do(k, func() (any, int64, bool, error) {
		ran = true
		return nil, 0, false, nil
	})
	return !ran
}

func TestByteBudgetEviction(t *testing.T) {
	// One shard, room for ~4 entries of 100 bytes.
	c := New(Options{MaxBytes: 400, Shards: 1})
	for i := 0; i < 10; i++ {
		k := keyOf(uint64(i))
		if _, _, err := c.Do(k, func() (any, int64, bool, error) {
			return i, 100, true, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Bytes > 400 {
		t.Fatalf("bytes %d exceed budget 400", st.Bytes)
	}
	if st.Evictions != 6 {
		t.Fatalf("evictions %d, want 6", st.Evictions)
	}
	if st.Entries != 4 {
		t.Fatalf("entries %d, want 4", st.Entries)
	}
	// The most recent entries survive; the oldest were evicted.
	if !stored(c, keyOf(9)) {
		t.Fatal("most recent entry evicted")
	}
	if stored(c, keyOf(0)) {
		t.Fatal("oldest entry survived a full wrap")
	}
	// An entry larger than the whole budget is never stored.
	kBig := keyOf(1000)
	if _, _, err := c.Do(kBig, func() (any, int64, bool, error) {
		return "huge", 10_000, true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if stored(c, kBig) {
		t.Fatal("oversized entry was stored")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	c := New(Options{MaxBytes: 300, Shards: 1})
	store := func(i int) {
		c.Do(keyOf(uint64(i)), func() (any, int64, bool, error) { return i, 100, true, nil })
	}
	store(0)
	store(1)
	store(2)
	// Touch 0 so 1 becomes the LRU victim.
	if !stored(c, keyOf(0)) {
		t.Fatal("entry 0 missing")
	}
	store(3) // evicts 1
	if !stored(c, keyOf(0)) {
		t.Fatal("touched entry was evicted")
	}
	if stored(c, keyOf(1)) {
		t.Fatal("LRU entry survived")
	}
}

// TestSingleflightCollapse is the acceptance check: N concurrent
// identical requests perform exactly one underlying computation and
// all share its result.
func TestSingleflightCollapse(t *testing.T) {
	c := New(Options{})
	const n = 32
	var computes atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	k := keyOf(7)

	// Leader enters compute and blocks; the chan handshake guarantees
	// every follower issues its Do while the computation is in flight.
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, shared, err := c.Do(k, func() (any, int64, bool, error) {
			computes.Add(1)
			close(started)
			<-release
			return "result", 16, true, nil
		})
		if err != nil || shared || v.(string) != "result" {
			t.Errorf("leader: v=%v shared=%v err=%v", v, shared, err)
		}
	}()
	<-started

	var wg sync.WaitGroup
	for i := 0; i < n-1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := c.Do(k, func() (any, int64, bool, error) {
				computes.Add(1)
				return "follower-computed", 16, true, nil
			})
			if err != nil || !shared || v.(string) != "result" {
				t.Errorf("follower: v=%v shared=%v err=%v", v, shared, err)
			}
		}()
	}
	// Let every follower reach the in-flight wait before releasing.
	waitForCollapsed(t, c, n-1)
	close(release)
	wg.Wait()
	<-leaderDone

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want exactly 1", got)
	}
	if st := c.Stats(); st.Collapsed != n-1 {
		t.Fatalf("collapsed %d, want %d", st.Collapsed, n-1)
	}
}

func waitForCollapsed(t *testing.T, c *Cache, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Collapsed < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d collapsed waiters after 5s, want %d", c.Stats().Collapsed, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleflightPanic is the acceptance check: a panicking
// computation fails the computing caller and every waiter with the
// captured error, and leaves no goroutines behind.
func TestSingleflightPanic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	c := New(Options{})
	k := keyOf(8)
	started := make(chan struct{})
	release := make(chan struct{})

	errs := make(chan error, 9)
	go func() {
		_, _, err := c.Do(k, func() (any, int64, bool, error) {
			close(started)
			<-release
			panic("estimator exploded")
		})
		errs <- err
	}()
	<-started
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := c.Do(k, func() (any, int64, bool, error) {
				t.Error("waiter computed despite in-flight leader")
				return nil, 0, false, nil
			})
			errs <- err
		}()
	}
	waitForCollapsed(t, c, 8)
	close(release)
	wg.Wait()

	for i := 0; i < 9; i++ {
		err := <-errs
		if err == nil {
			t.Fatal("caller got nil error from panicking computation")
		}
		if want := "estimator exploded"; !contains(err.Error(), want) {
			t.Fatalf("err %q does not carry the captured panic %q", err, want)
		}
	}
	// Nothing stored, flight table drained, and a retry recomputes.
	if st := c.Stats(); st.Stores != 0 || st.Entries != 0 {
		t.Fatalf("panic outcome was cached: %+v", st)
	}
	v, shared, err := c.Do(k, func() (any, int64, bool, error) { return "ok", 8, true, nil })
	if err != nil || shared || v.(string) != "ok" {
		t.Fatalf("retry after panic: v=%v shared=%v err=%v", v, shared, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSingleflightTypedPanic checks that hlerr.Throw panics keep their
// typed identity through the singleflight capture: a thrown input
// error is an input error for every waiter. Like every error it is not
// stored, so the next call computes again.
func TestSingleflightTypedPanic(t *testing.T) {
	c := New(Options{})
	k := keyOf(9)
	_, _, err := c.Do(k, func() (any, int64, bool, error) {
		hlerr.Throwf("memo.test", "malformed netlist")
		return nil, 0, false, nil
	})
	if !hlerr.IsInput(err) {
		t.Fatalf("thrown input error lost its type: %v", err)
	}
	var computes atomic.Int64
	_, shared, err2 := c.Do(k, func() (any, int64, bool, error) {
		computes.Add(1)
		hlerr.Throwf("memo.test", "malformed netlist")
		return nil, 0, false, nil
	})
	if !hlerr.IsInput(err2) || shared || computes.Load() != 1 {
		t.Fatalf("second call after a typed panic: err=%v shared=%v computes=%d, want a recomputed input error",
			err2, shared, computes.Load())
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := New(Options{MaxBytes: 1 << 20, Shards: 8})
	var wg sync.WaitGroup
	var computes atomic.Int64
	const workers, keys = 16, 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keyOf(uint64(i % keys))
				v, _, err := c.Do(k, func() (any, int64, bool, error) {
					computes.Add(1)
					return fmt.Sprintf("v%d", i%keys), 32, true, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if want := fmt.Sprintf("v%d", i%keys); v.(string) != want {
					t.Errorf("key %d returned %v, want %s", i%keys, v, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Entries != keys {
		t.Fatalf("entries %d, want %d", st.Entries, keys)
	}
	if total := st.Hits + st.Collapsed + st.Misses; total != workers*200 {
		t.Fatalf("lookups %d, want %d", total, workers*200)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
