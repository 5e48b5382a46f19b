package powerd

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/resilience"
)

// TestChaosSoak is the acceptance harness for the resilient service:
// it hammers powerd with >= 1000 requests while a fault plan injects
// budget trips into the sim, rank (core), and bdd estimation paths,
// and asserts that
//
//	(a) draining leaves no goroutines behind,
//	(b) every chaos-targeted breaker observed an open transition AND a
//	    half-open -> closed recovery,
//	(c) overload is shed with 429 + Retry-After,
//
// while the service keeps answering every request with a typed JSON
// error rather than a hang, panic, or connection reset. (Criterion (d),
// deterministic retry/backoff and breaker schedules under a fake
// clock, is pinned by the resilience package's unit tests.)
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	cfg := Config{
		Workers:          4,
		QueueDepth:       8,
		RequestTimeout:   2 * time.Second,
		MaxSteps:         20_000_000,
		CheckInterval:    32,
		Retry:            resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Multiplier: 2},
		FailureThreshold: 3,
		OpenTimeout:      50 * time.Millisecond,
		HalfOpenProbes:   1,
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	client := ts.Client()

	var underPlan atomic.Int64 // requests completed while a fault plan was armed

	type reqSpec struct {
		path string
		body any
	}
	specs := []reqSpec{
		{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 6, Cycles: 150, Seed: 1}},
		{"/v1/rank", rankRequest{Width: 5, Cycles: 100, Seed: 2}},
		{"/v1/bdd", bddRequest{Function: "majority", Vars: 10}},
		{"/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 4, Cycles: 120, Seed: 3}},
		{"/v1/bdd", bddRequest{Function: "parity", Vars: 12}},
	}
	fire := func(spec reqSpec) (int, http.Header) {
		body, err := json.Marshal(spec.body)
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		resp, err := client.Post(ts.URL+spec.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("%s: transport error (want typed JSON error): %v", spec.path, err)
			return 0, nil
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("%s: %d with undecodable body: %v", spec.path, resp.StatusCode, err)
		}
		return resp.StatusCode, resp.Header
	}

	// --- Phase 1: deterministic kill. FailAtCheck=1 trips the budget at
	// the first checkpoint of every estimation, so each chaos-targeted
	// breaker must reach open within a handful of requests.
	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	targets := map[string]reqSpec{
		"sim":  specs[0],
		"rank": specs[1],
		"bdd":  specs[2],
	}
	for name, spec := range targets {
		for i := 0; i < 20 && s.Breaker(name).State() != resilience.Open; i++ {
			code, _ := fire(spec)
			underPlan.Add(1)
			if code != http.StatusServiceUnavailable {
				t.Fatalf("phase 1: %s request under FailAtCheck=1 returned %d, want 503", name, code)
			}
		}
		if st := s.Breaker(name).State(); st != resilience.Open {
			t.Fatalf("phase 1: breaker %s never opened (state %v)", name, st)
		}
	}

	// --- Phase 2: probabilistic chaos. Each request derives its own
	// fault-plan seed; some trip mid-estimation, some survive. The
	// service must answer all of them. Breakers flap (open under
	// bursts of failures, recover through half-open probes) while the
	// load runs.
	s.SetFaultPlan(budget.FaultPlan{Prob: 0.002, Seed: 99})
	// First let each breaker recover *under the active chaos plan*: a
	// well-behaved client backs off while the breaker is open, so pace
	// requests until the half-open probe gets through. Without this the
	// hammer below can burn all its requests into fail-fast rejections
	// before the first open window ever expires.
	for name, spec := range targets {
		deadline := time.Now().Add(10 * time.Second)
		for s.Breaker(name).State() != resilience.Closed {
			fire(spec)
			underPlan.Add(1)
			if time.Now().After(deadline) {
				t.Fatalf("phase 2: breaker %s still %v under Prob chaos", name, s.Breaker(name).State())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	const chaosRequests = 1000
	const concurrency = 12
	var (
		wg      sync.WaitGroup
		tallyMu sync.Mutex
		tally   = map[int]int{}
	)
	next := atomic.Int64{}
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= chaosRequests {
					return
				}
				code, _ := fire(specs[i%int64(len(specs))])
				underPlan.Add(1)
				tallyMu.Lock()
				tally[code]++
				tallyMu.Unlock()
			}
		}()
	}
	wg.Wait()
	if got := underPlan.Load(); got < 1000 {
		t.Fatalf("served %d requests under an active fault plan, want >= 1000", got)
	}
	if tally[http.StatusOK] == 0 {
		t.Fatalf("chaos phase produced no successes: %v", tally)
	}
	if tally[http.StatusServiceUnavailable] == 0 {
		t.Fatalf("chaos phase produced no injected failures: %v", tally)
	}
	t.Logf("chaos phase status tally: %v", tally)

	// --- Phase 3: overload. With every worker slot held and the queue
	// saturated, the overflow must shed with 429 + Retry-After.
	for i := 0; i < cfg.Workers; i++ {
		s.slots <- struct{}{}
	}
	const burst = 16 // QueueDepth waiters + 8 shed
	var shedCount, shedWithHint atomic.Int64
	var burstWG sync.WaitGroup
	for i := 0; i < burst; i++ {
		burstWG.Add(1)
		go func() {
			defer burstWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			body, _ := json.Marshal(specs[0].body)
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+specs[0].path, bytes.NewReader(body))
			resp, err := client.Do(req)
			if err != nil {
				return // queued until client timeout: not shed
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				shedCount.Add(1)
				if resp.Header.Get("Retry-After") != "" {
					shedWithHint.Add(1)
				}
			}
		}()
	}
	burstWG.Wait()
	for i := 0; i < cfg.Workers; i++ {
		<-s.slots
	}
	if shedCount.Load() == 0 {
		t.Fatal("overload burst shed nothing")
	}
	if shedWithHint.Load() != shedCount.Load() {
		t.Fatalf("%d shed responses, only %d carried Retry-After", shedCount.Load(), shedWithHint.Load())
	}

	// Phases 1-3 all ran under an armed fault plan, so the estimate
	// cache must have been bypassed completely: no lookups absorbed
	// chaos traffic, and no fault-shaped result was stored.
	if m := s.Snapshot().Memo; m.Hits != 0 || m.Misses != 0 || m.Collapsed != 0 || m.Stores != 0 {
		t.Fatalf("estimate cache touched while a fault plan was armed: %+v", m)
	}

	// --- Phase 4: recovery. With the plan cleared, every breaker must
	// come back through a half-open probe to closed, and requests
	// succeed again.
	s.SetFaultPlan(budget.FaultPlan{})
	for name, spec := range targets {
		deadline := time.Now().Add(10 * time.Second)
		for {
			if code, _ := fire(spec); code == http.StatusOK {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("phase 4: subsystem %s never recovered", name)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for name := range targets {
		st := s.Breaker(name).Stats()
		if st.Opened < 1 {
			t.Errorf("breaker %s never opened: %+v", name, st)
		}
		if st.HalfOpened < 1 || st.ClosedFromHalfOpen < 1 {
			t.Errorf("breaker %s never recovered half-open -> closed: %+v", name, st)
		}
	}

	// With the plan cleared, caching resumes: the recovery successes
	// above stored entries, and re-firing a recovered request now hits.
	m := s.Snapshot().Memo
	if m.Stores == 0 {
		t.Fatalf("recovery phase stored nothing in the estimate cache: %+v", m)
	}
	hitsBefore := m.Hits
	if code, _ := fire(specs[0]); code != http.StatusOK {
		t.Fatalf("post-recovery refire answered %d, want 200", code)
	}
	if m2 := s.Snapshot().Memo; m2.Hits <= hitsBefore {
		t.Fatalf("post-recovery refire did not hit the estimate cache: %+v", m2)
	}

	// --- Phase 5: drain. No in-flight work remains, so Drain returns
	// promptly; afterwards new work is refused and no goroutines leak.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := fire(specs[0]); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request answered %d, want 503", code)
	}
	ts.Close()
	client.CloseIdleConnections()

	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("soak complete: %d requests under chaos, final stats %+v",
		underPlan.Load(), s.Snapshot().Breakers)
}
