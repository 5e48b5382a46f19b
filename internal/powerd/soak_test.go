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
)

// TestChaosSoak is the acceptance harness for the resilient service:
// it hammers powerd with >= 1000 requests while a fault plan injects
// budget trips into the sim, rank (core), and bdd estimation paths,
// and asserts that
//
//	(a) draining leaves no goroutines behind,
//	(b) under FailAtCheck: 1 each targeted endpoint answers 503
//	    budget-exceeded on every request, and once the plan clears the
//	    same request answers 200 at once,
//	(c) overload is shed with 429 + Retry-After,
//
// while the service keeps answering every request with a typed JSON
// error rather than a hang, panic, or connection reset.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	cfg := Config{
		Workers:        4,
		QueueDepth:     8,
		RequestTimeout: 2 * time.Second,
		MaxSteps:       20_000_000,
		CheckInterval:  32,
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
	// fire posts spec and returns the status with the error body's kind
	// ("" for a success).
	fire := func(spec reqSpec) (int, string) {
		body, err := json.Marshal(spec.body)
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp, err := client.Post(ts.URL+spec.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Errorf("%s: transport error (want typed JSON error): %v", spec.path, err)
			return 0, ""
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Errorf("%s: %d with undecodable body: %v", spec.path, resp.StatusCode, err)
		}
		kind, _ := out["kind"].(string)
		return resp.StatusCode, kind
	}

	// --- Phase 1: deterministic kill. FailAtCheck=1 trips the budget at
	// the first checkpoint of every estimation, and each request runs
	// once, so every request to a chaos-targeted endpoint answers the
	// injected trip itself.
	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	targets := map[string]reqSpec{
		"sim":  specs[0],
		"rank": specs[1],
		"bdd":  specs[2],
	}
	for name, spec := range targets {
		for i := 0; i < 5; i++ {
			code, kind := fire(spec)
			underPlan.Add(1)
			if code != http.StatusServiceUnavailable || kind != "budget-exceeded" {
				t.Fatalf("phase 1: %s request %d under FailAtCheck=1 returned %d %q, want 503 budget-exceeded", name, i, code, kind)
			}
		}
	}

	// --- Phase 2: probabilistic chaos. Each request derives its own
	// fault-plan seed; some trip mid-estimation, some survive. The
	// service must answer all of them.
	s.SetFaultPlan(budget.FaultPlan{Prob: 0.002, Seed: 99})
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

	// --- Phase 4: recovery. With the plan cleared, the same requests
	// that phase 1 failed answer 200 at once.
	s.SetFaultPlan(budget.FaultPlan{})
	for name, spec := range targets {
		if code, kind := fire(spec); code != http.StatusOK {
			t.Fatalf("phase 4: %s request after the plan cleared answered %d %q, want 200", name, code, kind)
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
	st := s.Snapshot()
	t.Logf("soak complete: %d requests under chaos; served %d, rejected %d, shed %d",
		underPlan.Load(), st.Served, st.Rejected, st.Shed)
}
