package powerd

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hlpower/internal/service"
)

// Flights: identical concurrent requests share one computation that the
// server owns, on a budget of its own. These tests pin that a flight
// answers every client still waiting on it whichever client hangs up,
// that it stops once no client is left, and that an item runs once.

// answer is one HTTP exchange's outcome.
type answer struct {
	code int
	body []byte
	err  error
}

// send POSTs body to path under ctx in the background; the exchange's
// outcome arrives on the returned channel.
func send(ctx context.Context, ts *httptest.Server, path, body string) <-chan answer {
	ch := make(chan answer, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+path, strings.NewReader(body))
		if err != nil {
			ch <- answer{err: err}
			return
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			ch <- answer{err: err}
			return
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		ch <- answer{code: resp.StatusCode, body: raw, err: err}
	}()
	return ch
}

// poll waits until cond holds, failing the test after 10 s.
func poll(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// collapse starts a leader request on a fresh server, then a second
// one that must join the leader's flight. The leader is posted to
// leaderPath with leaderBody under a context the returned hangUp ends;
// the joiner posts body to /v1/simulate under joinCtx. When the
// leader's flight ends before the joiner arrives (the joiner then
// replays the stored entry), it tries again on a fresh server, up to
// five times.
func collapse(t *testing.T, cfg Config, leaderPath, leaderBody string, joinCtx context.Context, body string) (s *Server, leader, joiner <-chan answer, hangUp context.CancelFunc) {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		s, ts := newMemoTestServer(t, cfg)
		ctx, cancel := context.WithCancel(context.Background())
		leader = send(ctx, ts, leaderPath, leaderBody)
		poll(t, "the leader's flight", func() bool { return s.Snapshot().Memo.Misses == 1 })
		joiner = send(joinCtx, ts, "/v1/simulate", body)
		poll(t, "the joiner", func() bool { m := s.Snapshot().Memo; return m.Collapsed+m.Hits == 1 })
		if s.Snapshot().Memo.Collapsed == 1 {
			return s, leader, joiner, cancel
		}
		cancel()
		<-leader
		<-joiner
	}
	t.Fatal("the second request never joined the leader's flight in 5 tries")
	return nil, nil, nil, nil
}

// TestLeaderHangUpLeavesFlightToWaiter: client A leads a simulate,
// client B joins A's flight, and A hangs up. The flight is the
// server's, not A's, so B answers 200 with the body it gets when sent
// alone, apart from its cached flag.
func TestLeaderHangUpLeavesFlightToWaiter(t *testing.T) {
	const body = `{"circuit":"multiplier","width":16,"cycles":20000,"seed":7}`
	_, ref := newMemoTestServer(t, DefaultConfig())
	alone := <-send(context.Background(), ref, "/v1/simulate", body)
	if alone.err != nil || alone.code != http.StatusOK {
		t.Fatalf("sent alone: %d %s %v", alone.code, alone.body, alone.err)
	}

	_, a, b, hangUp := collapse(t, DefaultConfig(), "/v1/simulate", body, context.Background(), body)
	hangUp()
	if got := <-a; got.err == nil {
		t.Fatalf("A finished before it hung up: %d %s", got.code, got.body)
	}
	got := <-b
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("B after A hung up: %d %s %v, want 200", got.code, got.body, got.err)
	}
	if !bytes.Equal(uncachedBody(t, got.body), uncachedBody(t, alone.body)) {
		t.Fatalf("B's body %s differs from the body sent alone %s", got.body, alone.body)
	}
}

// TestFlightStopsWhenEveryClientHangsUp: when both clients of a flight
// hang up, the flight stops at its next budget check, so its admission
// slot frees long before RequestTimeout and nothing is stored; the same
// request, sent next, starts a fresh flight and answers 200.
func TestFlightStopsWhenEveryClientHangsUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSteps = -1 // only the hang-ups end the flight early
	body := `{"circuit":"multiplier","width":16,"cycles":200000,"seed":7}`
	ctxB, hangUpB := context.WithCancel(context.Background())
	s, a, b, hangUpA := collapse(t, cfg, "/v1/simulate", body, ctxB, body)
	hangUpA()
	hangUpB()
	t0 := time.Now()
	if ga, gb := <-a, <-b; ga.err == nil || gb.err == nil {
		t.Fatalf("a client finished before it hung up: A %d %s, B %d %s", ga.code, ga.body, gb.code, gb.body)
	}
	poll(t, "the flight's admission slot", func() bool { return len(s.slots) == 0 })
	if took := time.Since(t0); took > cfg.RequestTimeout/5 {
		t.Fatalf("the slot freed %v after both clients hung up, want long before RequestTimeout (%v)", took, cfg.RequestTimeout)
	}
	if m := s.Snapshot().Memo; m.Stores != 0 || m.Misses != 1 {
		t.Fatalf("the abandoned flight ran on: %+v, want one flight and no store", m)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	code, resp := postAs[simulateResponse](t, ts, "/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 16, Cycles: 200000, Seed: 7})
	if code != http.StatusOK || resp.Cached {
		t.Fatalf("the same request sent next: %d cached=%v, want a fresh 200", code, resp.Cached)
	}
	if m := s.Snapshot().Memo; m.Misses != 2 || m.Stores != 1 {
		t.Fatalf("want a second flight that stores, got %+v", m)
	}
}

// TestWaiterHangUpLeavesAtOnce: a client that joined another's flight
// and hangs up leaves at once, answered 503 like a client gone while
// queued, while the flight runs on for the client that started it.
func TestWaiterHangUpLeavesAtOnce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSteps = -1
	body := `{"circuit":"multiplier","width":16,"cycles":200000,"seed":7}`
	s, ts := newMemoTestServer(t, cfg)
	a := send(context.Background(), ts, "/v1/simulate", body)
	poll(t, "the leader's flight", func() bool { return s.Snapshot().Memo.Misses == 1 })
	ctx, hangUp := context.WithCancel(context.Background())
	rec := httptest.NewRecorder()
	left := make(chan struct{})
	go func() {
		defer close(left)
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(body)).WithContext(ctx))
	}()
	poll(t, "the waiter", func() bool { return s.Snapshot().Memo.Collapsed == 1 })
	hangUp()
	<-left
	select {
	case got := <-a:
		t.Fatalf("the flight ended (%d) before the waiter that hung up had left", got.code)
	default:
	}
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), `"kind":"unavailable"`) {
		t.Fatalf("waiter that hung up: %d %s, want 503 unavailable", rec.Code, rec.Body)
	}
	if got := <-a; got.err != nil || got.code != http.StatusOK {
		t.Fatalf("the client that started the flight: %d %s %v, want 200", got.code, got.body, got.err)
	}
}

// TestSingleOutlivesBatchLeaderHangUp: a single request that joined the
// flight of a batch item answers 200 after the batch's client hangs up.
func TestSingleOutlivesBatchLeaderHangUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSteps = -1
	sim := `{"circuit":"multiplier","width":16,"cycles":200000,"seed":7}`
	batch := `{"items":[{"op":"simulate","simulate":` + sim + `}]}`
	s, leader, single, hangUp := collapse(t, cfg, "/v1/batch", batch, context.Background(), sim)
	hangUp()
	<-leader
	got := <-single
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("single after the batch's client hung up: %d %s %v, want 200", got.code, got.body, got.err)
	}
	poll(t, "the flight's store", func() bool { return s.Snapshot().Memo.Stores == 1 })
}

// TestOversizedSimulateRunsOnce: under a deadline-only budget, a
// simulate too large for RequestTimeout runs once per request and
// answers 503 with its deadline trip soon after one RequestTimeout,
// however often a client sends it, and a valid simulate from another
// client is served.
func TestOversizedSimulateRunsOnce(t *testing.T) {
	cfg := DefaultConfig()
	// The largest simulate the service accepts (a width-16 multiplier
	// over MaxCycles) takes several times this long, even on the
	// AVX-512 lane kernel.
	cfg.RequestTimeout = 20 * time.Millisecond
	cfg.MaxSteps = -1
	cfg.MemoMaxBytes = -1
	s, ts := newMemoTestServer(t, cfg)
	for seed := 1; seed <= 2; seed++ {
		t0 := time.Now()
		code, body := postAs[map[string]any](t, ts, "/v1/simulate",
			simulateRequest{Circuit: "multiplier", Width: 16, Cycles: service.MaxCycles, Seed: int64(seed)})
		took := time.Since(t0)
		msg, _ := body["error"].(string)
		if code != http.StatusServiceUnavailable || body["kind"] != "budget-exceeded" || !strings.Contains(msg, "deadline") {
			t.Fatalf("oversized simulate %d: %d %v, want 503 budget-exceeded on the deadline", seed, code, body)
		}
		// The artifact's hotness counts its runs (promotion needs
		// DefaultCodegenAfter of them), so a second run of any request
		// shows here whatever the host's speed.
		if runs := s.Snapshot().Kernel.Hotness["multiplier/16"]; runs != int64(seed) {
			t.Fatalf("after %d oversized simulates the artifact ran %d times, want one run per request", seed, runs)
		}
		if took > cfg.RequestTimeout+100*time.Millisecond {
			t.Fatalf("oversized simulate %d answered after %v, want soon after one RequestTimeout (%v)", seed, took, cfg.RequestTimeout)
		}
	}
	if code, body := postAs[map[string]any](t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 64}); code != http.StatusOK {
		t.Fatalf("valid simulate after the oversized ones: %d %v, want 200", code, body)
	}
}
