package powerd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// testConfig is a small, fast configuration for unit tests.
func testConfig() Config {
	return Config{
		Workers:        2,
		QueueDepth:     2,
		RequestTimeout: 2 * time.Second,
		MaxSteps:       5_000_000,
		CheckInterval:  64,
	}
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s: undecodable body: %v", path, err)
	}
	return resp, out
}

func TestEndpointsHappyPath(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 8, Cycles: 200, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", resp.StatusCode, out)
	}
	if out["power"].(float64) <= 0 {
		t.Fatalf("simulate returned nonpositive power: %v", out)
	}

	resp, out = post(t, ts, "/v1/rank", rankRequest{Width: 6, Cycles: 120, Seed: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rank: %d %v", resp.StatusCode, out)
	}
	if out["best"] == "" {
		t.Fatalf("rank picked no winner: %v", out)
	}

	resp, out = post(t, ts, "/v1/bdd", bddRequest{Function: "majority", Vars: 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bdd: %d %v", resp.StatusCode, out)
	}
	if out["nodes"].(float64) <= 0 {
		t.Fatalf("bdd returned no nodes: %v", out)
	}

	resp, out = post(t, ts, "/v1/predict", predictRequest{Circuit: "adder", Width: 4, Model: "pfa", Train: 150, Eval: 100, Seed: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: %d %v", resp.StatusCode, out)
	}
	if out["measured"].(float64) <= 0 {
		t.Fatalf("predict measured nothing: %v", out)
	}

	if got := s.Snapshot().Served; got != 4 {
		t.Fatalf("served counter = %d, want 4", got)
	}
}

func TestInputErrorsAre400(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		path string
		body any
	}{
		{"/v1/simulate", simulateRequest{Circuit: "nonsense", Width: 8, Cycles: 100}},
		{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 99, Cycles: 100}},
		{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 8, Cycles: -1}},
		{"/v1/bdd", bddRequest{Function: "bogus", Vars: 4}},
		{"/v1/bdd", bddRequest{Function: "parity", Vars: 99}},
		{"/v1/predict", predictRequest{Circuit: "adder", Width: 4, Model: "bogus", Train: 100, Eval: 100}},
		{"/v1/rank", map[string]any{"width": 4, "cycles": 100, "unknown_field": 1}},
	}
	for _, c := range cases {
		resp, out := post(t, ts, c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %v: got %d %v, want 400", c.path, c.body, resp.StatusCode, out)
		}
	}
}

// TestTrailingDataIs400 posts bodies that carry more than one JSON
// value to every endpoint that decodes a client body: each answers 400,
// so a second request object is never silently dropped. A trailing
// newline, which json.Encoder writes, is still accepted.
func TestTrailingDataIs400(t *testing.T) {
	s := NewServer(jobConfig())
	defer drainServer(t, s)
	batch := `{"items":[{"op":"simulate","simulate":{"circuit":"adder","width":4,"cycles":64,"seed":1}}]}`
	bodies := map[string]string{
		"/v1/simulate":     `{"circuit":"adder","width":4,"cycles":64,"seed":1}`,
		"/v1/rank":         `{"width":4,"cycles":64,"seed":1}`,
		"/v1/bdd":          `{"function":"parity","vars":4}`,
		"/v1/predict":      `{"circuit":"adder","width":4,"model":"pfa","train":64,"eval":64,"seed":1}`,
		"/v1/batch":        batch,
		"/v1/batch/stream": batch,
		"/v1/optimize":     `{"kind":"circuit","circuit":"adder","width":4,"seed":1,"candidates":2}`,
	}
	serve := func(path, body string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code
	}
	for path, body := range bodies {
		if code := serve(path, body+"\n"); code != http.StatusOK && code != http.StatusAccepted {
			t.Errorf("%s with a trailing newline: %d, want success", path, code)
		}
		for _, tail := range []string{" trailing garbage", body, "junk", "}"} {
			if code := serve(path, body+tail); code != http.StatusBadRequest {
				t.Errorf("%s %q: %d, want 400", path, body+tail, code)
			}
		}
	}
}

// TestInjectedFaultsOpenBreakerThen503 drives the deterministic fault
// plan through the serving path: every request runs once and answers
// the injected trip as 503 budget-exceeded with a Retry-After hint,
// however many came before it, and once the plan clears the same
// request answers 200 at once.
func TestInjectedFaultsOpenBreakerThen503(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInterval = 1
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1}
	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	for i := 0; i < 6; i++ {
		resp, out := post(t, ts, "/v1/simulate", req)
		if resp.StatusCode != http.StatusServiceUnavailable || out["kind"] != "budget-exceeded" {
			t.Fatalf("faulted request %d: got %d %v", i, resp.StatusCode, out)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("faulted request %d: rejection missing Retry-After", i)
		}
	}

	s.SetFaultPlan(budget.FaultPlan{})
	if resp, out := post(t, ts, "/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the plan cleared: got %d %v, want 200", resp.StatusCode, out)
	}
}

// TestShedWith429RetryAfter fills every worker slot and the whole wait
// queue, then asserts the overflow is shed with 429 + Retry-After.
func TestShedWith429RetryAfter(t *testing.T) {
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Occupy the only worker slot directly.
	s.slots <- struct{}{}
	defer func() { <-s.slots }()

	// Overfill the queue: QueueDepth+3 concurrent requests while no
	// slot can free up. At least 3 must shed.
	const extra = 3
	total := cfg.QueueDepth + extra
	codes := make(chan int, total)
	retryAfter := make(chan string, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
			defer cancel()
			body, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
			req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
			resp, err := ts.Client().Do(req)
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
			retryAfter <- resp.Header.Get("Retry-After")
		}()
	}
	wg.Wait()
	close(codes)
	close(retryAfter)
	shed := 0
	for c := range codes {
		if c == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed < extra {
		t.Fatalf("shed %d requests, want >= %d", shed, extra)
	}
	for ra := range retryAfter {
		if ra == "" {
			t.Fatal("a 429/queued response is missing Retry-After")
		}
	}
	if s.Snapshot().Shed < int64(extra) {
		t.Fatalf("shed counter %d, want >= %d", s.Snapshot().Shed, extra)
	}
}

func TestDrainRejectsNewWorkAndWaits(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain with no in-flight work: %v", err)
	}
	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: got %d %v, want 503", resp.StatusCode, out)
	}
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", resp.StatusCode)
	}
}

// Mid-drain requests must tell the client two things: do not reuse
// this connection (it is going away), and how long to wait before
// retrying — the rest of the drain window, after which a restarted
// listener can serve the retry.
func TestDrainMidDrainHeaders(t *testing.T) {
	cfg := testConfig()
	cfg.DrainTimeout = 45 * time.Second
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	buf, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100})
	resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request = %d, want 503", resp.StatusCode)
	}
	if !resp.Close {
		t.Error("mid-drain response did not carry Connection: close")
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("mid-drain response has no Retry-After")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q not an integer", ra)
	}
	// The hint is the remaining drain window: a little under the full
	// 45s by the time the request lands, never the 2s request timeout.
	if secs < 40 || secs > 45 {
		t.Errorf("Retry-After = %ds, want within the 45s drain window", secs)
	}
}

func TestHealthReadyStats(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, path := range []string{"/healthz", "/readyz", "/v1/stats"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", path, resp.StatusCode)
		}
	}
	var st Stats
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestSimulateMatchesLibrary pins that the service returns the same
// physics as the serial engine: every circuit's HTTP switched_cap and
// power are Float64bits-identical to sim.Run over the same module and
// operand streams, at a cycle count that leaves a partial 64-lane block.
func TestSimulateMatchesLibrary(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, circuit := range []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"} {
		req := simulateRequest{Circuit: circuit, Width: 4, Cycles: 300, Seed: 7}
		code, got := postAs[simulateResponse](t, ts, "/v1/simulate", req)
		if code != http.StatusOK {
			t.Fatalf("%s: simulate status %d", circuit, code)
		}
		mod, err := service.ModuleFor(req.Circuit, req.Width)
		if err != nil {
			t.Fatal(err)
		}
		as, bs := service.OperandStreams(req.Cycles, req.Width, req.Seed)
		want, err := sim.Run(mod.Net, func(c int) []bool { return mod.InputVector(as[c], bs[c]) },
			req.Cycles, sim.Options{Vdd: 1, Freq: 1})
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.SwitchedCap) != math.Float64bits(want.SwitchedCap) {
			t.Errorf("%s: switched_cap %v != serial engine %v", circuit, got.SwitchedCap, want.SwitchedCap)
		}
		if math.Float64bits(got.Power) != math.Float64bits(want.Power()) {
			t.Errorf("%s: power %v != serial engine %v", circuit, got.Power, want.Power())
		}
	}
}

func TestRetryAfterHintFloor(t *testing.T) {
	s := NewServer(testConfig())
	if s.retryAfterHint() < time.Second {
		t.Fatal("Retry-After hint below one second floor")
	}
}

func ExampleServer() {
	s := NewServer(Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body, _ := json.Marshal(simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1})
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer resp.Body.Close()
	var out simulateResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	fmt.Println(resp.StatusCode, out.Circuit, out.Cycles)
	// Output: 200 adder 100
}

// TestStatsSurfaceBDDTables: serving BDD requests must accumulate the
// manager's unique/ITE table counters into /v1/stats, with the
// hits+misses == lookups invariant intact, and the simulate endpoint
// must report which kernel served it.
func TestStatsSurfaceBDDTables(t *testing.T) {
	s := NewServer(testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 6, Cycles: 500, Seed: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: %d %v", resp.StatusCode, out)
	}
	if out["kernel"] != "fused" {
		t.Fatalf("combinational zero-delay simulate served by kernel %v, want fused", out["kernel"])
	}

	for i := 0; i < 3; i++ {
		resp, out = post(t, ts, "/v1/bdd", bddRequest{Function: "parity", Vars: 8})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("bdd: %d %v", resp.StatusCode, out)
		}
	}
	st := s.Snapshot().BDDTables
	// Truth-table builds hash-cons through the unique table; the ITE
	// computed table only sees traffic from boolean operations, so its
	// counters may legitimately be zero here — the invariant must hold
	// for both either way.
	if st.Unique.Lookups == 0 {
		t.Fatal("unique: no lookups accumulated in /v1/stats")
	}
	if st.Unique.Hits+st.Unique.Misses != st.Unique.Lookups {
		t.Fatalf("unique: hits %d + misses %d != lookups %d", st.Unique.Hits, st.Unique.Misses, st.Unique.Lookups)
	}
	if st.ITE.Hits+st.ITE.Misses != st.ITE.Lookups {
		t.Fatalf("ite: hits %d + misses %d != lookups %d", st.ITE.Hits, st.ITE.Misses, st.ITE.Lookups)
	}

	// The JSON endpoint exposes the same counters.
	httpResp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var body struct {
		BDDTables struct {
			Unique struct {
				Lookups int64 `json:"lookups"`
			} `json:"unique"`
		} `json:"bdd_tables"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.BDDTables.Unique.Lookups != st.Unique.Lookups {
		t.Fatalf("JSON stats lookups %d != snapshot %d", body.BDDTables.Unique.Lookups, st.Unique.Lookups)
	}
}

// TestStepLimitNeverOpensBreaker: a valid simulate whose work exceeds
// MaxSteps is answered 503 budget-exceeded, and however often a client
// repeats it, every other client's simulate is still served. The trip
// is as deterministic as the request's memo key, so it is the client's
// mistake, not a failing subsystem.
func TestStepLimitNeverOpensBreaker(t *testing.T) {
	_, ts := newMemoTestServer(t, DefaultConfig())
	big := simulateRequest{Circuit: "multiplier", Width: 16, Cycles: service.MaxCycles}
	for i := 0; i < 2; i++ {
		code, body := postAs[map[string]any](t, ts, "/v1/simulate", big)
		if code != http.StatusServiceUnavailable || body["kind"] != "budget-exceeded" {
			t.Fatalf("over-allowance simulate %d: %d %v, want 503 budget-exceeded", i, code, body)
		}
	}
	code, body := postAs[map[string]any](t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 6, Cycles: 64})
	if code != http.StatusOK {
		t.Fatalf("valid simulate after step-limit trips: %d %v, want 200", code, body)
	}
}

// TestHangUpsNeverOpenBreaker has five clients hang up in the middle of
// long simulates. Each abandoned run stops at its budget's next check
// with a canceled trip, and clients that go away cannot fail the next
// one.
func TestHangUpsNeverOpenBreaker(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoMaxBytes = -1
	cfg.MaxSteps = -1 // no step trip: only the hang-up ends a run early
	s := NewServer(cfg)
	started, served := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.RawQuery != "hangup" {
			s.Handler().ServeHTTP(w, r)
			return
		}
		started <- struct{}{}
		s.Handler().ServeHTTP(w, r)
		served <- struct{}{}
	}))
	defer ts.Close()
	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		body := fmt.Sprintf(`{"circuit":"multiplier","width":16,"cycles":%d,"seed":%d}`, service.MaxCycles, i)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/simulate?hangup", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hungUp := make(chan error, 1)
		go func() {
			resp, err := ts.Client().Do(req)
			if err == nil {
				resp.Body.Close()
			}
			hungUp <- err
		}()
		select {
		case <-started:
		case err := <-hungUp:
			t.Fatalf("hang-up %d: the request never reached the handler: %v", i, err)
		}
		cancel()
		err = <-hungUp
		// The handler outlives its client; it returns once the abandoned
		// run stops.
		<-served
		if err == nil {
			t.Fatalf("hang-up %d: the simulate finished before the client went away", i)
		}
	}
	resp, out := post(t, ts, "/v1/simulate", simulateRequest{Circuit: "adder", Width: 4, Cycles: 64, Seed: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate after hang-ups: %d %v, want 200", resp.StatusCode, out)
	}
}
