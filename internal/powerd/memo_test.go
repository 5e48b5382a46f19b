package powerd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hlpower/internal/budget"
)

// memoOff is cfg with the estimate cache disabled.
func memoOff(cfg Config) Config {
	cfg.MemoMaxBytes = -1
	return cfg
}

// uncachedBody re-encodes a JSON response body without its per-call
// "cached" flag, so a replay and a recomputation compare equal. Go's
// encoder writes the shortest round-trip form of a float, so equal
// encodings mean Float64bits-equal figures.
func uncachedBody(t *testing.T, raw []byte) []byte {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("body %q: %v", raw, err)
	}
	if m, ok := v.(map[string]any); ok {
		delete(m, "cached")
	}
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func newMemoTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// postAs fires a JSON POST and decodes the response into T. Must only
// be called from the test goroutine (it uses t.Fatal).
func postAs[T any](t *testing.T, ts *httptest.Server, path string, body any) (int, T) {
	t.Helper()
	var out T
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("%s: status %d, undecodable body %q: %v", path, resp.StatusCode, raw, err)
	}
	return resp.StatusCode, out
}

// TestMemoCachedReplayBitIdentical is the replay-fidelity property test:
// a response served from the estimate cache must be bit-identical —
// math.Float64bits on every float field, metadata verbatim — to the
// same request recomputed by a server with memoization disabled.
func TestMemoCachedReplayBitIdentical(t *testing.T) {
	base := Config{Workers: 4, QueueDepth: 16, RequestTimeout: 10 * time.Second, MaxSteps: 50_000_000}
	plain := base
	plain.MemoMaxBytes = -1
	_, mts := newMemoTestServer(t, base)
	_, pts := newMemoTestServer(t, plain)

	// Simulate: the richest metadata (kernel).
	simReq := simulateRequest{Circuit: "multiplier", Width: 5, Cycles: 300, Seed: 42, Workers: 3}
	if code, first := postAs[simulateResponse](t, mts, "/v1/simulate", simReq); code != http.StatusOK || first.Cached {
		t.Fatalf("first simulate: code %d cached %v, want fresh 200", code, first.Cached)
	}
	code, sim2 := postAs[simulateResponse](t, mts, "/v1/simulate", simReq)
	if code != http.StatusOK || !sim2.Cached {
		t.Fatalf("repeat simulate: code %d cached %v, want cached 200", code, sim2.Cached)
	}
	code, simRef := postAs[simulateResponse](t, pts, "/v1/simulate", simReq)
	if code != http.StatusOK || simRef.Cached {
		t.Fatalf("memo-disabled simulate: code %d cached %v, want fresh 200", code, simRef.Cached)
	}
	if math.Float64bits(sim2.Power) != math.Float64bits(simRef.Power) {
		t.Errorf("cached power bits %016x != recomputed %016x", math.Float64bits(sim2.Power), math.Float64bits(simRef.Power))
	}
	if math.Float64bits(sim2.SwitchedCap) != math.Float64bits(simRef.SwitchedCap) {
		t.Errorf("cached switched_cap bits %016x != recomputed %016x", math.Float64bits(sim2.SwitchedCap), math.Float64bits(simRef.SwitchedCap))
	}
	if sim2.Cycles != simRef.Cycles || sim2.Kernel != simRef.Kernel {
		t.Errorf("cached metadata diverged: cached %+v, recomputed %+v", sim2, simRef)
	}

	// Predict: ground truth memoized underneath, response cached on top.
	pReq := predictRequest{Circuit: "adder", Width: 6, Model: "dbt", Train: 400, Eval: 300, Seed: 9}
	postAs[predictResponse](t, mts, "/v1/predict", pReq)
	code, pr2 := postAs[predictResponse](t, mts, "/v1/predict", pReq)
	if code != http.StatusOK || !pr2.Cached {
		t.Fatalf("repeat predict: code %d cached %v, want cached 200", code, pr2.Cached)
	}
	code, prRef := postAs[predictResponse](t, pts, "/v1/predict", pReq)
	if code != http.StatusOK {
		t.Fatalf("memo-disabled predict: code %d", code)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"predicted", pr2.Predicted, prRef.Predicted},
		{"measured", pr2.Measured, prRef.Measured},
		{"abs_err_pct", pr2.AbsErrPct, prRef.AbsErrPct},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("cached predict %s bits %016x != recomputed %016x", f.name, math.Float64bits(f.got), math.Float64bits(f.want))
		}
	}

	// Rank: whole-ranking replay, per-entry figures bit-identical.
	rReq := rankRequest{Width: 5, Cycles: 200, Seed: 3}
	postAs[rankResponse](t, mts, "/v1/rank", rReq)
	code, rk2 := postAs[rankResponse](t, mts, "/v1/rank", rReq)
	if code != http.StatusOK || !rk2.Cached {
		t.Fatalf("repeat rank: code %d cached %v, want cached 200", code, rk2.Cached)
	}
	code, rkRef := postAs[rankResponse](t, pts, "/v1/rank", rReq)
	if code != http.StatusOK {
		t.Fatalf("memo-disabled rank: code %d", code)
	}
	if rk2.Best != rkRef.Best || len(rk2.Ranking) != len(rkRef.Ranking) {
		t.Fatalf("cached ranking shape diverged: cached %+v, recomputed %+v", rk2, rkRef)
	}
	for i := range rk2.Ranking {
		got, want := rk2.Ranking[i], rkRef.Ranking[i]
		if got.Name != want.Name || got.Model != want.Model || got.Degraded != want.Degraded || got.Err != want.Err {
			t.Errorf("ranking[%d] metadata diverged: cached %+v, recomputed %+v", i, got, want)
		}
		if math.Float64bits(got.Power) != math.Float64bits(want.Power) {
			t.Errorf("ranking[%d] power bits %016x != recomputed %016x", i, math.Float64bits(got.Power), math.Float64bits(want.Power))
		}
	}

	// Rank over the step allowance: the adder fits, carry-select trips
	// the steps limit and the subtractor fails on the tripped budget. A
	// partial ranking is never stored, so every call recomputes it on
	// its own budget and answers what the memo-off server answers.
	tReq := rankRequest{Width: 16, Cycles: 200_000, Seed: 1}
	code, tRef := postAs[rankResponse](t, pts, "/v1/rank", tReq)
	if code != http.StatusOK || tRef.Best != "adder" || len(tRef.Ranking) != 3 || tRef.Ranking[0].Err != "" ||
		tRef.Ranking[1].Err == "" || tRef.Ranking[2].Err == "" {
		t.Fatalf("memo-disabled tripping rank: code %d %+v, want adder computed and two step-limit errors", code, tRef)
	}
	for call := 1; call <= 3; call++ {
		code, got := postAs[rankResponse](t, mts, "/v1/rank", tReq)
		if code != http.StatusOK || got.Best != tRef.Best || len(got.Ranking) != len(tRef.Ranking) {
			t.Fatalf("tripping rank call %d: code %d %+v, recomputed %+v", call, code, got, tRef)
		}
		for i, g := range got.Ranking {
			w := tRef.Ranking[i]
			if g.Name != w.Name || g.Err != w.Err || math.Float64bits(g.Power) != math.Float64bits(w.Power) {
				t.Errorf("tripping rank call %d: ranking[%d] = %+v, recomputed %+v", call, i, g, w)
			}
		}
	}

	// Predict over wireConfig's step allowance: the evaluation trace the
	// first io call stores before its io evaluation trips is replayed by
	// the pfa call and the later io calls, and each replay charges what
	// the trace's run charged, so every call trips or fits exactly as it
	// does on the memo-off server.
	on, off := NewServer(wireConfig()), NewServer(memoOff(wireConfig()))
	for call, model := range []string{"io", "pfa", "io", "io"} {
		body := []byte(fmt.Sprintf(`{"circuit":"adder","width":6,"model":%q,"train":342,"eval":342,"seed":1}`, model))
		code, got := serveRaw(t, on, "/v1/predict", body)
		wcode, want := serveRaw(t, off, "/v1/predict", body)
		if wantTrip := model == "io"; (wcode == http.StatusServiceUnavailable) != wantTrip ||
			wantTrip && !bytes.Contains(want, []byte("budget exceeded: steps (60192 of 60000)")) {
			t.Fatalf("memo-off predict call %d (%s): %d %s, want the io calls to trip at 60192 steps", call+1, model, wcode, want)
		}
		if code != wcode || !bytes.Equal(uncachedBody(t, got), uncachedBody(t, want)) {
			t.Errorf("predict call %d (%s): memo on %d %s, memo off %d %s", call+1, model, code, got, wcode, want)
		}
	}

	// BDD: exact node counts replay.
	bReq := bddRequest{Function: "majority", Vars: 10}
	postAs[bddResponse](t, mts, "/v1/bdd", bReq)
	code, bd2 := postAs[bddResponse](t, mts, "/v1/bdd", bReq)
	if code != http.StatusOK || !bd2.Cached {
		t.Fatalf("repeat bdd: code %d cached %v, want cached 200", code, bd2.Cached)
	}
	code, bdRef := postAs[bddResponse](t, pts, "/v1/bdd", bReq)
	if code != http.StatusOK {
		t.Fatalf("memo-disabled bdd: code %d", code)
	}
	if bd2.Nodes != bdRef.Nodes || bd2.Degraded != bdRef.Degraded {
		t.Errorf("cached bdd diverged: cached %+v, recomputed %+v", bd2, bdRef)
	}
}

// TestMemoStatsEndpoint checks the /v1/stats memo gauges: enabled flag,
// hit/miss/store counters, and the derived hit rate.
func TestMemoStatsEndpoint(t *testing.T) {
	_, ts := newMemoTestServer(t, Config{Workers: 2, QueueDepth: 8, RequestTimeout: 10 * time.Second, MaxSteps: 50_000_000})
	req := simulateRequest{Circuit: "adder", Width: 4, Cycles: 100, Seed: 1}
	for i := 0; i < 2; i++ {
		if code, _ := postAs[simulateResponse](t, ts, "/v1/simulate", req); code != http.StatusOK {
			t.Fatalf("simulate %d: code %d", i, code)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.MemoEnabled {
		t.Error("stats report memo_enabled=false on a memo-enabled server")
	}
	if st.Memo.Misses < 1 || st.Memo.Hits < 1 || st.Memo.Stores < 1 {
		t.Errorf("memo gauges missing traffic after hit+miss: %+v", st.Memo)
	}
	if st.MemoHitRate <= 0 {
		t.Errorf("memo_hit_rate = %v after a cache hit, want > 0", st.MemoHitRate)
	}

	// A disabled server reports the flag off and zero gauges.
	_, dts := newMemoTestServer(t, Config{Workers: 2, QueueDepth: 8, RequestTimeout: 10 * time.Second, MaxSteps: 50_000_000, MemoMaxBytes: -1})
	if code, r := postAs[simulateResponse](t, dts, "/v1/simulate", req); code != http.StatusOK || r.Cached {
		t.Fatalf("memo-disabled simulate: code %d cached %v", code, r.Cached)
	}
	dresp, err := dts.Client().Get(dts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	var dst Stats
	if err := json.NewDecoder(dresp.Body).Decode(&dst); err != nil {
		t.Fatal(err)
	}
	if dst.MemoEnabled || dst.Memo.Misses != 0 {
		t.Errorf("memo-disabled server reports memo stats: %+v", dst.Memo)
	}
}

// TestMemoSingleflightHTTP drives request collapsing end to end: N
// concurrent identical simulate requests perform exactly one
// computation, and exactly one response reports itself fresh.
func TestMemoSingleflightHTTP(t *testing.T) {
	const n = 8
	s, ts := newMemoTestServer(t, Config{Workers: n, QueueDepth: 2 * n, RequestTimeout: 10 * time.Second, MaxSteps: 50_000_000})
	req := simulateRequest{Circuit: "multiplier", Width: 5, Cycles: 400, Seed: 7}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code int
		resp simulateResponse
		err  error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			var out simulateResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			results <- result{code: resp.StatusCode, resp: out, err: err}
		}()
	}
	fresh := 0
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("concurrent simulate answered %d, want 200", r.code)
		}
		if !r.resp.Cached {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("%d of %d identical concurrent requests computed, want exactly 1", fresh, n)
	}
	m := s.Snapshot().Memo
	if m.Misses != 1 || m.Stores != 1 {
		t.Errorf("want 1 computation and 1 store across %d identical requests, got %+v", n, m)
	}
	if m.Hits+m.Collapsed != n-1 {
		t.Errorf("want %d requests served without computing (hits+collapsed), got %+v", n-1, m)
	}
}

// TestMemoFaultPlanRegression pins the cache-poisoning fix: while a
// fault plan is armed the estimate cache is bypassed entirely — chaos
// traffic is neither absorbed by earlier entries nor able to store
// fault-shaped results — and caching resumes once the plan clears.
func TestMemoFaultPlanRegression(t *testing.T) {
	s, ts := newMemoTestServer(t, Config{
		Workers: 2, QueueDepth: 8, RequestTimeout: 5 * time.Second,
		MaxSteps: 20_000_000, CheckInterval: 32,
	})
	req := simulateRequest{Circuit: "adder", Width: 6, Cycles: 200, Seed: 5}

	code, warm := postAs[simulateResponse](t, ts, "/v1/simulate", req)
	if code != http.StatusOK || warm.Cached {
		t.Fatalf("warm-up: code %d cached %v, want fresh 200", code, warm.Cached)
	}
	st1 := s.Snapshot().Memo
	if st1.Stores == 0 {
		t.Fatalf("warm-up did not store: %+v", st1)
	}

	// Armed: the identical request has a cached answer available, but it
	// must NOT be served — the injected fault has to surface.
	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1})
	for i := 0; i < 3; i++ {
		code, body := postAs[map[string]any](t, ts, "/v1/simulate", req)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("request %d under FailAtCheck=1 answered %d (body %v), want 503: the cache must not mask injected faults", i, code, body)
		}
	}
	if st2 := s.Snapshot().Memo; st2 != st1 {
		t.Fatalf("estimate cache touched while a fault plan was armed:\n before %+v\n after  %+v", st1, st2)
	}

	// Disarmed: the pre-chaos entry is intact and replays bit-identically.
	s.SetFaultPlan(budget.FaultPlan{})
	code, replay := postAs[simulateResponse](t, ts, "/v1/simulate", req)
	if code != http.StatusOK || !replay.Cached {
		t.Fatalf("post-chaos replay: code %d cached %v, want cached 200", code, replay.Cached)
	}
	st3 := s.Snapshot().Memo
	if st3.Hits != st1.Hits+1 {
		t.Errorf("post-chaos replay did not hit: before %+v, after %+v", st1, st3)
	}
	if st3.Stores != st1.Stores {
		t.Errorf("post-chaos replay re-stored: before %+v, after %+v", st1, st3)
	}
	if math.Float64bits(replay.Power) != math.Float64bits(warm.Power) {
		t.Errorf("replayed power bits %016x != original %016x", math.Float64bits(replay.Power), math.Float64bits(warm.Power))
	}
}

// TestMemoDegradedNeverCached pins the other half of the honesty
// invariant: a naturally budget-degraded result (no fault plan — the
// step allowance is simply too small for an exact BDD build) is
// recomputed every time, never stored, never served as cached.
func TestMemoDegradedNeverCached(t *testing.T) {
	s, ts := newMemoTestServer(t, Config{
		Workers: 2, QueueDepth: 8, RequestTimeout: 5 * time.Second,
		MaxSteps: 2_000, CheckInterval: 8,
	})
	req := bddRequest{Function: "parity", Vars: 12, AllowDegraded: true}
	for i := 0; i < 2; i++ {
		code, resp := postAs[bddResponse](t, ts, "/v1/bdd", req)
		if code != http.StatusOK {
			t.Fatalf("bdd %d: code %d", i, code)
		}
		if !resp.Degraded {
			t.Fatalf("bdd %d: MaxSteps=2000 did not degrade the exact build; tighten the budget", i)
		}
		if resp.Cached {
			t.Fatalf("bdd %d: degraded estimate served from cache", i)
		}
	}
	m := s.Snapshot().Memo
	if m.Stores != 0 {
		t.Fatalf("degraded result was stored: %+v", m)
	}
	if m.Misses != 2 {
		t.Errorf("want 2 computations for 2 degraded requests, got %+v", m)
	}
}
