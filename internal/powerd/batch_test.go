package powerd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hlpower/internal/cluster"
	"hlpower/internal/resilience"
	"hlpower/internal/service"
)

func batchTestItems() []service.BatchItem {
	return []service.BatchItem{
		{ID: "s0", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 96, Seed: 1}},
		{ID: "s1", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 96, Seed: 2}},
		{ID: "m0", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "multiplier", Width: 4, Cycles: 64, Seed: 3}},
		{ID: "b0", Op: service.OpBDD, BDD: &bddRequest{Function: "parity", Vars: 6}},
		{ID: "p0", Op: service.OpPredict, Predict: &predictRequest{Circuit: "adder", Width: 6, Model: "pfa", Train: 64, Eval: 64, Seed: 4}},
		{ID: "r0", Op: service.OpRank, Rank: &rankRequest{Width: 5, Cycles: 64, Seed: 5}},
	}
}

// TestBatchHTTPBitIdenticalToSingleCalls is the tentpole acceptance
// test at the wire: every item of one fused POST /v1/batch must be
// Float64bits-identical to the same request against the single-item
// endpoints (here on a second server, both uncached, so replay cannot
// mask a kernel divergence).
func TestBatchHTTPBitIdenticalToSingleCalls(t *testing.T) {
	cfg := testConfig()
	cfg.MemoMaxBytes = -1
	_, batchTS := newMemoTestServer(t, cfg)
	_, singleTS := newMemoTestServer(t, cfg)

	items := batchTestItems()
	status, resp := postAs[service.BatchResponse](t, batchTS, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	if resp.Failed != 0 || len(resp.Items) != len(items) {
		t.Fatalf("failed=%d items=%d: %+v", resp.Failed, len(resp.Items), resp.Items)
	}
	bitEq := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %v != %v (bit-identity violated)", what, a, b)
		}
	}
	for i, it := range items {
		got := resp.Items[i]
		if got.ID != it.ID || got.Index != i {
			t.Fatalf("item %d misattributed: %+v", i, got)
		}
		switch it.Op {
		case service.OpSimulate:
			st, want := postAs[simulateResponse](t, singleTS, "/v1/simulate", it.Simulate)
			if st != http.StatusOK {
				t.Fatalf("single simulate status %d", st)
			}
			bitEq("power", got.Simulate.Power, want.Power)
			bitEq("switched_cap", got.Simulate.SwitchedCap, want.SwitchedCap)
			if got.Simulate.Kernel != want.Kernel || got.Simulate.Cycles != want.Cycles {
				t.Fatalf("simulate metadata differs: %+v vs %+v", got.Simulate, want)
			}
		case service.OpRank:
			st, want := postAs[rankResponse](t, singleTS, "/v1/rank", it.Rank)
			if st != http.StatusOK {
				t.Fatalf("single rank status %d", st)
			}
			if len(got.Rank.Ranking) != len(want.Ranking) {
				t.Fatalf("ranking lengths differ")
			}
			for j := range want.Ranking {
				if got.Rank.Ranking[j].Name != want.Ranking[j].Name {
					t.Fatalf("ranking order differs at %d", j)
				}
				bitEq("rank power", got.Rank.Ranking[j].Power, want.Ranking[j].Power)
			}
		case service.OpBDD:
			st, want := postAs[bddResponse](t, singleTS, "/v1/bdd", it.BDD)
			if st != http.StatusOK {
				t.Fatalf("single bdd status %d", st)
			}
			if got.BDD.Nodes != want.Nodes || got.BDD.Degraded != want.Degraded {
				t.Fatalf("bdd differs: %+v vs %+v", got.BDD, want)
			}
		case service.OpPredict:
			st, want := postAs[predictResponse](t, singleTS, "/v1/predict", it.Predict)
			if st != http.StatusOK {
				t.Fatalf("single predict status %d", st)
			}
			bitEq("predicted", got.Predict.Predicted, want.Predicted)
			bitEq("measured", got.Predict.Measured, want.Measured)
			bitEq("abs_err_pct", got.Predict.AbsErrPct, want.AbsErrPct)
		}
	}
}

// TestBatchHTTPPartialFailure: one poisoned item (a workload its budget
// cannot fit) fails with a typed per-item budget error while the other
// items of its own group succeed — and the response is still 200.
func TestBatchHTTPPartialFailure(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSteps = 30_000
	_, ts := newMemoTestServer(t, cfg)
	items := []service.BatchItem{
		{ID: "ok0", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 1}},
		{ID: "poison", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 4000, Seed: 2}},
		{ID: "ok1", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 3}},
		{ID: "badop", Op: "no-such-op"},
	}
	status, resp := postAs[service.BatchResponse](t, ts, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("status %d, want 200 despite per-item failures", status)
	}
	if resp.Failed != 2 {
		t.Fatalf("failed=%d, want 2: %+v", resp.Failed, resp.Items)
	}
	if e := resp.Items[1].Error; e == nil || e.Kind != service.BatchErrBudget {
		t.Fatalf("poisoned item: %+v, want kind %q", resp.Items[1].Error, service.BatchErrBudget)
	}
	if e := resp.Items[3].Error; e == nil || e.Kind != service.BatchErrInput {
		t.Fatalf("bad-op item: %+v, want kind %q", resp.Items[3].Error, service.BatchErrInput)
	}
	for _, i := range []int{0, 2} {
		if resp.Items[i].Error != nil || resp.Items[i].Simulate == nil {
			t.Fatalf("sibling %d poisoned: %+v", i, resp.Items[i])
		}
	}
}

// TestBatchStepLimitItemsKeepBreakerClosed: batch items whose work
// exceeds MaxSteps fail with budget errors of their own, and a valid
// item behind them still computes.
func TestBatchStepLimitItemsKeepBreakerClosed(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSteps = 30_000
	_, ts := newMemoTestServer(t, cfg)
	var items []service.BatchItem
	for i := 0; i < 6; i++ {
		items = append(items, service.BatchItem{Op: service.OpSimulate,
			Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 4000, Seed: int64(i)}})
	}
	items = append(items, service.BatchItem{ID: "ok", Op: service.OpSimulate,
		Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: 9}})
	status, resp := postAs[service.BatchResponse](t, ts, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	for i := 0; i < 6; i++ {
		if e := resp.Items[i].Error; e == nil || e.Kind != service.BatchErrBudget {
			t.Fatalf("over-allowance item %d: %+v, want kind %q", i, resp.Items[i].Error, service.BatchErrBudget)
		}
	}
	if last := resp.Items[6]; last.Error != nil || last.Simulate == nil {
		t.Fatalf("valid item behind step-limit trips: %+v", last.Error)
	}
}

// TestBatchHTTPValidation: an empty batch and an oversized batch are
// whole-request input errors.
func TestBatchHTTPValidation(t *testing.T) {
	_, ts := newMemoTestServer(t, testConfig())
	status, _ := postAs[map[string]any](t, ts, "/v1/batch", service.BatchRequest{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", status)
	}
	big := service.BatchRequest{Items: make([]service.BatchItem, service.MaxBatchItems+1)}
	status, _ = postAs[map[string]any](t, ts, "/v1/batch", big)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400", status)
	}
}

// TestBatchStreamNDJSON: the streaming variant emits one result line
// per item plus a trailing summary, and the lines cover every submitted
// index exactly once.
func TestBatchStreamNDJSON(t *testing.T) {
	_, ts := newMemoTestServer(t, testConfig())
	items := batchTestItems()
	buf, err := json.Marshal(service.BatchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/batch/stream", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	seen := map[int]bool{}
	var summary *batchStreamSummary
	for sc.Scan() {
		line := sc.Bytes()
		if summary != nil {
			t.Fatalf("line after summary: %s", line)
		}
		var probe struct {
			Done *bool `json:"done"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("undecodable line %q: %v", line, err)
		}
		if probe.Done != nil {
			var s batchStreamSummary
			if err := json.Unmarshal(line, &s); err != nil {
				t.Fatal(err)
			}
			summary = &s
			continue
		}
		var r service.BatchItemResult
		if err := json.Unmarshal(line, &r); err != nil {
			t.Fatal(err)
		}
		if seen[r.Index] {
			t.Fatalf("index %d streamed twice", r.Index)
		}
		seen[r.Index] = true
		if r.Error != nil {
			t.Fatalf("item %d failed: %+v", r.Index, r.Error)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summary == nil || !summary.Done {
		t.Fatal("no summary line")
	}
	if len(seen) != len(items) {
		t.Fatalf("streamed %d items, want %d", len(seen), len(items))
	}
	if summary.Failed != 0 || summary.Groups == 0 || summary.StepsUsed <= 0 {
		t.Fatalf("summary: %+v", summary)
	}
}

// TestBatchMemoIntegration: batch items and single requests share the
// same cache entries — duplicates inside one batch collapse, a repeated
// batch replays entirely, and a later single request hits what the
// batch stored.
func TestBatchMemoIntegration(t *testing.T) {
	srv, ts := newMemoTestServer(t, testConfig())
	req := simulateRequest{Circuit: "adder", Width: 6, Cycles: 96, Seed: 7}
	items := []service.BatchItem{
		{ID: "a", Op: service.OpSimulate, Simulate: &req},
		{ID: "dup", Op: service.OpSimulate, Simulate: &req},
	}
	status, first := postAs[service.BatchResponse](t, ts, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK || first.Failed != 0 {
		t.Fatalf("first batch: status=%d %+v", status, first)
	}
	if first.Items[0].Simulate.Cached {
		t.Fatal("first occurrence should compute")
	}
	if !first.Items[1].Simulate.Cached {
		t.Fatal("duplicate inside one batch should replay from cache")
	}
	status, second := postAs[service.BatchResponse](t, ts, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK || second.Cached != 2 {
		t.Fatalf("second batch: status=%d cached=%d, want 2", status, second.Cached)
	}
	if math.Float64bits(second.Items[0].Simulate.Power) != math.Float64bits(first.Items[0].Simulate.Power) {
		t.Fatal("cached replay not bit-identical")
	}
	st, single := postAs[simulateResponse](t, ts, "/v1/simulate", req)
	if st != http.StatusOK || !single.Cached {
		t.Fatalf("single call after batch: status=%d cached=%v, want a hit", st, single.Cached)
	}
	if math.Float64bits(single.Power) != math.Float64bits(first.Items[0].Simulate.Power) {
		t.Fatal("single-path replay of a batch-stored entry not bit-identical")
	}
	if hits := srv.memo.Stats().Hits; hits < 4 {
		t.Fatalf("memo hits=%d, want >=4", hits)
	}
}

// TestBatchStepsCeiling: the per-batch aggregate step budget fails the
// tail of the batch with typed budget errors while the head computes.
func TestBatchStepsCeiling(t *testing.T) {
	cfg := testConfig()
	cfg.MemoMaxBytes = -1
	cfg.BatchSteps = 1
	_, ts := newMemoTestServer(t, cfg)
	var items []service.BatchItem
	for i := 0; i < 4; i++ {
		items = append(items, service.BatchItem{Op: service.OpSimulate,
			Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: int64(i)}})
	}
	status, resp := postAs[service.BatchResponse](t, ts, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if resp.Items[0].Error != nil {
		t.Fatalf("first item should compute: %+v", resp.Items[0].Error)
	}
	for i := 1; i < len(items); i++ {
		if e := resp.Items[i].Error; e == nil || e.Kind != service.BatchErrBudget {
			t.Fatalf("item %d: %+v, want kind %q", i, resp.Items[i].Error, service.BatchErrBudget)
		}
	}
}

// startRing starts a converged ring of one server per id, each on its
// own test listener with cfg, and returns the servers in id order.
func startRing(t *testing.T, cfg Config, ids []string) []*Server {
	t.Helper()
	swaps := make([]*swapHandler, len(ids))
	peers := make([]cluster.Peer, len(ids))
	for i := range ids {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		peers[i] = cluster.Peer{ID: ids[i], URL: ts.URL}
	}
	nodes := make([]*Server, len(ids))
	for i := range ids {
		nodes[i] = NewServer(cfg)
		err := nodes[i].EnableCluster(cluster.Config{
			Self:           peers[i],
			Peers:          peers,
			GossipInterval: 20 * time.Millisecond,
			SuspectAfter:   500 * time.Millisecond,
			ForwardTimeout: 2 * time.Second,
			Retry:          resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(nodes[i].Cluster().Stop)
		h := nodes[i].Handler()
		swaps[i].h.Store(&h)
	}

	alive := func(s *Server, id string) bool {
		for _, p := range s.Cluster().Stats().Peers {
			if p.ID == id {
				return p.Health.Alive
			}
		}
		return false
	}
	deadline := time.Now().Add(3 * time.Second)
	for i, s := range nodes {
		for j, id := range ids {
			for i != j && !alive(s, id) {
				if time.Now().After(deadline) {
					t.Fatal("ring never converged")
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}
	return nodes
}

// TestBatchClusterForward: in a two-node ring, a group whose routing
// key a peer owns is forwarded there whole — the peer's batch counters
// move, the front records the forward, and the results are identical to
// a single-node reference.
func TestBatchClusterForward(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSteps = 20_000_000
	ids := []string{"n0", "n1"}
	nodes := startRing(t, cfg, ids)

	// Pick a simulate group the peer owns, using the same ring function
	// the servers use.
	keys := service.Keys{MaxSteps: cfg.MaxSteps}
	ring := cluster.NewRing(ids, 0)
	var group *service.BatchGroup
	for _, c := range []string{"adder", "multiplier", "subtractor", "comparator", "carry-select"} {
		for w := 4; w <= 8; w++ {
			g := service.BatchGroup{Op: service.OpSimulate, Circuit: c, Width: w}
			if ring.Owner(keys.Group(g)) == "n1" {
				group = &g
				break
			}
		}
		if group != nil {
			break
		}
	}
	if group == nil {
		t.Fatal("no peer-owned simulate group found")
	}
	items := []service.BatchItem{
		{ID: "f0", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: group.Circuit, Width: group.Width, Cycles: 96, Seed: 1}},
		{ID: "f1", Op: service.OpSimulate, Simulate: &simulateRequest{Circuit: group.Circuit, Width: group.Width, Cycles: 96, Seed: 2}},
	}

	front := httptest.NewServer(nodes[0].Handler())
	t.Cleanup(front.Close)
	status, resp := postAs[service.BatchResponse](t, front, "/v1/batch", service.BatchRequest{Items: items})
	if status != http.StatusOK || resp.Failed != 0 {
		t.Fatalf("status=%d failed=%d: %+v", status, resp.Failed, resp.Items)
	}
	if got := nodes[0].Snapshot().Forwarded; got < 1 {
		t.Fatalf("front forwarded %d groups, want >=1", got)
	}
	if got := nodes[1].Snapshot().Batches; got < 1 {
		t.Fatalf("owner served %d batches, want >=1", got)
	}

	// Results relayed from the owner are identical to a single-node
	// reference.
	refS := NewServer(cfg)
	ref := httptest.NewServer(refS.Handler())
	t.Cleanup(ref.Close)
	for i, it := range items {
		st, want := postAs[simulateResponse](t, ref, "/v1/simulate", it.Simulate)
		if st != http.StatusOK {
			t.Fatalf("reference status %d", st)
		}
		if math.Float64bits(resp.Items[i].Simulate.Power) != math.Float64bits(want.Power) {
			t.Fatalf("item %d: forwarded power %v != reference %v", i, resp.Items[i].Simulate.Power, want.Power)
		}
	}
}

// Benchmarks for the fused-vs-looped comparison benchjson snapshots.
func BenchmarkBatchFused(b *testing.B) {
	cfg := testConfig()
	cfg.MemoMaxBytes = -1
	cfg.RequestTimeout = time.Minute
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	items := make([]service.BatchItem, 256)
	for i := range items {
		items[i] = service.BatchItem{Op: service.OpSimulate,
			Simulate: &simulateRequest{Circuit: "adder", Width: 6, Cycles: 64, Seed: int64(i)}}
	}
	buf, _ := json.Marshal(service.BatchRequest{Items: items})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := ts.Client().Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(buf))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatal(resp.StatusCode)
		}
	}
}
