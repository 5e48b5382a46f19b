package powerd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hlpower/internal/cluster"
	"hlpower/internal/jobs"
	"hlpower/internal/resilience"
	"hlpower/internal/service"
)

func jobConfig() Config {
	cfg := testConfig()
	cfg.JobWorkers = 2
	cfg.JobQueueDepth = 4
	cfg.JobCheckpointEvery = 1
	return cfg
}

func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

func del(t *testing.T, ts *httptest.Server, path string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
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

func pollJob(t *testing.T, ts *httptest.Server, id string, until func(map[string]any) bool) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, out := getJSON(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: %d %v", id, resp.StatusCode, out)
		}
		if until(out) {
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("poll %s: condition never met; last %v", id, out)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func terminal(out map[string]any) bool {
	switch out["phase"] {
	case "done", "failed", "canceled":
		return true
	}
	return false
}

func TestOptimizeLifecycle(t *testing.T) {
	s := NewServer(jobConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	req := service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 4, Seed: 5, Candidates: 10}
	resp, out := post(t, ts, "/v1/optimize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("optimize: %d %v", resp.StatusCode, out)
	}
	id, _ := out["id"].(string)
	if len(id) != 32 {
		t.Fatalf("job id %q", id)
	}

	// Idempotent resubmission lands on the same job.
	resp, out2 := post(t, ts, "/v1/optimize", req)
	if resp.StatusCode != http.StatusAccepted || out2["id"] != id {
		t.Fatalf("resubmit: %d %v", resp.StatusCode, out2)
	}

	fin := pollJob(t, ts, id, terminal)
	if fin["phase"] != "done" {
		t.Fatalf("job finished %v", fin)
	}
	if fin["best_score"].(float64) <= 0 || fin["best_score"].(float64) > fin["base_score"].(float64) {
		t.Fatalf("scores: %v", fin)
	}
	if int(fin["step"].(float64)) != 10 {
		t.Fatalf("step: %v", fin)
	}

	// Cancel after completion reports the terminal state.
	resp, out = del(t, ts, "/v1/jobs/"+id)
	if resp.StatusCode != http.StatusOK || out["phase"] != "done" {
		t.Fatalf("cancel finished job: %d %v", resp.StatusCode, out)
	}

	// Stats carry the job gauges.
	_, stats := getJSON(t, ts, "/v1/stats")
	jm, ok := stats["jobs"].(map[string]any)
	if !ok || jm["completed"].(float64) < 1 || jm["checkpointed"].(float64) < 1 {
		t.Fatalf("stats jobs: %v", stats["jobs"])
	}
}

func TestOptimizeRejectsBadRequests(t *testing.T) {
	s := NewServer(jobConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	for name, req := range map[string]service.OptimizeRequest{
		"kind":       {Kind: "netlist", Seed: 1},
		"circuit":    {Kind: "circuit", Circuit: "alu", Width: 4, Seed: 1},
		"width":      {Kind: "circuit", Circuit: "adder", Width: 99, Seed: 1},
		"candidates": {Kind: "circuit", Circuit: "adder", Width: 4, Seed: 1, Candidates: 100000},
	} {
		resp, out := post(t, ts, "/v1/optimize", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d %v", name, resp.StatusCode, out)
		}
	}

	if resp, out := getJSON(t, ts, "/v1/jobs/ffffffffffffffffffffffffffffffff"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d %v", resp.StatusCode, out)
	}
	if resp, out := del(t, ts, "/v1/jobs/not-a-key"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad job id: %d %v", resp.StatusCode, out)
	}
}

func TestOptimizeQueueSheds(t *testing.T) {
	cfg := jobConfig()
	cfg.JobWorkers = 1
	cfg.JobQueueDepth = 1
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)

	var ids []string
	shed := false
	for i := 0; i < 4; i++ {
		req := service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 4,
			Seed: int64(100 + i), Candidates: 2000, EvalCycles: 512}
		resp, out := post(t, ts, "/v1/optimize", req)
		switch resp.StatusCode {
		case http.StatusAccepted:
			ids = append(ids, out["id"].(string))
		case http.StatusTooManyRequests:
			shed = true
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("submit %d: %d %v", i, resp.StatusCode, out)
		}
	}
	if !shed {
		t.Fatal("no submission was shed")
	}
	for _, id := range ids {
		del(t, ts, "/v1/jobs/"+id)
	}
	for _, id := range ids {
		pollJob(t, ts, id, terminal)
	}
}

func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestOptimizeDrainRestartBitIdentity is the serving-layer durability
// acceptance check: a node drained mid-job and "restarted" (a fresh
// Server over the same checkpoint store, which auto-recovers) finishes
// the job with a Float64bits-identical best recipe and score versus an
// uninterrupted server.
func TestOptimizeDrainRestartBitIdentity(t *testing.T) {
	for _, candidates := range []int{150, 600, 2000} {
		req := service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 4,
			Seed: 9, Candidates: candidates}

		// Uninterrupted reference.
		refS := NewServer(jobConfig())
		refTS := httptest.NewServer(refS.Handler())
		resp, out := post(t, refTS, "/v1/optimize", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reference submit: %d %v", resp.StatusCode, out)
		}
		id := out["id"].(string)
		ref := pollJob(t, refTS, id, terminal)
		refTS.Close()
		drainServer(t, refS)
		if ref["phase"] != "done" {
			t.Fatalf("reference: %v", ref)
		}

		// Interrupted node over a shared store.
		store := jobs.NewMemStore()
		cfg1 := jobConfig()
		cfg1.JobStore = store
		s1 := NewServer(cfg1)
		ts1 := httptest.NewServer(s1.Handler())
		if resp, out := post(t, ts1, "/v1/optimize", req); resp.StatusCode != http.StatusAccepted || out["id"] != id {
			t.Fatalf("submit: %d %v", resp.StatusCode, out)
		}
		pollJob(t, ts1, id, func(out map[string]any) bool {
			return out["step"].(float64) >= 3 || terminal(out)
		})
		drainServer(t, s1)
		ts1.Close()

		snap, ok, _ := store.Load(id)
		if !ok {
			t.Fatal("no checkpoint after drain")
		}
		mid, err := jobs.DecodeState(snap)
		if err != nil {
			t.Fatalf("drain checkpoint: %v", err)
		}
		if mid.Phase != jobs.PhaseRunning || mid.Step == 0 || mid.Step >= candidates {
			continue // job fit before the drain; retry with a longer one
		}

		// "Restarted" node: NewServer recovers the checkpoint on its own.
		cfg2 := jobConfig()
		cfg2.JobStore = store
		s2 := NewServer(cfg2)
		ts2 := httptest.NewServer(s2.Handler())
		fin := pollJob(t, ts2, id, terminal)
		ts2.Close()
		defer drainServer(t, s2)
		if fin["phase"] != "done" {
			t.Fatalf("resumed job: %v", fin)
		}
		if math.Float64bits(fin["best_score"].(float64)) != math.Float64bits(ref["best_score"].(float64)) {
			t.Fatalf("best score %v != reference %v", fin["best_score"], ref["best_score"])
		}
		if fmt.Sprint(fin["best_recipe"]) != fmt.Sprint(ref["best_recipe"]) {
			t.Fatalf("best recipe %v != reference %v", fin["best_recipe"], ref["best_recipe"])
		}
		if fin["steps_used"].(float64) != ref["steps_used"].(float64) {
			t.Fatalf("steps used %v != reference %v", fin["steps_used"], ref["steps_used"])
		}
		if s2.Snapshot().Jobs.Resumed != 1 {
			t.Fatal("restarted node did not count a resume")
		}
		return
	}
	t.Fatal("drain never landed mid-search even on the largest job")
}

// TestOptimizeClusterRouting submits the same job through both nodes
// of a two-node ring: the ring owner runs it exactly once, the other
// node forwards submission, polling, and cancellation.
func TestOptimizeClusterRouting(t *testing.T) {
	ids := []string{"n0", "n1"}
	swaps := make([]*swapHandler, len(ids))
	tss := make([]*httptest.Server, len(ids))
	peers := make([]cluster.Peer, len(ids))
	for i := range ids {
		swaps[i] = &swapHandler{}
		tss[i] = httptest.NewServer(swaps[i])
		defer tss[i].Close()
		peers[i] = cluster.Peer{ID: ids[i], URL: tss[i].URL}
	}
	nodes := make([]*Server, len(ids))
	for i := range ids {
		nodes[i] = NewServer(jobConfig())
		err := nodes[i].EnableCluster(cluster.Config{
			Self:             peers[i],
			Peers:            peers,
			GossipInterval:   25 * time.Millisecond,
			SuspectAfter:     time.Second,
			ForwardTimeout:   5 * time.Second,
			FailureThreshold: 3,
			OpenTimeout:      200 * time.Millisecond,
			HalfOpenProbes:   1,
			Retry:            resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Multiplier: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		h := nodes[i].Handler()
		swaps[i].h.Store(&h)
		defer drainServer(t, nodes[i])
	}

	req := service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 4, Seed: 77, Candidates: 8}
	var jobID string
	for i := range nodes {
		resp, out := post(t, tss[i], "/v1/optimize", req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit via %s: %d %v", ids[i], resp.StatusCode, out)
		}
		if jobID == "" {
			jobID = out["id"].(string)
		} else if out["id"] != jobID {
			t.Fatalf("nodes disagree on job id: %v vs %s", out["id"], jobID)
		}
	}

	// Exactly one node owns (and runs) the job.
	owners := 0
	ownerIdx := -1
	for i := range nodes {
		if n := nodes[i].Snapshot().Jobs.Submitted; n > 0 {
			owners++
			ownerIdx = i
		}
	}
	if owners != 1 {
		t.Fatalf("job ran on %d nodes, want exactly 1", owners)
	}
	other := 1 - ownerIdx
	if nodes[other].Snapshot().Forwarded == 0 {
		t.Fatal("non-owner did not forward the submission")
	}

	// Polling through the non-owner follows the ring to the owner.
	fin := pollJob(t, tss[other], jobID, terminal)
	if fin["phase"] != "done" {
		t.Fatalf("job via non-owner: %v", fin)
	}
	// And cancellation of the finished job relays its terminal status.
	resp, out := del(t, tss[other], "/v1/jobs/"+jobID)
	if resp.StatusCode != http.StatusOK || out["phase"] != "done" {
		t.Fatalf("cancel via non-owner: %d %v", resp.StatusCode, out)
	}
	if resp.Header.Get(ServedByHeader) != ids[ownerIdx] {
		t.Fatalf("served-by %q, want %s", resp.Header.Get(ServedByHeader), ids[ownerIdx])
	}
}

// TestJobsLeaveEstimateCacheAlone: each optimization job keeps its
// prefix designs, controllers and scores in a memo cache of its own, so
// a fleet of jobs neither evicts nor touches the estimates the server's
// cache holds. 500 simulates fill a 4 MiB memo; 300 jobs of the
// benchmark's optimize-jobs mix (its seven specs, 32 candidates each,
// two at a time) leave its Stats unchanged, and all 500 simulates still
// replay from it.
func TestJobsLeaveEstimateCacheAlone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MemoMaxBytes = 4 << 20
	s := NewServer(cfg)
	defer drainServer(t, s)
	serve := func(path string, body any) (int, []byte) {
		buf, err := json.Marshal(body)
		if err != nil {
			panic(err) // the request types always marshal
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
		return rec.Code, rec.Body.Bytes()
	}
	simulateAll := func() {
		for seed := 0; seed < 500; seed++ {
			req := map[string]any{"circuit": "adder", "width": 8, "cycles": 256, "seed": seed}
			if code, body := serve("/v1/simulate", req); code != http.StatusOK {
				t.Fatalf("simulate seed %d: %d %s", seed, code, body)
			}
		}
	}
	simulateAll()
	filled := s.memo.Stats()

	specs := []service.OptimizeRequest{
		{Kind: "circuit", Circuit: "adder", Width: 8},
		{Kind: "circuit", Circuit: "carry-select", Width: 8},
		{Kind: "circuit", Circuit: "subtractor", Width: 8},
		{Kind: "circuit", Circuit: "comparator", Width: 8},
		{Kind: "fsm", States: 4, Inputs: 1, Outputs: 2},
		{Kind: "bus", Width: 8},
		{Kind: "bus", Width: 16},
	}
	const fleet = 300
	var wg sync.WaitGroup
	for client := 0; client < 2; client++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for i := client; i < fleet; i += 2 {
				req := specs[i%len(specs)]
				req.Seed, req.Candidates = int64(7000+i), 32
				code, body := serve("/v1/optimize", req)
				var st jobs.Status
				if code != http.StatusAccepted || json.Unmarshal(body, &st) != nil {
					t.Errorf("job %d: %d %s", i, code, body)
					return
				}
				done, _ := s.jobsMgr.Done(st.ID)
				<-done
				if fin, _ := s.jobsMgr.Get(st.ID); fin.Phase != jobs.PhaseDone {
					t.Errorf("job %d: %+v", i, fin)
					return
				}
			}
		}(client)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := s.memo.Stats(); got != filled {
		t.Fatalf("%d jobs moved the estimate cache:\n got %+v\nwant %+v", fleet, got, filled)
	}

	simulateAll()
	replayed := s.memo.Stats()
	if hits := replayed.Hits - filled.Hits; hits != 500 || replayed.Evictions != 0 {
		t.Fatalf("replay: %d of 500 simulates hit, %d evictions", hits, replayed.Evictions)
	}
}
