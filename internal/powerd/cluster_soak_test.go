package powerd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/cluster"
	"hlpower/internal/memo"
	"hlpower/internal/resilience"
	"hlpower/internal/service"
)

// ---------------------------------------------------------------------
// Chaos fabric: a fault matrix between nodes, injected as each node's
// HTTP transport. Client->node traffic does not pass through it; only
// node->node forwards and gossip do, which is exactly the network a
// real partition would cut.

type chaosNet struct {
	mu       sync.Mutex
	idByAddr map[string]string // "host:port" -> node ID
	blocked  map[[2]string]bool
	delay    map[[2]string]time.Duration
}

func newChaosNet() *chaosNet {
	return &chaosNet{
		idByAddr: map[string]string{},
		blocked:  map[[2]string]bool{},
		delay:    map[[2]string]time.Duration{},
	}
}

func (c *chaosNet) register(id, rawURL string) {
	u, err := url.Parse(rawURL)
	if err != nil {
		panic(err)
	}
	c.mu.Lock()
	c.idByAddr[u.Host] = id
	c.mu.Unlock()
}

// partition blocks both directions of one link.
func (c *chaosNet) partition(a, b string, on bool) {
	c.mu.Lock()
	c.blocked[[2]string{a, b}] = on
	c.blocked[[2]string{b, a}] = on
	c.mu.Unlock()
}

// kill isolates a node completely: every link to and from it drops.
func (c *chaosNet) kill(id string, others []string) {
	for _, o := range others {
		if o != id {
			c.partition(id, o, true)
		}
	}
}

// slow injects latency on the a->b data path (gossip is exempt, so
// liveness and slowness stay independent failure modes).
func (c *chaosNet) slow(a, b string, d time.Duration) {
	c.mu.Lock()
	c.delay[[2]string{a, b}] = d
	c.mu.Unlock()
}

func (c *chaosNet) rules(from, to string) (bool, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.blocked[[2]string{from, to}], c.delay[[2]string{from, to}]
}

type chaosTransport struct {
	net  *chaosNet
	from string
	base *http.Transport
}

func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.net.mu.Lock()
	to := t.net.idByAddr[req.URL.Host]
	t.net.mu.Unlock()
	blocked, delay := t.net.rules(t.from, to)
	if blocked {
		return nil, fmt.Errorf("chaos: partition %s->%s", t.from, to)
	}
	if delay > 0 && req.URL.Path != "/cluster/v1/gossip" {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(delay):
		}
	}
	return t.base.RoundTrip(req)
}

func (t *chaosTransport) CloseIdleConnections() { t.base.CloseIdleConnections() }

// swapHandler lets an httptest server start (so its URL is known)
// before the powerd server that needs that URL in its peer list exists.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h := s.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not wired", http.StatusServiceUnavailable)
}

// ---------------------------------------------------------------------

// TestClusterChaosSoak is the acceptance harness for cluster mode: an
// in-process ring of four powerd instances under injected partitions,
// a full node kill mid-load, a slow peer, and clock-skewed health
// reports, asserting
//
//	(a) no lost requests — every request fired in every phase answers
//	    200, whatever the fabric is doing;
//	(b) results are bit-identical to a single-node reference server;
//	(c) no duplicated work — K concurrent identical requests through
//	    non-owner fronts cost the owner exactly one computation
//	    (singleflight holds across the ring) and the fronts zero;
//	(d) a dead or partitioned owner sheds cleanly to local compute,
//	    and once suspected is not even attempted;
//	(e) a slow peer trips its per-peer breaker and recovers through
//	    half-open once healed;
//	(f) liveness is immune to peers' clock skew;
//	(g) teardown leaks no goroutines.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	ids := []string{"n0", "n1", "n2", "n3"}
	cfg := Config{
		Workers:        4,
		QueueDepth:     32,
		RequestTimeout: 2 * time.Second,
		MaxSteps:       20_000_000,
		// Codegen promotion is warmth-dependent per node; this soak
		// asserts forwarded responses match the reference server's
		// Kernel metadata exactly, so it pins every node to the fused
		// tier. TestPromotionChaosSoak covers promotion under faults.
		CodegenAfter: -1,
	}

	// Reference: one plain single-node server with identical config.
	ref := NewServer(cfg)
	refTS := httptest.NewServer(ref.Handler())

	// The ring: httptest listeners first (URLs before servers), then the
	// powerd instances, then wire handlers in.
	net := newChaosNet()
	swaps := make([]*swapHandler, len(ids))
	tss := make([]*httptest.Server, len(ids))
	peers := make([]cluster.Peer, len(ids))
	for i, id := range ids {
		swaps[i] = &swapHandler{}
		tss[i] = httptest.NewServer(swaps[i])
		peers[i] = cluster.Peer{ID: id, URL: tss[i].URL}
		net.register(id, tss[i].URL)
	}
	nodes := make([]*Server, len(ids))
	for i, id := range ids {
		nodes[i] = NewServer(cfg)
		err := nodes[i].EnableCluster(cluster.Config{
			Self:             peers[i],
			Peers:            peers,
			GossipInterval:   25 * time.Millisecond,
			SuspectAfter:     300 * time.Millisecond,
			ForwardTimeout:   500 * time.Millisecond,
			FailureThreshold: 3,
			OpenTimeout:      200 * time.Millisecond,
			HalfOpenProbes:   1,
			Retry:            resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
			Transport:        &chaosTransport{net: net, from: id, base: &http.Transport{}},
		})
		if err != nil {
			t.Fatalf("enable cluster %s: %v", id, err)
		}
		h := nodes[i].Handler()
		swaps[i].h.Store(&h)
	}
	byID := map[string]*Server{}
	for i, id := range ids {
		byID[id] = nodes[i]
	}
	// The test's own copy of the ring, for choosing owners and fronts.
	ring := cluster.NewRing(ids, 0)
	frontNot := func(owner string) int {
		for i, id := range ids {
			if id != owner && id != "n3" { // n3 dies mid-test; never a front
				return i
			}
		}
		t.Fatal("no front available")
		return -1
	}

	client := &http.Client{}
	fire := func(ts *httptest.Server, path string, body any) (int, []byte, http.Header) {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatalf("%s: transport error (no lost requests allowed): %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("%s: body read: %v", path, err)
		}
		return resp.StatusCode, buf.Bytes(), resp.Header
	}
	bitEq := func(what string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: %v != %v (bit-identity violated)", what, a, b)
		}
	}
	alive := func(s *Server, id string) bool {
		for _, p := range s.Cluster().Stats().Peers {
			if p.ID == id {
				return p.Health.Alive
			}
		}
		return false
	}

	// --- Phase 1: forwarded requests are bit-identical to the
	// single-node reference, and are actually served by the owner.
	simSpecs := []simulateRequest{
		{Circuit: "adder", Width: 6, Cycles: 150, Seed: 11},
		{Circuit: "multiplier", Width: 4, Cycles: 120, Seed: 12},
		{Circuit: "carry-select", Width: 8, Cycles: 100, Seed: 13},
	}
	for _, spec := range simSpecs {
		owner := ring.Owner(nodes[0].keys.Simulate(spec))
		front := frontNot(owner)
		code, body, hdr := fire(tss[front], "/v1/simulate", spec)
		if code != http.StatusOK {
			t.Fatalf("simulate via %s: %d: %s", ids[front], code, body)
		}
		if got := hdr.Get(ServedByHeader); got != owner {
			t.Fatalf("simulate %v: served by %q, want owner %q", spec, got, owner)
		}
		rcode, rbody, _ := fire(refTS, "/v1/simulate", spec)
		if rcode != http.StatusOK {
			t.Fatalf("reference simulate: %d", rcode)
		}
		var got, want simulateResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rbody, &want); err != nil {
			t.Fatal(err)
		}
		bitEq("power", got.Power, want.Power)
		bitEq("switched_cap", got.SwitchedCap, want.SwitchedCap)
		if got.Cycles != want.Cycles || got.Kernel != want.Kernel {
			t.Fatalf("forwarded response diverged: %+v vs %+v", got, want)
		}
	}

	// BDD through a non-owner front, against the reference.
	bddSpec := bddRequest{Function: "majority", Vars: 10}
	{
		tt, err := service.TruthTable(bddSpec.Function, bddSpec.Vars)
		if err != nil {
			t.Fatal(err)
		}
		owner := ring.Owner(nodes[0].keys.BDD(tt, bddSpec.Vars))
		code, body, hdr := fire(tss[frontNot(owner)], "/v1/bdd", bddSpec)
		if code != http.StatusOK {
			t.Fatalf("bdd: %d: %s", code, body)
		}
		if got := hdr.Get(ServedByHeader); got != owner {
			t.Fatalf("bdd served by %q, want %q", got, owner)
		}
		_, rbody, _ := fire(refTS, "/v1/bdd", bddSpec)
		var got, want bddResponse
		_ = json.Unmarshal(body, &got)
		_ = json.Unmarshal(rbody, &want)
		if got.Nodes != want.Nodes || got.Degraded != want.Degraded {
			t.Fatalf("bdd diverged: %+v vs %+v", got, want)
		}
	}

	// Rank forwards whole, like the other ops: sent to a non-owner
	// front, it is answered by the owner of its key.
	{
		rankSpec := rankRequest{Width: 5, Cycles: 100, Seed: 21}
		owner := ring.Owner(nodes[0].keys.Rank(rankSpec))
		code, body, hdr := fire(tss[frontNot(owner)], "/v1/rank", rankSpec)
		if code != http.StatusOK {
			t.Fatalf("rank: %d: %s", code, body)
		}
		if got := hdr.Get(ServedByHeader); got != owner {
			t.Fatalf("rank served by %q, want owner %q", got, owner)
		}
		_, rbody, _ := fire(refTS, "/v1/rank", rankSpec)
		var got, want rankResponse
		_ = json.Unmarshal(body, &got)
		_ = json.Unmarshal(rbody, &want)
		if got.Best != want.Best || len(got.Ranking) != len(want.Ranking) {
			t.Fatalf("rank diverged: %+v vs %+v", got, want)
		}
		for i := range got.Ranking {
			if got.Ranking[i].Name != want.Ranking[i].Name {
				t.Fatalf("rank order diverged: %+v vs %+v", got, want)
			}
			bitEq("rank "+got.Ranking[i].Name, got.Ranking[i].Power, want.Ranking[i].Power)
		}
	}

	// --- Phase 2: cross-ring singleflight. K concurrent identical
	// requests through non-owner fronts must cost the owner exactly one
	// computation and the fronts zero.
	{
		spec := simulateRequest{Circuit: "subtractor", Width: 7, Cycles: 140, Seed: 31}
		ownerID := ring.Owner(nodes[0].keys.Simulate(spec))
		owner := byID[ownerID]
		fronts := []int{}
		for i, id := range ids {
			if id != ownerID && id != "n3" {
				fronts = append(fronts, i)
			}
		}
		before := owner.Snapshot().Memo
		frontBefore := map[int]memo.Stats{}
		for _, f := range fronts {
			frontBefore[f] = nodes[f].Snapshot().Memo
		}
		const k = 12
		var wg sync.WaitGroup
		for i := 0; i < k; i++ {
			f := fronts[i%len(fronts)]
			wg.Add(1)
			go func(f int) {
				defer wg.Done()
				code, body, _ := fire(tss[f], "/v1/simulate", spec)
				if code != http.StatusOK {
					t.Errorf("singleflight fan-in via %s: %d: %s", ids[f], code, body)
				}
			}(f)
		}
		wg.Wait()
		after := owner.Snapshot().Memo
		if missΔ := after.Misses - before.Misses; missΔ != 1 {
			t.Fatalf("owner computed %d times for %d identical requests, want exactly 1", missΔ, k)
		}
		if sharedΔ := (after.Hits + after.Collapsed) - (before.Hits + before.Collapsed); sharedΔ != k-1 {
			t.Fatalf("owner shared %d results, want %d", sharedΔ, k-1)
		}
		for _, f := range fronts {
			fm := nodes[f].Snapshot().Memo
			if fm.Misses != frontBefore[f].Misses {
				t.Fatalf("front %s computed locally during fan-in (duplicated work)", ids[f])
			}
		}
	}

	// --- Phase 3: single-link partition. The front can no longer reach
	// the owner, but third parties can: the very first request falls
	// back to local compute (never an error), the result still matches
	// the reference, and transitive gossip keeps the owner marked alive.
	{
		spec := simulateRequest{Circuit: "adder", Width: 9, Cycles: 110, Seed: 41}
		ownerID := ring.Owner(nodes[0].keys.Simulate(spec))
		front := frontNot(ownerID)
		frontSrv := nodes[front]
		net.partition(ids[front], ownerID, true)
		fb := frontSrv.fallbacks.Load()
		code, body, hdr := fire(tss[front], "/v1/simulate", spec)
		if code != http.StatusOK {
			t.Fatalf("partitioned simulate: %d: %s", code, body)
		}
		if sb := hdr.Get(ServedByHeader); sb != "" {
			t.Fatalf("partitioned request claims remote serve by %q", sb)
		}
		if frontSrv.fallbacks.Load() <= fb {
			t.Fatal("partition did not register as a fallback")
		}
		var got simulateResponse
		_ = json.Unmarshal(body, &got)
		_, rbody, _ := fire(refTS, "/v1/simulate", spec)
		var want simulateResponse
		_ = json.Unmarshal(rbody, &want)
		bitEq("partition-fallback power", got.Power, want.Power)
		// Transitive liveness: n_front hears about the owner through the
		// unblocked nodes, so the owner must still be alive in its view.
		time.Sleep(350 * time.Millisecond)
		if !alive(frontSrv, ownerID) {
			t.Fatalf("single-link partition killed %s in %s's view despite transitive gossip", ownerID, ids[front])
		}
		net.partition(ids[front], ownerID, false)
		// Heal: the per-peer breaker recovers and forwarding resumes.
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, _, hdr := fire(tss[front], "/v1/simulate", spec)
			if hdr.Get(ServedByHeader) == ownerID {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("forwarding %s->%s never resumed after heal", ids[front], ownerID)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// --- Phase 4: slow peer. Data-path latency above the forward
	// timeout trips the front's per-peer breaker (requests still answer
	// 200 from local compute); once healed, the breaker recovers
	// through half-open and forwarding resumes.
	{
		slowID := "n2"
		front := 1 // n1: its peer/n2 breaker is untouched so far
		var spec simulateRequest
		for seed := int64(50); ; seed++ {
			spec = simulateRequest{Circuit: "comparator", Width: 6, Cycles: 90, Seed: seed}
			if ring.Owner(nodes[0].keys.Simulate(spec)) == slowID {
				break
			}
		}
		net.slow(ids[front], slowID, 800*time.Millisecond)
		for i := 0; i < 3; i++ {
			code, body, _ := fire(tss[front], "/v1/simulate", spec)
			if code != http.StatusOK {
				t.Fatalf("slow-peer request %d: %d: %s (slow owner must shed, not fail)", i, code, body)
			}
		}
		brState := func() string {
			for _, p := range nodes[front].Cluster().Stats().Peers {
				if p.ID == slowID {
					return p.Breaker.State
				}
			}
			return "?"
		}
		if st := brState(); st != "open" {
			t.Fatalf("peer breaker %s->%s is %s after repeated timeouts, want open", ids[front], slowID, st)
		}
		// While open: fail-fast fallback, still 200, and quick (no 800ms
		// stall — the whole point of the breaker).
		start := time.Now()
		if code, _, _ := fire(tss[front], "/v1/simulate", spec); code != http.StatusOK {
			t.Fatal("fail-fast fallback must still answer 200")
		}
		if el := time.Since(start); el > 600*time.Millisecond {
			t.Fatalf("open-breaker request took %v, want fast local fallback", el)
		}
		net.slow(ids[front], slowID, 0)
		deadline := time.Now().Add(5 * time.Second)
		for {
			_, _, hdr := fire(tss[front], "/v1/simulate", spec)
			if hdr.Get(ServedByHeader) == slowID {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("forwarding to healed slow peer never resumed (breaker %s)", brState())
			}
			time.Sleep(30 * time.Millisecond)
		}
		var bs resilience.BreakerStats
		for _, p := range nodes[front].Cluster().Stats().Peers {
			if p.ID == slowID {
				bs = p.Breaker
			}
		}
		if bs.Opened < 1 || bs.ClosedFromHalfOpen < 1 {
			t.Fatalf("peer breaker never cycled open -> half-open -> closed: %+v", bs)
		}
	}

	// --- Phase 5: node kill mid-load. n3 is isolated (all links cut)
	// while concurrent mixed traffic runs through the other fronts; not
	// one request may be lost. Afterwards every survivor suspects n3
	// and stops even attempting forwards to it.
	{
		specs := []struct {
			path string
			body any
		}{
			{"/v1/simulate", simulateRequest{Circuit: "adder", Width: 6, Cycles: 150, Seed: 61}},
			{"/v1/simulate", simulateRequest{Circuit: "multiplier", Width: 4, Cycles: 120, Seed: 62}},
			{"/v1/rank", rankRequest{Width: 5, Cycles: 100, Seed: 63}},
			{"/v1/bdd", bddRequest{Function: "parity", Vars: 12}},
			{"/v1/simulate", simulateRequest{Circuit: "subtractor", Width: 8, Cycles: 130, Seed: 64}},
		}
		const total = 300
		const concurrency = 8
		var next, done, notOK atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= total {
						return
					}
					spec := specs[i%int64(len(specs))]
					front := int(i) % 3 // n0..n2 only
					code, _, _ := fire(tss[front], spec.path, spec.body)
					if code != http.StatusOK {
						notOK.Add(1)
					}
					done.Add(1)
				}
			}()
		}
		// Kill n3 while the load is in flight.
		for done.Load() < total/3 {
			time.Sleep(time.Millisecond)
		}
		net.kill("n3", ids)
		wg.Wait()
		if n := notOK.Load(); n != 0 {
			t.Fatalf("%d of %d requests lost during node kill, want 0", n, total)
		}
		// All survivors must suspect n3.
		deadline := time.Now().Add(5 * time.Second)
		for _, id := range ids[:3] {
			for alive(byID[id], "n3") {
				if time.Now().After(deadline) {
					t.Fatalf("%s still considers killed n3 alive", id)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		// A fresh n3-owned key via a survivor: answered locally with no
		// forward attempt at all — shedding is now free.
		var spec simulateRequest
		for seed := int64(70); ; seed++ {
			spec = simulateRequest{Circuit: "adder", Width: 5, Cycles: 80, Seed: seed}
			if ring.Owner(nodes[0].keys.Simulate(spec)) == "n3" {
				break
			}
		}
		fwd, fb := nodes[0].forwarded.Load(), nodes[0].fallbacks.Load()
		code, _, hdr := fire(tss[0], "/v1/simulate", spec)
		if code != http.StatusOK {
			t.Fatalf("n3-owned request post-kill: %d", code)
		}
		if hdr.Get(ServedByHeader) != "" {
			t.Fatal("post-kill request claims remote serve")
		}
		if nodes[0].forwarded.Load() != fwd || nodes[0].fallbacks.Load() != fb {
			t.Fatal("suspected-dead owner was still attempted")
		}
	}

	// --- Phase 6: clock-skewed health reports. Hand-crafted gossip with
	// SentAt six hours in the future must neither fail a live peer nor
	// resurrect the dead one; liveness follows sequence advance only.
	{
		stats := nodes[0].Cluster().Stats()
		seqOf := func(id string) uint64 {
			for _, p := range stats.Peers {
				if p.ID == id {
					return p.Health.Seq
				}
			}
			return 0
		}
		msg := cluster.GossipMessage{
			From: "n1",
			View: map[string]uint64{
				"n1": seqOf("n1") + 2, // advancing: stays alive
				"n3": seqOf("n3"),     // not advancing: stays dead
			},
			SentAt: time.Now().Add(6 * time.Hour).UnixNano(),
		}
		b, _ := json.Marshal(msg)
		resp, err := client.Post(tss[0].URL+"/cluster/v1/gossip", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("skewed gossip rejected: %d", resp.StatusCode)
		}
		if !alive(nodes[0], "n1") {
			t.Fatal("future-dated gossip killed a live peer")
		}
		if alive(nodes[0], "n3") {
			t.Fatal("future-dated gossip resurrected a dead peer without sequence advance")
		}
		skewSeen := false
		for _, p := range nodes[0].Cluster().Stats().Peers {
			if p.ID == "n1" && p.Health.SkewNano > int64(time.Hour) {
				skewSeen = true
			}
		}
		if !skewSeen {
			t.Fatal("observed clock skew not surfaced in stats")
		}
	}

	// --- Phase 7: drain everything and verify zero goroutine leaks.
	// Draining stops each node's gossip loop; mid-drain requests carry
	// Connection: close (covered by TestDrain* unit tests).
	for i := range nodes {
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := nodes[i].Drain(drainCtx); err != nil {
			t.Fatalf("drain %s: %v", ids[i], err)
		}
		cancel()
	}
	refCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := ref.Drain(refCtx); err != nil {
		t.Fatalf("drain reference: %v", err)
	}
	cancel()
	for _, ts := range tss {
		ts.Close()
	}
	refTS.Close()
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
			t.Fatalf("goroutine leak after cluster teardown: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
	var fwd, fb int64
	for _, n := range nodes {
		fwd += n.forwarded.Load()
		fb += n.fallbacks.Load()
	}
	t.Logf("cluster soak complete: %d forwards, %d fallbacks", fwd, fb)
}
