package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/resilience"
)

func fastRetry() resilience.RetryPolicy {
	return resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}
}

func TestNodeValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing self ID should be rejected")
	}
	if _, err := New(Config{Self: Peer{ID: "a", URL: "http://a"}, Peers: []Peer{{ID: "b"}}}); err == nil {
		t.Error("peer without URL should be rejected")
	}
	if _, err := New(Config{Self: Peer{ID: "a"}, Peers: []Peer{
		{ID: "b", URL: "http://b"}, {ID: "b", URL: "http://b2"},
	}}); err == nil {
		t.Error("duplicate peer ID should be rejected")
	}
	// Self listed among peers is the common static-config shape.
	n, err := New(Config{Self: Peer{ID: "a"}, Peers: []Peer{{ID: "a", URL: "http://a"}, {ID: "b", URL: "http://b"}}})
	if err != nil {
		t.Fatalf("self among peers: %v", err)
	}
	if got := len(n.Members()); got != 2 {
		t.Errorf("members = %d, want 2", got)
	}
}

// A dead owner resolves to local compute, and its recovery (observed
// via gossip) restores forwarding — the shed/recover cycle.
func TestNodeOwnerShedsDeadPeer(t *testing.T) {
	clk := resilience.NewFake(time.Unix(0, 0))
	n, err := New(Config{
		Self:         Peer{ID: "self"},
		Peers:        []Peer{{ID: "other", URL: "http://other"}},
		SuspectAfter: time.Second,
		Clock:        clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Find a key the remote peer owns.
	var k = testKey(0)
	for i := 0; n.ring.Owner(k) != "other"; i++ {
		k = testKey(i)
	}
	if _, remote := n.Owner(k); !remote {
		t.Fatal("live remote owner should be forwarded to")
	}
	clk.Advance(2 * time.Second)
	if p, remote := n.Owner(k); remote || p.ID != "self" {
		t.Fatalf("dead owner should shed to self, got (%q, %v)", p.ID, remote)
	}
	n.health.Merge("other", map[string]uint64{"other": 1}, time.Time{})
	if _, remote := n.Owner(k); !remote {
		t.Fatal("recovered owner should be forwarded to again")
	}
	// Keys self owns are never remote.
	for i := 0; n.ring.Owner(k) != "self"; i++ {
		k = testKey(i)
	}
	if _, remote := n.Owner(k); remote {
		t.Fatal("self-owned key must not resolve remote")
	}
}

func TestNodeForwardRelaysAnyStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Test") != "yes" {
			t.Error("forward dropped the caller's header")
		}
		b, _ := json.Marshal(map[string]string{"echo": r.URL.Path})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTeapot)
		w.Write(b)
	}))
	defer srv.Close()
	n, err := New(Config{
		Self:  Peer{ID: "self"},
		Peers: []Peer{{ID: "p", URL: srv.URL}},
		Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr, err := n.Forward(context.Background(), Peer{ID: "p", URL: srv.URL},
		"/v1/x", []byte(`{}`), map[string]string{"X-Test": "yes"})
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	if status != http.StatusTeapot {
		t.Errorf("status = %d: any HTTP status is a transport success", status)
	}
	if !bytes.Contains(body, []byte("/v1/x")) {
		t.Errorf("body = %s", body)
	}
	if hdr.Get("Content-Type") != "application/json" {
		t.Error("response headers should be relayed")
	}
	if st := n.Stats(); st.Peers[0].Breaker.Failures != 0 {
		t.Error("an HTTP response must not count as a breaker failure")
	}
}

func TestNodeForwardRetriesTransportErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// Hijack and slam the connection: a genuine transport error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	n, err := New(Config{
		Self:  Peer{ID: "self"},
		Peers: []Peer{{ID: "p", URL: srv.URL}},
		Retry: fastRetry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	status, _, _, err := n.Forward(context.Background(), Peer{ID: "p", URL: srv.URL}, "/v1/x", []byte(`{}`), nil)
	if err != nil || status != http.StatusOK {
		t.Fatalf("retry should have recovered: status=%d err=%v", status, err)
	}
	if got := calls.Load(); got != 2 {
		t.Errorf("calls = %d, want 2 (one failure, one retry)", got)
	}
}

func TestNodeForwardBreakerOpensAndFailsFast(t *testing.T) {
	n, err := New(Config{
		Self:             Peer{ID: "self"},
		Peers:            []Peer{{ID: "p", URL: "http://127.0.0.1:1"}}, // nothing listens
		Retry:            fastRetry(),
		FailureThreshold: 2,
		OpenTimeout:      time.Hour,
		ForwardTimeout:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	peer := Peer{ID: "p", URL: "http://127.0.0.1:1"}
	if _, _, _, err := n.Forward(context.Background(), peer, "/v1/x", nil, nil); err == nil {
		t.Fatal("forward to a dead address should fail")
	}
	// Two attempts per Forward, threshold 2: the breaker is now open and
	// the next call must fail fast without touching the network.
	_, _, _, err = n.Forward(context.Background(), peer, "/v1/x", nil, nil)
	if !errors.Is(err, resilience.ErrBreakerOpen) {
		t.Fatalf("err = %v, want breaker-open fast fail", err)
	}
	st := n.Stats()
	if st.Peers[0].Breaker.State != "open" {
		t.Errorf("breaker state = %s, want open", st.Peers[0].Breaker.State)
	}
	if st.ForwardErr == 0 {
		t.Error("transport errors should be counted")
	}
	if _, _, _, err := n.Forward(context.Background(), Peer{ID: "ghost"}, "/x", nil, nil); err == nil {
		t.Error("unknown peer should error")
	}
}

// TestNodeForwardHangUpsSparePeerBreaker: forwards that fail because
// their callers gave up are the callers' outcome, not the peer's.
// Three callers cancel their forwards to a slow but healthy peer after
// 20 ms; at FailureThreshold 3 the peer's breaker stays closed with no
// failure, and the next forward reaches the peer.
func TestNodeForwardHangUpsSparePeerBreaker(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/slow" {
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer slow.Close()
	peer := Peer{ID: "p", URL: slow.URL}
	n, err := New(Config{
		Self:             Peer{ID: "self"},
		Peers:            []Peer{peer},
		Retry:            fastRetry(),
		FailureThreshold: 3,
		OpenTimeout:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, _, _, err := n.Forward(ctx, peer, "/slow", nil, nil)
		cancel()
		if err == nil {
			t.Fatalf("forward %d outlived its caller", i)
		}
	}
	if b := n.Stats().Peers[0].Breaker; b.State != "closed" || b.Failures != 0 {
		t.Fatalf("peer breaker after 3 callers hung up: %+v, want closed with no failure", b)
	}
	if status, _, _, err := n.Forward(context.Background(), peer, "/fast", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("forward after the hang-ups: %d %v, want 200", status, err)
	}
}

// TestNodeForwardHangUpIsNoPeerOutcome: a forward whose caller hangs up
// is no evidence about the peer, for or against. Between two transport
// failures it does not reset the count, so FailureThreshold 2 opens the
// breaker; as the half-open probe it neither closes nor reopens the
// breaker, and the next forward probes the peer and closes it.
func TestNodeForwardHangUpIsNoPeerOutcome(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/fail": // a genuine transport error
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		case "/slow":
			<-r.Context().Done()
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	clk := resilience.NewFake(time.Unix(0, 0))
	peer := Peer{ID: "p", URL: srv.URL}
	n, err := New(Config{
		Self:             Peer{ID: "self"},
		Peers:            []Peer{peer},
		Retry:            resilience.RetryPolicy{MaxAttempts: 1},
		FailureThreshold: 2,
		OpenTimeout:      time.Second,
		Clock:            clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	hangUp := func() {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		if _, _, _, err := n.Forward(ctx, peer, "/slow", nil, nil); err == nil {
			t.Fatal("forward outlived its caller")
		}
	}
	breaker := func() resilience.BreakerStats { return n.Stats().Peers[0].Breaker }
	if _, _, _, err := n.Forward(context.Background(), peer, "/fail", nil, nil); err == nil {
		t.Fatal("forward over a slammed connection succeeded")
	}
	hangUp()
	if _, _, _, err := n.Forward(context.Background(), peer, "/fail", nil, nil); err == nil {
		t.Fatal("forward over a slammed connection succeeded")
	}
	if b := breaker(); b.State != "open" {
		t.Fatalf("breaker after failure, hang-up, failure: %+v, want open", b)
	}
	clk.Advance(time.Second)
	hangUp() // the half-open probe
	if b := breaker(); b.State != "half-open" || b.ClosedFromHalfOpen != 0 || b.Opened != 1 {
		t.Fatalf("breaker after its probe's caller hung up: %+v, want still half-open", b)
	}
	if status, _, _, err := n.Forward(context.Background(), peer, "/fast", nil, nil); err != nil || status != http.StatusOK {
		t.Fatalf("probe after the hang-up: %d %v, want 200", status, err)
	}
	if b := breaker(); b.State != "closed" || b.ClosedFromHalfOpen != 1 {
		t.Fatalf("breaker after a successful probe: %+v, want closed", b)
	}
}

// One synchronous gossip round end to end: node A pushes its view to
// node B's handler; B learns A's sequence and marks A alive.
func TestNodeGossipRoundTrip(t *testing.T) {
	b, err := New(Config{Self: Peer{ID: "b"}, Peers: []Peer{{ID: "a", URL: "http://unused"}}, SuspectAfter: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	a, err := New(Config{Self: Peer{ID: "a"}, Peers: []Peer{{ID: "b", URL: srv.URL}}, Retry: fastRetry()})
	if err != nil {
		t.Fatal(err)
	}
	a.GossipNow()
	a.GossipNow()
	if got := a.Stats().GossipSent; got != 2 {
		t.Errorf("sender gossip_sent = %d, want 2", got)
	}
	bs := b.Stats()
	if bs.GossipRecv != 2 {
		t.Errorf("receiver gossip_recv = %d, want 2", bs.GossipRecv)
	}
	if bs.Peers[0].Health.Seq != 2 {
		t.Errorf("b's view of a's seq = %d, want 2", bs.Peers[0].Health.Seq)
	}
	if !b.health.Alive("a") {
		t.Error("gossiping peer should be alive in receiver's view")
	}
	// Handler input validation.
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on gossip endpoint = %d, want 405", resp.StatusCode)
	}
	// A payload is one JSON value: a second one, or anything else but
	// whitespace after it, is rejected and not counted as received.
	msg := `{"from":"a","view":{"a":3}}`
	for body, want := range map[string]int{
		"not json":        http.StatusBadRequest,
		msg + " trailing": http.StatusBadRequest,
		msg + msg:         http.StatusBadRequest,
		msg + "}":         http.StatusBadRequest,
		msg + "\n":        http.StatusNoContent,
	} {
		resp, err = http.Post(srv.URL, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("payload %q = %d, want %d", body, resp.StatusCode, want)
		}
	}
	if got := b.Stats().GossipRecv; got != 3 {
		t.Errorf("receiver gossip_recv = %d after one more valid payload, want 3", got)
	}
}

func TestNodeStartStopNoLeak(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	n, err := New(Config{
		Self:           Peer{ID: "self"},
		Peers:          []Peer{{ID: "p", URL: srv.URL}},
		GossipInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	time.Sleep(30 * time.Millisecond)
	n.Stop()
	n.Stop() // idempotent
	if n.Stats().GossipSent == 0 {
		t.Error("gossip loop never fired")
	}
}
