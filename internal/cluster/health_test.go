package cluster

import (
	"testing"
	"time"

	"hlpower/internal/resilience"
)

func newTestHealth(ids ...string) (*Health, *resilience.Fake) {
	clk := resilience.NewFake(time.Unix(1000, 0))
	return NewHealth(ids, time.Second, clk), clk
}

func TestHealthGracePeriodThenSuspect(t *testing.T) {
	h, clk := newTestHealth("p1")
	if !h.Alive("p1") {
		t.Fatal("peer should start inside the grace window")
	}
	clk.Advance(1100 * time.Millisecond)
	if h.Alive("p1") {
		t.Fatal("peer with no evidence past SuspectAfter should be suspected")
	}
}

func TestHealthSeqAdvanceKeepsAlive(t *testing.T) {
	h, clk := newTestHealth("p1")
	for i := 1; i <= 5; i++ {
		clk.Advance(900 * time.Millisecond)
		h.Merge("p1", map[string]uint64{"p1": uint64(i)}, time.Time{})
		if !h.Alive("p1") {
			t.Fatalf("round %d: advancing seq should keep peer alive", i)
		}
	}
	// A stale or merely repeated sequence is not evidence.
	clk.Advance(900 * time.Millisecond)
	h.Merge("p1", map[string]uint64{"p1": 5}, time.Time{})
	clk.Advance(200 * time.Millisecond)
	if h.Alive("p1") {
		t.Fatal("non-advancing seq must not refresh liveness")
	}
}

// The invariant the chaos soak leans on: liveness ignores the sender's
// own clock entirely. A peer whose SentAt is hours in the past or
// future is judged purely by whether its sequence advances.
func TestHealthSkewImmune(t *testing.T) {
	h, clk := newTestHealth("past", "future")
	clk.Advance(900 * time.Millisecond)
	farPast := clk.Now().Add(-6 * time.Hour)
	farFuture := clk.Now().Add(+6 * time.Hour)
	h.Merge("past", map[string]uint64{"past": 1}, farPast)
	h.Merge("future", map[string]uint64{"future": 1}, farFuture)
	if !h.Alive("past") || !h.Alive("future") {
		t.Fatal("skewed SentAt must not affect liveness of an advancing peer")
	}
	// And the skew is visible in the snapshot, which is its only use.
	snap := h.Snapshot()
	if snap["past"].SkewNano >= 0 {
		t.Errorf("past skew = %d, want negative", snap["past"].SkewNano)
	}
	if snap["future"].SkewNano <= 0 {
		t.Errorf("future skew = %d, want positive", snap["future"].SkewNano)
	}
	// Silence without seq advance still kills a skewed peer on schedule.
	clk.Advance(2 * time.Second)
	h.Merge("future", map[string]uint64{"future": 1}, clk.Now().Add(6*time.Hour))
	if h.Alive("future") {
		t.Fatal("repeating seq with a fresh future SentAt must not resurrect a peer")
	}
}

// TestHealthSkewIsPerSender: a gossip's SentAt is the sender's clock,
// so it sets the sender's skew alone — measured against the local time
// that gossip arrived — never that of the other peers its view names,
// and neither later gossip naming the sender nor data-path evidence
// (Observe) moves it.
func TestHealthSkewIsPerSender(t *testing.T) {
	h, clk := newTestHealth("n1", "n2", "n3")
	clk.Advance(100 * time.Millisecond)
	h.Merge("n1", map[string]uint64{"n1": 1, "n2": 1, "n3": 1}, clk.Now().Add(6*time.Hour))
	clk.Advance(25 * time.Millisecond)
	h.Merge("n2", map[string]uint64{"n1": 2, "n2": 2, "n3": 1}, clk.Now().Add(-time.Millisecond))
	h.Observe("n1")
	clk.Advance(25 * time.Millisecond)
	snap := h.Snapshot()
	want := map[string]int64{"n1": (6 * time.Hour).Nanoseconds(), "n2": -time.Millisecond.Nanoseconds(), "n3": 0}
	for id, skew := range want {
		if got := snap[id].SkewNano; got != skew {
			t.Errorf("%s skew = %d, want %d", id, got, skew)
		}
	}
}

func TestHealthObserveIsEvidence(t *testing.T) {
	h, clk := newTestHealth("p1")
	clk.Advance(1500 * time.Millisecond)
	if h.Alive("p1") {
		t.Fatal("setup: peer should be suspected")
	}
	h.Observe("p1")
	if !h.Alive("p1") {
		t.Fatal("direct transport success should revive the peer")
	}
}

func TestHealthViewCarriesSelfAndPeers(t *testing.T) {
	h, _ := newTestHealth("p1", "p2")
	h.Bump()
	h.Bump()
	h.Merge("p1", map[string]uint64{"p1": 7}, time.Time{})
	v := h.View("self")
	if v["self"] != 2 || v["p1"] != 7 || v["p2"] != 0 {
		t.Errorf("view = %v, want self:2 p1:7 p2:0", v)
	}
}

func TestHealthUnknownPeer(t *testing.T) {
	h, _ := newTestHealth("p1")
	h.Merge("stranger", map[string]uint64{"stranger": 99}, time.Time{})
	if h.Alive("stranger") {
		t.Fatal("unknown IDs must never be alive")
	}
	if _, ok := h.Snapshot()["stranger"]; ok {
		t.Fatal("merge must not create entries for unconfigured peers")
	}
}
