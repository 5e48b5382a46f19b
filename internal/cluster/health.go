package cluster

import (
	"sync"
	"time"

	"hlpower/internal/resilience"
)

// DefaultSuspectAfter is how long a peer's heartbeat sequence may fail
// to advance (by the local clock) before the peer is suspected dead.
const DefaultSuspectAfter = 2 * time.Second

// peerHealth is everything locally known about one peer's liveness.
type peerHealth struct {
	seq         uint64    // highest heartbeat sequence observed
	lastAdvance time.Time // local receipt time of the last new evidence
	// The send time the peer put on its last gossip to this node, and
	// the local time that gossip arrived — observability only.
	sentAt, sentRecv time.Time
}

// Health is the node-local liveness view. Every judgement is made from
// evidence timestamped by the local clock at the moment it arrived: a
// peer is alive while its heartbeat sequence keeps advancing (or direct
// transport successes keep landing) within SuspectAfter. The SentAt
// timestamps peers put in their gossip are recorded so skew is visible
// in stats, but they never feed the liveness decision — a peer whose
// clock runs hours fast or slow is judged exactly like one whose clock
// is correct.
type Health struct {
	suspectAfter time.Duration
	clock        resilience.Clock

	mu    sync.Mutex
	seq   uint64 // this node's own heartbeat sequence
	peers map[string]*peerHealth
}

// NewHealth builds a liveness view over the given peer IDs. Peers start
// with a full grace window: a node that just joined does not declare
// the world dead before the first gossip round lands.
func NewHealth(peerIDs []string, suspectAfter time.Duration, clock resilience.Clock) *Health {
	if suspectAfter <= 0 {
		suspectAfter = DefaultSuspectAfter
	}
	if clock == nil {
		clock = resilience.Wall{}
	}
	h := &Health{
		suspectAfter: suspectAfter,
		clock:        clock,
		peers:        make(map[string]*peerHealth, len(peerIDs)),
	}
	now := clock.Now()
	for _, id := range peerIDs {
		h.peers[id] = &peerHealth{lastAdvance: now}
	}
	return h
}

// Bump advances this node's own heartbeat sequence and returns it; the
// gossip loop calls it once per round.
func (h *Health) Bump() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.seq++
	return h.seq
}

// View returns the sequence numbers this node would gossip: its own
// plus the highest it has observed for every peer, so liveness evidence
// propagates transitively through nodes that can still talk to both
// sides of a partial partition.
func (h *Health) View(selfID string) map[string]uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	view := make(map[string]uint64, len(h.peers)+1)
	view[selfID] = h.seq
	for id, p := range h.peers {
		view[id] = p.seq
	}
	return view
}

// Merge folds in a gossip view received from peer from. Only a sequence
// strictly greater than what is already known counts as fresh evidence,
// and the receipt time is read from the local clock. sentAt is the
// sender's own clock, so it is kept for the sender alone, beside the
// local receipt time, purely so Snapshot can report that peer's
// observed skew.
func (h *Health) Merge(from string, view map[string]uint64, sentAt time.Time) {
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, seq := range view {
		p, ok := h.peers[id]
		if !ok {
			continue // not a configured peer (could be self, or unknown)
		}
		if seq > p.seq {
			p.seq = seq
			p.lastAdvance = now
		}
	}
	if p, ok := h.peers[from]; ok && !sentAt.IsZero() {
		p.sentAt, p.sentRecv = sentAt, now
	}
}

// Observe records direct first-hand evidence that a peer is alive — a
// transport-level success on the data path — which keeps a peer usable
// even if gossip traffic specifically is being dropped.
func (h *Health) Observe(id string) {
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	if p, ok := h.peers[id]; ok {
		p.lastAdvance = now
	}
}

// Alive reports whether the peer has shown evidence of life within the
// suspect window. Unknown IDs are dead.
func (h *Health) Alive(id string) bool {
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	p, ok := h.peers[id]
	return ok && now.Sub(p.lastAdvance) <= h.suspectAfter
}

// PeerHealth is one peer's liveness as reported by Snapshot.
type PeerHealth struct {
	ID    string `json:"id"`
	Alive bool   `json:"alive"`
	Seq   uint64 `json:"seq"`
	// SkewNano is (peer-reported send time − local receipt time) of the
	// last gossip received, in nanoseconds. Diagnostic only: large skew
	// here proves the liveness logic is working despite bad peer clocks,
	// not that the peer is unhealthy.
	SkewNano int64 `json:"skew_nano,omitempty"`
}

// Snapshot reports every peer's liveness, keyed by peer ID.
func (h *Health) Snapshot() map[string]PeerHealth {
	now := h.clock.Now()
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]PeerHealth, len(h.peers))
	for id, p := range h.peers {
		ph := PeerHealth{
			ID:    id,
			Alive: now.Sub(p.lastAdvance) <= h.suspectAfter,
			Seq:   p.seq,
		}
		if !p.sentAt.IsZero() {
			ph.SkewNano = p.sentAt.Sub(p.sentRecv).Nanoseconds()
		}
		out[id] = ph
	}
	return out
}
