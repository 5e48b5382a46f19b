package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hlpower/internal/memo"
	"hlpower/internal/resilience"
)

// Peer identifies one cluster member: a stable ID (its ring identity)
// and the base URL its HTTP API listens on.
type Peer struct {
	ID  string
	URL string
}

// Transport-level limits. Forwarded requests are small JSON bodies;
// anything larger than the serving layer's own request cap is a bug.
const maxPeerBody = 1 << 20

// Config parameterizes one cluster node.
type Config struct {
	Self  Peer   // this node; its ID joins the ring
	Peers []Peer // the other members (self tolerated and ignored)

	VNodes         int           // virtual nodes per member (0 = DefaultVNodes)
	GossipInterval time.Duration // heartbeat period (0 = 500ms)
	SuspectAfter   time.Duration // liveness window (0 = DefaultSuspectAfter)
	ForwardTimeout time.Duration // per-attempt forward deadline (0 = 2s)

	// Per-peer breaker tuning; zero values take resilience defaults.
	FailureThreshold int
	OpenTimeout      time.Duration
	HalfOpenProbes   int

	// Retry governs forward attempts; transport errors only — any HTTP
	// response, whatever its status, is a transport success.
	Retry resilience.RetryPolicy

	Clock resilience.Clock // nil = wall clock
	// Transport, when set, replaces the default RoundTripper for both
	// forwards and gossip — the chaos harness injects partitions and
	// latency here.
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = DefaultSuspectAfter
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 2 * time.Second
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry = resilience.RetryPolicy{
			MaxAttempts: 2, BaseDelay: 5 * time.Millisecond,
			MaxDelay: 25 * time.Millisecond, Multiplier: 2,
		}
	}
	if c.Clock == nil {
		c.Clock = resilience.Wall{}
	}
	return c
}

// Node is one powerd process's membership in the ring: it knows who
// owns each key, forwards work to live owners through per-peer circuit
// breakers, and runs the gossip loop that keeps the liveness view
// current. It never computes anything itself — the serving layer asks
// it where a key lives and falls back to local compute whenever the
// answer is "nowhere reachable".
type Node struct {
	cfg    Config
	ring   *Ring
	health *Health
	peers  map[string]Peer // excluding self
	brks   map[string]*resilience.Breaker
	client *http.Client

	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once

	gossipSent atomic.Int64 // gossip POSTs that reached a peer
	gossipFail atomic.Int64 // gossip POSTs that did not
	gossipRecv atomic.Int64 // gossip messages accepted by Handler
	forwards   atomic.Int64 // peer calls that returned an HTTP response
	forwardErr atomic.Int64 // peer calls that failed at the transport
}

// New validates the membership and builds the node. The ring spans
// self plus every distinct peer; a configuration listing self among
// the peers is tolerated (it is how static configs are usually
// written — every node gets the same list).
func New(cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	if cfg.Self.ID == "" {
		return nil, errors.New("cluster: self ID is required")
	}
	peers := make(map[string]Peer, len(cfg.Peers))
	ids := []string{cfg.Self.ID}
	for _, p := range cfg.Peers {
		if p.ID == "" || p.ID == cfg.Self.ID {
			continue
		}
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.ID)
		}
		if _, dup := peers[p.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate peer ID %q", p.ID)
		}
		peers[p.ID] = p
		ids = append(ids, p.ID)
	}
	n := &Node{
		cfg:    cfg,
		ring:   NewRing(ids, cfg.VNodes),
		peers:  peers,
		brks:   make(map[string]*resilience.Breaker, len(peers)),
		stop:   make(chan struct{}),
		client: &http.Client{Transport: cfg.Transport},
	}
	n.health = NewHealth(ids[1:], cfg.SuspectAfter, cfg.Clock)
	for id := range peers {
		n.brks[id] = resilience.NewBreaker(resilience.BreakerConfig{
			Name:             "peer/" + id,
			FailureThreshold: cfg.FailureThreshold,
			OpenTimeout:      cfg.OpenTimeout,
			HalfOpenProbes:   cfg.HalfOpenProbes,
			Clock:            cfg.Clock,
		})
	}
	return n, nil
}

// SelfID returns this node's ring identity.
func (n *Node) SelfID() string { return n.cfg.Self.ID }

// Members returns every ring member ID, sorted.
func (n *Node) Members() []string { return n.ring.Members() }

// Owner resolves the key's owner. remote is true only when the owner
// is a different node that is currently believed alive — the one case
// where forwarding is worth attempting. Dead or suspected owners
// resolve remote=false, which the serving layer reads as "compute
// locally": shedding, not failing.
func (n *Node) Owner(k memo.Key) (Peer, bool) {
	id := n.ring.Owner(k)
	if id == "" || id == n.cfg.Self.ID {
		return n.cfg.Self, false
	}
	if !n.health.Alive(id) {
		return n.cfg.Self, false
	}
	return n.peers[id], true
}

// Forward POSTs a JSON body to path on the peer through its circuit
// breaker and the retry policy. Transport errors (dial, reset,
// deadline) are retried and trip the breaker, unless the caller's own
// context has ended: a caller that hung up or ran out of time stops
// the retries, and its attempt counts neither for nor against the
// peer. An HTTP response of any status is a transport success returned
// to the caller, who decides what the status means. The response body
// is fully read so the connection is reusable.
func (n *Node) Forward(ctx context.Context, peer Peer, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	return n.ForwardMethod(ctx, peer, http.MethodPost, path, body, hdr)
}

// ForwardMethod is Forward for an arbitrary HTTP method — GET and
// DELETE callers (job status and cancellation routing) pass a nil
// body. Same breaker, retry, and liveness bookkeeping as Forward.
func (n *Node) ForwardMethod(ctx context.Context, peer Peer, method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	br := n.brks[peer.ID]
	if br == nil {
		return 0, nil, nil, fmt.Errorf("cluster: unknown peer %q", peer.ID)
	}
	var (
		status   int
		respBody []byte
		respHdr  http.Header
	)
	err := n.cfg.Retry.Do(ctx, n.cfg.Clock, func(int) error {
		if err := br.Allow(); err != nil {
			return resilience.Permanent(err) // open breaker: fail fast, no retry
		}
		s, b, h, err := n.do(ctx, peer, method, path, body, hdr)
		if err != nil && ctx.Err() != nil {
			// The caller hung up or ran out of time: that says nothing
			// about the peer, so the attempt is neither a success nor a
			// failure (a half-open probe's slot goes to the next
			// caller), and no retry brings the context back.
			br.Abandon()
			err = resilience.Permanent(err)
		} else {
			br.Record(err)
		}
		if err != nil {
			n.forwardErr.Add(1)
			return err
		}
		n.forwards.Add(1)
		n.health.Observe(peer.ID) // first-hand liveness evidence
		status, respBody, respHdr = s, b, h
		return nil
	})
	if err != nil {
		return 0, nil, nil, err
	}
	return status, respBody, respHdr, nil
}

// do performs one forward attempt under the per-attempt deadline.
func (n *Node) do(ctx context.Context, peer Peer, method, path string, body []byte, hdr map[string]string) (int, []byte, http.Header, error) {
	actx, cancel := context.WithTimeout(ctx, n.cfg.ForwardTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, peer.URL+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, b, resp.Header, nil
}

// GossipMessage is one heartbeat exchange. View carries the highest
// sequence the sender has observed for every member (its own
// included). SentAt is the sender's clock at send time; receivers
// record it for skew diagnostics and must never use it for liveness.
type GossipMessage struct {
	From   string            `json:"from"`
	View   map[string]uint64 `json:"view"`
	SentAt int64             `json:"sent_at_unix_nano"`
}

// Start launches the gossip loop. Safe to skip entirely (a node that
// never starts gossiping judges peers by the initial grace window and
// data-path evidence only).
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
}

// Stop terminates the gossip loop and waits for it. Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.client.CloseIdleConnections()
}

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.GossipInterval)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.GossipNow()
		}
	}
}

// GossipNow runs one synchronous gossip round: bump the local
// heartbeat and push the merged view to every peer, dead or alive —
// a suspected peer that is actually fine becomes live again the
// moment its next heartbeat lands, and pushing to it helps it
// recover its own view faster. Exported so tests drive rounds
// deterministically without the ticker.
func (n *Node) GossipNow() {
	n.health.Bump()
	msg := GossipMessage{
		From:   n.cfg.Self.ID,
		View:   n.health.View(n.cfg.Self.ID),
		SentAt: n.cfg.Clock.Now().UnixNano(),
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.GossipInterval)
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range n.peers {
		wg.Add(1)
		go func(p Peer) {
			defer wg.Done()
			// Gossip deliberately bypasses the data-path breakers: probe
			// slots there are scarce and heartbeats must keep flowing to
			// detect recovery.
			s, _, _, err := n.do(ctx, p, http.MethodPost, "/cluster/v1/gossip", body, nil)
			if err != nil || s != http.StatusNoContent {
				n.gossipFail.Add(1)
				return
			}
			n.gossipSent.Add(1)
			n.health.Observe(p.ID)
		}(p)
	}
	wg.Wait()
}

// Handler serves the gossip endpoint (POST /cluster/v1/gossip). The
// serving layer mounts it on the same mux as the public API.
func (n *Node) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		var msg GossipMessage
		dec := json.NewDecoder(io.LimitReader(r.Body, maxPeerBody))
		if err := dec.Decode(&msg); err != nil {
			http.Error(w, "bad gossip payload", http.StatusBadRequest)
			return
		}
		// A payload is one message: anything but whitespace after it
		// is rejected too.
		if _, err := dec.Token(); err != io.EOF {
			http.Error(w, "bad gossip payload", http.StatusBadRequest)
			return
		}
		n.gossipRecv.Add(1)
		// The sender reporting at all is first-hand evidence of life; its
		// claimed SentAt is recorded for skew stats but never judged.
		n.health.Merge(msg.From, msg.View, time.Unix(0, msg.SentAt))
		n.health.Observe(msg.From)
		w.WriteHeader(http.StatusNoContent)
	})
}

// PeerStats is one peer's row in Stats.
type PeerStats struct {
	ID      string                  `json:"id"`
	URL     string                  `json:"url"`
	Health  PeerHealth              `json:"health"`
	Breaker resilience.BreakerStats `json:"breaker"`
}

// Stats is the cluster-membership snapshot surfaced through the
// serving layer's /v1/stats.
type Stats struct {
	Self       string      `json:"self"`
	Members    []string    `json:"members"`
	GossipSent int64       `json:"gossip_sent"`
	GossipFail int64       `json:"gossip_fail"`
	GossipRecv int64       `json:"gossip_recv"`
	Forwards   int64       `json:"forwards"`
	ForwardErr int64       `json:"forward_errors"`
	Peers      []PeerStats `json:"peers"`
}

// Stats snapshots membership, liveness, gossip counters, and per-peer
// breaker positions.
func (n *Node) Stats() Stats {
	hs := n.health.Snapshot()
	s := Stats{
		Self:       n.cfg.Self.ID,
		Members:    n.ring.Members(),
		GossipSent: n.gossipSent.Load(),
		GossipFail: n.gossipFail.Load(),
		GossipRecv: n.gossipRecv.Load(),
		Forwards:   n.forwards.Load(),
		ForwardErr: n.forwardErr.Load(),
	}
	for id, p := range n.peers {
		s.Peers = append(s.Peers, PeerStats{
			ID: id, URL: p.URL, Health: hs[id], Breaker: n.brks[id].Stats(),
		})
	}
	sort.Slice(s.Peers, func(i, j int) bool { return s.Peers[i].ID < s.Peers[j].ID })
	return s
}
