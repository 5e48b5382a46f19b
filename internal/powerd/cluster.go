package powerd

import (
	"encoding/json"
	"net/http"

	"hlpower/internal/cluster"
	"hlpower/internal/memo"
)

// Forwarding headers. A request carrying ForwardedHeader has already
// made one hop: the receiver computes locally no matter who owns the
// key, so routing disagreements during membership churn degenerate to
// one extra hop instead of a forwarding loop. ServedByHeader tells the
// client (and the chaos soak) which node actually answered.
const (
	ForwardedHeader = "X-Powerd-Forwarded"
	ServedByHeader  = "X-Powerd-Served-By"
)

// EnableCluster joins this server to a powerd ring: it builds the
// cluster node, mounts the gossip endpoint on the server's mux, and
// starts the gossip loop. Call it after NewServer and before serving
// traffic; Drain stops the loop. Single-node operation is simply never
// calling this.
func (s *Server) EnableCluster(ccfg cluster.Config) error {
	if ccfg.Clock == nil {
		ccfg.Clock = s.cfg.Clock
	}
	n, err := cluster.New(ccfg)
	if err != nil {
		return err
	}
	s.cluster = n
	s.mux.Handle("POST /cluster/v1/gossip", n.Handler())
	n.Start()
	return nil
}

// Cluster exposes the ring membership (nil in single-node mode) for
// tests and operators.
func (s *Server) Cluster() *cluster.Node { return s.cluster }

// tryForward routes a whole request to the key owner's public endpoint
// when a live peer owns it. It reports true only when it wrote the
// response; every failure path returns false and the caller computes
// locally — ring routing is an optimization for cache locality and
// request collapsing, never a correctness dependency.
//
// A forward is skipped entirely (not just shed) when:
//   - single-node mode, or this node owns the key, or the owner is
//     suspected dead;
//   - the request already made a hop (loop prevention);
//   - a fault plan is armed — chaos must exercise this node's own
//     estimation path, not be absorbed by a healthy peer.
func (s *Server) tryForward(w http.ResponseWriter, r *http.Request, path string, k memo.Key, req any) bool {
	if s.cluster == nil || r.Header.Get(ForwardedHeader) != "" || s.plan.Load() != nil {
		return false
	}
	owner, remote := s.cluster.Owner(k)
	if !remote {
		return false
	}
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	status, respBody, respHdr, err := s.cluster.Forward(r.Context(), owner, path, body,
		map[string]string{ForwardedHeader: s.cluster.SelfID()})
	if err != nil {
		// Transport failure or open breaker: shed to local compute.
		s.fallbacks.Add(1)
		return false
	}
	switch {
	case status == http.StatusOK, status == http.StatusAccepted:
		// The owner's answer is bit-identical to what local compute would
		// produce (same engines, same keys), so relay it verbatim. 202 is
		// an accepted job submission: the owner now runs the job.
		s.forwarded.Add(1)
		s.served.Add(1)
		relay(w, status, respBody, respHdr, owner.ID)
		return true
	case status == http.StatusBadRequest:
		// The owner judged the request malformed; this node would too.
		// Relaying keeps input errors deterministic instead of depending
		// on which node happened to validate them.
		s.forwarded.Add(1)
		s.rejected.Add(1)
		relay(w, status, respBody, respHdr, owner.ID)
		return true
	default:
		// 429, 503, 500...: the owner is alive but unable; its capacity
		// problem must not become this client's error.
		s.fallbacks.Add(1)
		return false
	}
}

// relay writes a peer's response through to the client.
func relay(w http.ResponseWriter, status int, body []byte, hdr http.Header, ownerID string) {
	if ct := hdr.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := hdr.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(ServedByHeader, ownerID)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}
