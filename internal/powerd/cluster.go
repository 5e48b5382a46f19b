package powerd

import (
	"context"
	"encoding/json"
	"net/http"

	"hlpower/internal/budget"
	"hlpower/internal/cluster"
	"hlpower/internal/core"
	"hlpower/internal/memo"
	"hlpower/internal/service"
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
// cluster node, mounts the peer endpoints (gossip and candidate
// evaluation) on the server's mux, and starts the gossip loop. Call it
// after NewServer and before serving traffic; Drain stops the loop.
// Single-node operation is simply never calling this.
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
	s.mux.HandleFunc("POST /cluster/v1/cand", s.handleClusterCand)
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
		// an accepted job submission: the owner now runs the job and its
		// memo cache collects the recipe prefixes.
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

// clusterCandRequest is the peer-to-peer unit of rank work: one named
// candidate under one workload.
type clusterCandRequest struct {
	Name   string `json:"name"`
	Width  int    `json:"width"`
	Cycles int    `json:"cycles"`
	Seed   int64  `json:"seed"`
}

// remoteCand is the service layer's RemoteCand hook: when a live peer
// owns a rank candidate's key, evaluate it there — landing on the
// owner's cache and singleflight so concurrent rankings across the
// whole ring collapse onto one simulation. Any failure, non-200, or
// undecodable reply returns ok=false and the candidate is evaluated
// locally.
func (s *Server) remoteCand(ctx context.Context, name string, req service.RankRequest) (service.CandEstimate, bool) {
	if s.cluster == nil || s.plan.Load() != nil {
		return service.CandEstimate{}, false
	}
	owner, remote := s.cluster.Owner(*s.keys.RankCand(name, req))
	if !remote {
		return service.CandEstimate{}, false
	}
	body, err := json.Marshal(clusterCandRequest{
		Name: name, Width: req.Width, Cycles: req.Cycles, Seed: req.Seed,
	})
	if err != nil {
		return service.CandEstimate{}, false
	}
	status, respBody, _, err := s.cluster.Forward(ctx, owner, "/cluster/v1/cand", body,
		map[string]string{ForwardedHeader: s.cluster.SelfID()})
	if err != nil || status != http.StatusOK {
		s.fallbacks.Add(1)
		return service.CandEstimate{}, false
	}
	var est service.CandEstimate
	if err := json.Unmarshal(respBody, &est); err != nil {
		s.fallbacks.Add(1)
		return service.CandEstimate{}, false
	}
	return est, true
}

// handleClusterCand serves POST /cluster/v1/cand: one rank candidate
// evaluated under this node's admission control, breaker, budget, and
// — crucially — the same cache entries (core.CandidateEstimate under
// the RankCand key) its own local rankings use, so a peer's fan-out
// and a local ranking collapse onto one evaluation.
func (s *Server) handleClusterCand(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	var req clusterCandRequest
	if err := decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	rr := service.RankRequest{Width: req.Width, Cycles: req.Cycles, Seed: req.Seed}
	v, cached, err := s.memoDo(*s.keys.RankCand(req.Name, rr), func() (any, int64, bool, error) {
		ev, err := s.execute(r.Context(), policy{retry: s.cfg.Retry}, "rank", func(b *budget.Budget) (any, error) {
			p, deg, err := s.svc.EvalCand(b, req.Name, rr)
			if err != nil {
				return nil, err
			}
			return core.CandidateEstimate{Power: p, Degraded: deg}, nil
		})
		if err != nil {
			return nil, 0, false, err
		}
		ce := ev.(core.CandidateEstimate)
		return ce, 32, !ce.Degraded, nil
	})
	if err != nil {
		s.fail(w, err)
		return
	}
	ce := v.(core.CandidateEstimate)
	s.peerServed.Add(1)
	writeJSON(w, http.StatusOK, service.CandEstimate{
		Power: ce.Power, Degraded: ce.Degraded, Cached: cached,
	})
}
