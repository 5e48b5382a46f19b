package powerd

import (
	"errors"
	"net/http"

	"hlpower/internal/hlerr"
	"hlpower/internal/jobs"
	"hlpower/internal/memo"
	"hlpower/internal/service"
)

// handleOptimize serves POST /v1/optimize: submit (or idempotently
// re-attach to) a recipe-search job. The response is 202 with the job's
// status; clients poll GET /v1/jobs/{id}. In cluster mode the request
// routes to the ring owner of the job's content key, so the same job
// submitted anywhere lands on one node and runs there once.
func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	var req service.OptimizeRequest
	if err := decode(r, &req); err != nil {
		s.fail(w, err)
		return
	}
	req.Normalize()
	if err := req.Validate(); err != nil {
		s.fail(w, err)
		return
	}
	p := jobs.Params{
		Spec:          req.Spec(),
		Token:         req.Token,
		Seed:          req.Seed,
		Candidates:    req.Candidates,
		EvalCycles:    req.EvalCycles,
		VerifyCycles:  req.VerifyCycles,
		MaxRecipeLen:  req.MaxRecipeLen,
		EvalSteps:     s.cfg.JobEvalSteps,
		CheckInterval: s.cfg.CheckInterval,
		MaxTotalSteps: s.cfg.JobMaxTotalSteps,
	}
	if s.tryForward(w, r, "/v1/optimize", p.Key(), req) {
		return
	}
	st, err := s.jobsMgr.Submit(p)
	if err != nil {
		s.failJob(w, err)
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobGet serves GET /v1/jobs/{id}. A job unknown locally may
// live on the ring owner of its key (the id is the key's hex form), so
// unresolved lookups take one forwarding hop before answering 404.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.jobsMgr.Get(id); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	if s.forwardJobOp(w, r, http.MethodGet, id) {
		return
	}
	s.reject(w, http.StatusNotFound, "unknown job "+id, 0)
}

// handleJobCancel serves DELETE /v1/jobs/{id}: cooperative
// cancellation through the job's budget context. The canceled status
// is returned; canceling a finished job is a no-op that reports its
// terminal state.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if st, ok := s.jobsMgr.Cancel(id); ok {
		writeJSON(w, http.StatusOK, st)
		return
	}
	if s.forwardJobOp(w, r, http.MethodDelete, id) {
		return
	}
	s.reject(w, http.StatusNotFound, "unknown job "+id, 0)
}

// forwardJobOp routes a GET/DELETE job operation to the ring owner of
// the job id (which is the job's content key in hex). Same contract as
// tryForward: true only when it wrote the response; loops are broken
// by the forwarded-hop header, and any owner trouble falls back to the
// caller's local answer (a 404).
func (s *Server) forwardJobOp(w http.ResponseWriter, r *http.Request, method, id string) bool {
	if s.cluster == nil || r.Header.Get(ForwardedHeader) != "" {
		return false
	}
	k, ok := memo.ParseKey(id)
	if !ok {
		return false
	}
	owner, remote := s.cluster.Owner(k)
	if !remote {
		return false
	}
	status, body, hdr, err := s.cluster.ForwardMethod(r.Context(), owner, method, "/v1/jobs/"+id, nil,
		map[string]string{ForwardedHeader: s.cluster.SelfID()})
	if err != nil || status < 200 || status >= 500 {
		s.fallbacks.Add(1)
		return false
	}
	s.forwarded.Add(1)
	relay(w, status, body, hdr, owner.ID)
	return true
}

// failJob maps job submission errors onto HTTP statuses: a full job
// queue sheds with 429, a draining engine answers 503, and everything
// else goes through the standard error mapping (validation failures
// are typed input errors, so 400).
func (s *Server) failJob(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		s.shed.Add(1)
		s.reject(w, http.StatusTooManyRequests, err.Error(), s.retryAfterHint())
	case errors.Is(err, jobs.ErrDraining):
		s.rejectDraining(w)
	case hlerr.IsInput(err):
		s.reject(w, http.StatusBadRequest, err.Error(), 0)
	default:
		s.reject(w, http.StatusInternalServerError, err.Error(), 0)
	}
}
