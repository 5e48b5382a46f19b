package powerd

import (
	"context"
	"encoding/json"
	"net/http"

	"hlpower/internal/hlerr"
	"hlpower/internal/service"
)

// Batched estimation endpoints. POST /v1/batch accepts up to
// service.MaxBatchItems heterogeneous items and answers them all in one
// buffered response; POST /v1/batch/stream answers the same request as
// NDJSON, flushing each partition group's results as it completes. Both
// run the transport-agnostic service.Batch pipeline with this server's
// policy grafted in through hooks: every item through serveItem — the
// pipeline the single endpoints run, so a batch item and a single
// request share keys, cache entries and flights, each flight on a
// budget of its own — and, in cluster mode, whole-group forwarding to
// each group's ring owner with the established shed-to-local fallback. A
// batch is admitted as one request (one worker slot) and its items run
// on one shard each: its parallelism comes from group fan-out across
// the ring, not from occupying the admission queue.

// ---------------------------------------------------------------------
// POST /v1/batch — buffered batched estimation.

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()
	resp := s.svc.Batch(ctx, req, s.batchHooks(r, nil, nil))
	s.batches.Add(1)
	s.batchItems.Add(int64(len(req.Items)))
	s.served.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

// batchStreamSummary is the trailing NDJSON line of a streamed batch:
// everything BatchResponse carries except the items, which already went
// out line by line.
type batchStreamSummary struct {
	Done      bool  `json:"done"`
	Groups    int   `json:"groups"`
	Failed    int   `json:"failed"`
	Cached    int   `json:"cached"`
	StepsUsed int64 `json:"steps_used"`
}

// ---------------------------------------------------------------------
// POST /v1/batch/stream — NDJSON streaming batched estimation: one
// BatchItemResult per line (rejected items first, then each group's
// results in submission order), flushed at every group boundary, closed
// by a summary line.

func (s *Server) handleBatchStream(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	req, ok := s.decodeBatchRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.BatchTimeout)
	defer cancel()
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	emit := func(res service.BatchItemResult) { _ = enc.Encode(res) }
	groupDone := func(service.BatchGroup) { flush() }
	resp := s.svc.Batch(ctx, req, s.batchHooks(r, emit, groupDone))
	_ = enc.Encode(batchStreamSummary{
		Done: true, Groups: resp.Groups, Failed: resp.Failed,
		Cached: resp.Cached, StepsUsed: resp.StepsUsed,
	})
	flush()
	s.batches.Add(1)
	s.batchItems.Add(int64(len(req.Items)))
	s.served.Add(1)
}

// decodeBatchRequest decodes and bounds a batch body. Batches are
// bounded by item count, so the byte cap is generous next to the 1 MiB
// single-request cap.
func (s *Server) decodeBatchRequest(w http.ResponseWriter, r *http.Request) (service.BatchRequest, bool) {
	var req service.BatchRequest
	if err := decodeLimit(r, &req, 64<<20); err != nil {
		s.fail(w, err)
		return req, false
	}
	if len(req.Items) == 0 {
		s.fail(w, hlerr.Errorf("powerd.batch", "empty batch"))
		return req, false
	}
	if len(req.Items) > service.MaxBatchItems {
		s.fail(w, hlerr.Errorf("powerd.batch", "batch of %d items exceeds limit %d", len(req.Items), service.MaxBatchItems))
		return req, false
	}
	return req, true
}

// batchHooks assembles this server's policy hooks for one batch run.
func (s *Server) batchHooks(r *http.Request, emit func(service.BatchItemResult), groupDone func(service.BatchGroup)) service.BatchHooks {
	h := service.BatchHooks{
		Steps:     s.cfg.BatchSteps,
		Item:      s.runBatchItem,
		Emit:      emit,
		GroupDone: groupDone,
	}
	// Whole groups route to their ring owners under exactly the
	// conditions tryForward uses: never a second hop, never while chaos
	// is armed.
	if s.cluster != nil && r.Header.Get(ForwardedHeader) == "" {
		h.Group = s.batchForward
	}
	return h
}

// runBatchItem is the batch pipeline's Item hook: the item runs through
// serveItem over its group's runner.
func (s *Server) runBatchItem(ctx context.Context, runner *service.GroupRunner, it service.BatchItem) (service.BatchItemResult, int64, error) {
	return s.serveItem(ctx, it, s.itemKey(it, runner.TruthTable()), runner, nil)
}

// batchForward is the batch pipeline's Group hook: when a live peer
// owns a group's routing key, the whole group is forwarded to it as a
// sub-batch, landing every item on the owner's compiled artifacts,
// cache entries, and singleflight. Any failure — suspected owner, open
// peer breaker, transport error, an overloaded or draining owner —
// returns ok=false and the group computes locally, exactly the
// shed-to-local contract of tryForward.
func (s *Server) batchForward(ctx context.Context, g service.BatchGroup, items []service.BatchItem) ([]service.BatchItemResult, bool) {
	if s.cluster == nil || s.plan.Load() != nil {
		return nil, false
	}
	owner, remote := s.cluster.Owner(s.keys.Group(g))
	if !remote {
		return nil, false
	}
	body, err := json.Marshal(service.BatchRequest{Items: items})
	if err != nil {
		return nil, false
	}
	status, respBody, _, err := s.cluster.Forward(ctx, owner, "/v1/batch", body,
		map[string]string{ForwardedHeader: s.cluster.SelfID()})
	if err != nil || status != http.StatusOK {
		s.fallbacks.Add(1)
		return nil, false
	}
	var resp service.BatchResponse
	if err := json.Unmarshal(respBody, &resp); err != nil || len(resp.Items) != len(items) {
		s.fallbacks.Add(1)
		return nil, false
	}
	s.forwarded.Add(1)
	return resp.Items, true
}
