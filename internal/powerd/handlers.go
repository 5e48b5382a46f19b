package powerd

import (
	"context"
	"fmt"
	"net/http"

	"hlpower/internal/budget"
	"hlpower/internal/memo"
	"hlpower/internal/service"
)

// The wire types are owned by the transport-agnostic service layer;
// the aliases keep this package's handlers and tests reading naturally.
type (
	simulateRequest  = service.SimulateRequest
	simulateResponse = service.SimulateResponse
	rankRequest      = service.RankRequest
	rankedEntry      = service.RankedEntry
	rankResponse     = service.RankResponse
	bddRequest       = service.BDDRequest
	bddResponse      = service.BDDResponse
	predictRequest   = service.PredictRequest
	predictResponse  = service.PredictResponse
)

// The item pipeline. Every estimation a client asks for, whether as a
// single request (POST /v1/simulate, /v1/rank, /v1/bdd, /v1/predict) or
// as one item of a batch, runs through serveItem: the memo lookup under
// the item's content key, and on a miss one flight that computes the
// item once through service.GroupRunner.RunItem. A single request is a
// batch of one, so an entry stored by either path replays on the other,
// and a request on either path can join the other's flight.

// handleSingle serves one single endpoint as a batch of one: decode the
// op's request and validate it with service.Validate, the check batch
// items get, before it has a key, so an invalid request answers 400
// without touching the estimate cache or a ring peer. A valid one is
// forwarded whole to its key's owner when a live peer owns it (rank
// included), or run through serveItem, and answered with the payload
// alone.
func (s *Server) handleSingle(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		release, ok := s.admit(w, r)
		if !ok {
			return
		}
		defer release()
		it, req, err := decodeSingle(r, op)
		if err == nil {
			err = service.Validate(it)
		}
		var tt []bool
		if err == nil && op == service.OpBDD {
			tt, err = service.TruthTable(it.BDD.Function, it.BDD.Vars)
		}
		if err != nil {
			s.fail(w, err)
			return
		}
		k := s.itemKey(it, tt)
		if s.tryForward(w, r, "/v1/"+op, k, req) {
			return
		}
		res, _, err := s.serveItem(r.Context(), it, k, nil, tt)
		if err != nil {
			s.fail(w, err)
			return
		}
		s.served.Add(1)
		writeJSON(w, http.StatusOK, payload(res))
	}
}

// decodeSingle decodes a single endpoint's body into a one-item batch
// and also returns the decoded request.
func decodeSingle(r *http.Request, op string) (service.BatchItem, any, error) {
	it := service.BatchItem{Op: op}
	var req any
	switch op {
	case service.OpSimulate:
		it.Simulate = new(simulateRequest)
		req = it.Simulate
	case service.OpRank:
		it.Rank = new(rankRequest)
		req = it.Rank
	case service.OpBDD:
		it.BDD = new(bddRequest)
		req = it.BDD
	default:
		it.Predict = new(predictRequest)
		req = it.Predict
	}
	return it, req, decode(r, req)
}

// payload is a result's op payload: a single endpoint's response body.
func payload(res service.BatchItemResult) any {
	switch {
	case res.Simulate != nil:
		return res.Simulate
	case res.Rank != nil:
		return res.Rank
	case res.BDD != nil:
		return res.BDD
	default:
		return res.Predict
	}
}

// itemKey derives an item's content key: the identity both paths cache,
// collapse and route it under. A bdd item keys on its materialized truth
// table tt, not the function name.
func (s *Server) itemKey(it service.BatchItem, tt []bool) memo.Key {
	switch it.Op {
	case service.OpSimulate:
		return s.keys.Simulate(*it.Simulate)
	case service.OpRank:
		return s.keys.Rank(*it.Rank)
	case service.OpBDD:
		return s.keys.BDD(tt, it.BDD.Vars)
	default:
		return s.keys.Predict(*it.Predict)
	}
}

// serveItem runs one item, keyed k, through the pipeline and returns
// its result, carrying this caller's Cached flag, with the steps this
// caller's flight charged (zero for a replay or a joined flight).
// runner is the item's group runner; a single request passes nil, and
// a miss builds a group of one (over tt, its already materialized bdd
// table), so a memo hit resolves no artifact.
//
// A miss runs the item once, as a flight the server owns: on the
// flight's context, which outlives any one client, with a budget of
// its own, on the goroutine of the caller that started it. ctx is only
// this caller's stay in the flight (see memo.Cache.DoContext). The
// estimators are deterministic, so a failed flight answers with its
// typed error; nothing retries it. With memoization off, or a fault
// plan armed, every call is a flight of its own on ctx.
func (s *Server) serveItem(ctx context.Context, it service.BatchItem, k memo.Key, runner *service.GroupRunner, tt []bool) (service.BatchItemResult, int64, error) {
	var steps int64
	v, cached, err := s.estimateCache().DoContext(ctx, k, func(ctx context.Context) (any, int64, bool, error) {
		r := runner
		if r == nil {
			var err error
			if r, err = s.svc.ItemRunner(it, tt); err != nil {
				return nil, 0, false, err
			}
		}
		b := s.newBudget(ctx)
		res, err := r.RunItem(ctx, b, it)
		steps = b.StepsUsed()
		if err != nil {
			return nil, 0, false, err
		}
		val, size, cacheable := stored(payload(res))
		return val, size, cacheable, nil
	})
	if err != nil {
		return service.BatchItemResult{}, steps, err
	}
	res, err := replay(it, v, cached)
	return res, steps, err
}

// stored turns a computed payload into its memo entry, with the entry's
// size estimate and whether it may be replayed as fresh.
func stored(p any) (any, int64, bool) {
	switch p := p.(type) {
	case *rankResponse:
		// Only an all-exact ranking is replayable as fresh: a degraded or
		// partially failed one reflects transient conditions (budget
		// pressure, injected faults) a recomputation might not repeat.
		cacheable := true
		for _, e := range p.Ranking {
			if e.Degraded || e.Err != "" {
				cacheable = false
				break
			}
		}
		return p, int64(64 + 96*len(p.Ranking)), cacheable
	case *bddResponse:
		// The entry is name-free, so one truth table under two function
		// names shares it. A sampled estimate reflects a budget trip this
		// run; an exact rebuild might succeed, so only exact counts are
		// replayable.
		return service.BDDOutcome{Nodes: p.Nodes, Degraded: p.Degraded}, 32, !p.Degraded
	case *predictResponse:
		return p, 128, true
	default: // *simulateResponse
		return p, 160, true
	}
}

// replay rebuilds a caller's result from a memo entry: a copy of the
// stored payload (never the entry itself) carrying this caller's Cached
// flag, and for bdd this caller's function name.
func replay(it service.BatchItem, v any, cached bool) (service.BatchItemResult, error) {
	var out service.BatchItemResult
	switch val := v.(type) {
	case *simulateResponse:
		resp := *val
		resp.Cached = cached
		out.Simulate = &resp
	case *rankResponse:
		resp := *val
		resp.Cached = cached
		out.Rank = &resp
	case service.BDDOutcome:
		// A caller that demanded an exact count can collapse onto a
		// concurrent identical request whose leader accepted degradation;
		// surface the underlying budget trip instead of a result this
		// caller's contract forbids. (Degraded values are never stored,
		// so this only arises from in-flight sharing.)
		if val.Degraded && !it.BDD.AllowDegraded {
			return out, fmt.Errorf("powerd: exact build cut off by budget: %w", budget.ErrExceeded)
		}
		out.BDD = &bddResponse{
			Function: it.BDD.Function, Vars: it.BDD.Vars,
			Nodes: val.Nodes, Degraded: val.Degraded, Cached: cached,
		}
	case *predictResponse:
		resp := *val
		resp.Cached = cached
		out.Predict = &resp
	}
	return out, nil
}
