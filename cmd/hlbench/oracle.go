package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"hlpower/internal/jobs"
	"hlpower/internal/powerd"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// Oracle sampling: 1 in sampleEvery requests of the measured sequence
// (1 in jobSampleEvery optimize jobs), up to maxCheckItems work units
// per run (a batch counts its items, a job its candidates), so the
// serial reference engine stays a small share of the run's wall time.
const (
	sampleEvery    = 16
	jobSampleEvery = 32
	maxCheckItems  = 256
)

// sampled reports whether the oracle checks request req.
func sampled(req request) bool {
	if req.Op == "optimize" {
		return req.ID%jobSampleEvery == 0
	}
	return req.ID%sampleEvery == 0
}

// oracle checks served responses against reference engines: simulate
// against the serial sim.Run, rank/bdd/predict against a fresh
// service.Local, and optimize jobs by re-running them on a jobs.Manager
// owned by the benchmark. The reference engines run with nil
// (unlimited) budgets. Every comparison is Float64bits-exact.
type oracle struct {
	ref  service.Local
	jobs *jobs.Manager // created on first use
}

func (o *oracle) close() {
	if o.jobs != nil {
		_ = o.jobs.Drain(context.Background()) // only stops idle workers
	}
}

// sampleSet collects the responses a run keeps for the oracle.
type sampleSet struct {
	mu    sync.Mutex
	reqs  []request
	body  [][]byte
	items int
}

// keep is a keepFunc storing sampled requests, up to maxCheckItems.
func (s *sampleSet) keep(req request, body []byte) {
	if !sampled(req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.items+req.Items <= maxCheckItems {
		s.reqs = append(s.reqs, req)
		s.body = append(s.body, body)
		s.items += req.Items
	}
}

// checkAll runs the oracle over the kept samples and returns how many
// mismatched, with the first few mismatches.
func (o *oracle) checkAll(s *sampleSet) (checked, bad int, errs []error) {
	for i, req := range s.reqs {
		if err := o.check(req, s.body[i]); err != nil {
			bad++
			if len(errs) < 3 {
				errs = append(errs, err)
			}
		}
	}
	return len(s.reqs), bad, errs
}

// check compares one served response with the reference answer.
func (o *oracle) check(req request, body []byte) error {
	var err error
	switch req.Op {
	case service.OpSimulate, service.OpRank, service.OpBDD, service.OpPredict:
		err = o.checkSingle(req.Op, req.Body, body)
	case "batch":
		err = decodeCheck(req.Body, body, o.checkBatch)
	case "optimize":
		err = decodeCheck(req.Body, body, o.checkJob)
	default:
		err = fmt.Errorf("unknown op %q", req.Op)
	}
	if err != nil {
		return fmt.Errorf("oracle: %s request %d: %w", req.Op, req.ID, err)
	}
	return nil
}

func (o *oracle) checkSingle(op string, reqBody, respBody []byte) error {
	switch op {
	case service.OpSimulate:
		return decodeCheck(reqBody, respBody, o.checkSimulate)
	case service.OpRank:
		return decodeCheck(reqBody, respBody, o.checkRank)
	case service.OpBDD:
		return decodeCheck(reqBody, respBody, o.checkBDD)
	default:
		return decodeCheck(reqBody, respBody, o.checkPredict)
	}
}

// decodeCheck decodes a request and its response, then checks them.
func decodeCheck[Q, R any](reqBody, respBody []byte, check func(Q, R) error) error {
	var req Q
	var resp R
	if err := decodePair(reqBody, &req, respBody, &resp); err != nil {
		return err
	}
	return check(req, resp)
}

func decodePair(reqBody []byte, req any, respBody []byte, resp any) error {
	if err := json.Unmarshal(reqBody, req); err != nil {
		return fmt.Errorf("request: %w", err)
	}
	if err := json.Unmarshal(respBody, resp); err != nil {
		return fmt.Errorf("response: %w", err)
	}
	return nil
}

func sameBits(what string, got, want float64) error {
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("%s = %v (bits %#x), reference %v (bits %#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// checkSimulate re-runs the request on the serial engine.
func (o *oracle) checkSimulate(req service.SimulateRequest, got service.SimulateResponse) error {
	mod, err := service.ModuleFor(req.Circuit, req.Width)
	if err != nil {
		return err
	}
	as, bs := service.OperandStreams(req.Cycles, req.Width, req.Seed)
	want, err := sim.Run(mod.Net, func(c int) []bool { return mod.InputVector(as[c], bs[c]) },
		req.Cycles, sim.Options{Vdd: 1, Freq: 1})
	if err != nil {
		return err
	}
	if got.Cycles != want.Cycles {
		return fmt.Errorf("cycles = %d, reference %d", got.Cycles, want.Cycles)
	}
	if err := sameBits("switched_cap", got.SwitchedCap, want.SwitchedCap); err != nil {
		return err
	}
	return sameBits("power", got.Power, want.Power())
}

func (o *oracle) checkRank(req service.RankRequest, got service.RankResponse) error {
	want, err := o.ref.Rank(context.Background(), nil, req)
	if err != nil {
		return err
	}
	if got.Best != want.Best || len(got.Ranking) != len(want.Ranking) {
		return fmt.Errorf("best %q of %d, reference %q of %d", got.Best, len(got.Ranking), want.Best, len(want.Ranking))
	}
	for i, g := range got.Ranking {
		w := want.Ranking[i]
		if g.Name != w.Name || g.Model != w.Model || g.Degraded != w.Degraded || g.Err != w.Err {
			return fmt.Errorf("ranking[%d] = %+v, reference %+v", i, g, w)
		}
		if err := sameBits("ranking["+g.Name+"].power", g.Power, w.Power); err != nil {
			return err
		}
	}
	return nil
}

func (o *oracle) checkBDD(req service.BDDRequest, got service.BDDResponse) error {
	want, err := o.ref.BDD(context.Background(), nil, req, nil)
	if err != nil {
		return err
	}
	if got.Nodes != want.Nodes || got.Degraded != want.Degraded {
		return fmt.Errorf("nodes %d degraded %v, reference %d %v", got.Nodes, got.Degraded, want.Nodes, want.Degraded)
	}
	return nil
}

func (o *oracle) checkPredict(req service.PredictRequest, got service.PredictResponse) error {
	want, err := o.ref.Predict(context.Background(), nil, req)
	if err != nil {
		return err
	}
	if err := sameBits("predicted", got.Predicted, want.Predicted); err != nil {
		return err
	}
	if err := sameBits("measured", got.Measured, want.Measured); err != nil {
		return err
	}
	return sameBits("abs_err_pct", got.AbsErrPct, want.AbsErrPct)
}

func (o *oracle) checkBatch(req service.BatchRequest, got service.BatchResponse) error {
	if len(got.Items) != len(req.Items) {
		return fmt.Errorf("%d results for %d items", len(got.Items), len(req.Items))
	}
	for i, it := range req.Items {
		res := got.Items[i]
		var err error
		switch {
		case res.Error != nil:
			err = fmt.Errorf("%s: %s", res.Error.Kind, res.Error.Message)
		case it.Simulate != nil && res.Simulate != nil:
			err = o.checkSimulate(*it.Simulate, *res.Simulate)
		case it.Rank != nil && res.Rank != nil:
			err = o.checkRank(*it.Rank, *res.Rank)
		case it.Predict != nil && res.Predict != nil:
			err = o.checkPredict(*it.Predict, *res.Predict)
		case it.BDD != nil && res.BDD != nil:
			err = o.checkBDD(*it.BDD, *res.BDD)
		default:
			err = fmt.Errorf("result does not match op %q", it.Op)
		}
		if err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

// jobParams maps an optimize request onto the job parameters powerd
// derives from it under its default configuration.
func jobParams(req service.OptimizeRequest) jobs.Params {
	req.Normalize()
	cfg := powerd.DefaultConfig()
	return jobs.Params{
		Spec:          req.Spec(),
		Token:         req.Token,
		Seed:          req.Seed,
		Candidates:    req.Candidates,
		EvalCycles:    req.EvalCycles,
		VerifyCycles:  req.VerifyCycles,
		MaxRecipeLen:  req.MaxRecipeLen,
		EvalSteps:     cfg.MaxSteps,
		CheckInterval: cfg.CheckInterval,
	}
}

// runJob runs one job to completion on m and returns its final status
// and how long it waited in the queue for a worker.
func runJob(m *jobs.Manager, p jobs.Params) (*jobs.Status, time.Duration, error) {
	st, err := m.Submit(p)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	for st.Phase == "queued" {
		runtime.Gosched()
		st, _ = m.Get(st.ID)
	}
	queued := time.Since(t0)
	done, ok := m.Done(st.ID)
	if !ok {
		return nil, 0, fmt.Errorf("job %s vanished", st.ID)
	}
	<-done
	st, _ = m.Get(st.ID)
	return st, queued, nil
}

// checkJob re-runs the job on the oracle's own manager.
func (o *oracle) checkJob(req service.OptimizeRequest, got jobs.Status) error {
	if o.jobs == nil {
		o.jobs = jobs.New(jobs.Config{Workers: 1})
	}
	want, _, err := runJob(o.jobs, jobParams(req))
	if err != nil {
		return err
	}
	if got.Phase != want.Phase || !slices.Equal(got.BestRecipe, want.BestRecipe) {
		return fmt.Errorf("phase %s recipe %v, reference %s %v", got.Phase, got.BestRecipe, want.Phase, want.BestRecipe)
	}
	return sameBits("best_score", got.BestScore, want.BestScore)
}
