package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"hlpower/internal/powerd"
	"hlpower/internal/service"
)

// options scale one run. The benchmark's command line fixes them; tests
// shrink them.
type options struct {
	seed    int64
	seconds float64 // measured time of the run
	setups  int     // set-ups per run; setup_s is their median
}

// setups is how many times a run sets up: a set-up takes 10-120 ms, so
// one alone would make setup_s mostly scheduling noise.
const setups = 21

// Each ladder step of an open-loop workload takes stepShare of the
// run's measured time, and the two-client closed loop the rest. On a
// shared 2-core host open-loop latencies swing by tens of percent from
// run to run, so the ladder is reported but the gated figures come from
// the closed loop. A closed-loop workload runs it for the whole time.
const stepShare = 0.05

// ladder is the open-loop rate ladder, as shares of refRPS.
var ladder = []float64{0.25, 0.5, 0.75, 1.0}

// result is one run's outcome, also the JSON file the run writes.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Notes     []string           `json:"notes,omitempty"`
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// addLoad folds a load phase's counts into the result.
func (r *result) addLoad(phase string, lr loadResult) {
	r.Attempted += lr.sent
	r.Failed += lr.failed
	for _, err := range lr.errs {
		r.notef("%s: error: %v", phase, err)
	}
}

// env is one in-process powerd with production defaults, served over
// loopback, and the client that loads it.
type env struct {
	srv *powerd.Server
	ts  *httptest.Server
	c   *client
}

func newEnv() *env {
	srv := powerd.NewServer(powerd.Config{})
	ts := httptest.NewServer(srv.Handler())
	return &env{srv: srv, ts: ts, c: newClient(ts.URL)}
}

func (e *env) close() {
	e.c.close()
	e.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.srv.Drain(ctx) // every request and job has finished by now
}

// sendAll sends reqs over conns connections and fails on the first
// error. keep, when set, receives every response.
func sendAll(c *client, reqs []request, keep keepFunc) error {
	var mu sync.Mutex
	var first error
	next := 0
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(reqs) || first != nil {
					mu.Unlock()
					return
				}
				req := reqs[next]
				next++
				mu.Unlock()
				body, err := c.do(req)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				mu.Unlock()
				if err == nil && keep != nil {
					keep(req, body)
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// promotionsSettled reports whether every artifact served past the
// codegen threshold has finished its promotion build.
func promotionsSettled(k service.KernelStats) bool {
	hot := 0
	for _, h := range k.Hotness {
		if h >= service.DefaultCodegenAfter {
			hot++
		}
	}
	return int64(k.CodegenArtifacts)+k.CodegenFailures >= int64(hot) &&
		k.Promotions+k.CodegenFailures == k.CodegenBuilds
}

// setUp starts a fresh server and warms it: every warm-up request is
// served and every codegen promotion has settled. keep, when set,
// receives every warm-up response.
func setUp(src *source, keep keepFunc) (*env, error) {
	e := newEnv()
	if err := sendAll(e.c, src.warm, keep); err != nil {
		e.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// Promotions settle within milliseconds of a set-up that takes tens
	// of them, so the poll must not oversleep as time.Sleep does.
	w := newWaiter()
	defer w.close()
	deadline := time.Now().Add(10 * time.Second)
	for !promotionsSettled(e.srv.Snapshot().Kernel) {
		if time.Now().After(deadline) {
			e.close()
			return nil, fmt.Errorf("warm-up: codegen promotions did not settle")
		}
		w.sleep(50 * time.Microsecond)
	}
	return e, nil
}

// setUpTimed sets up opt.setups times, keeping the last environment,
// and returns it with the median set-up time in seconds. Each set-up
// starts after a collection, so none pays for its predecessors'
// garbage.
func setUpTimed(wl *workload, opt options) (*env, *source, float64, error) {
	var times []float64
	var e *env
	var src *source
	for i := 0; i < opt.setups; i++ {
		if e != nil {
			e.close()
		}
		src = wl.source(opt.seed)
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setUp(src, nil); err != nil {
			return nil, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	_, med, _ := quartiles(times)
	return e, src, med, nil
}

func dur(seconds float64) time.Duration { return time.Duration(seconds * float64(time.Second)) }

// runMeasured is the untraced run: set-up, the timed load phases, then
// the oracle. It reports every end-to-end metric.
func runMeasured(wl *workload, opt options) (*result, error) {
	res := &result{Workload: wl.name, Seed: opt.seed, Metrics: map[string]float64{}}
	e, src, setupS, err := setUpTimed(wl, opt)
	if err != nil {
		return nil, err
	}
	defer e.close()

	samples := &sampleSet{}
	keep := samples.keep
	if wl.checkWarm {
		keep = nil
	}
	// The peak heap is sampled from here to the end of the closed loop,
	// after collecting what the discarded set-ups left behind.
	runtime.GC()
	heap := startPeakSampler(heapSampleEvery, heapObjectsMB)
	// Memory is read after a fixed amount of work, not a fixed time: the
	// memo holds one entry per distinct request, so a heap measured over
	// a fixed time would grow with the server's speed.
	fixed := make([]request, max(1, int(wl.fixedPerSecond*opt.seconds)))
	for i := range fixed {
		fixed[i] = src.next()
	}
	if err := sendAll(e.c, fixed, keep); err != nil {
		return nil, fmt.Errorf("fixed work: %w", err)
	}
	res.Attempted += len(fixed)
	res.Metrics["live_heap_mb"] = liveHeapMB()

	share := 1.0
	if wl.open {
		res.Metrics["max_rate_rps"] = runLadder(e.c, wl, src, opt, keep, res)
		share -= stepShare * float64(len(ladder))
	}
	host := &hostClock{}
	lr := closedLoop(e.c, src.next, conns, dur(opt.seconds*share), keep, host)
	res.Metrics["peak_heap_mb"] = heap.stop()
	res.addLoad("closed loop", lr)
	tp := tailPercentile(len(lr.lat))
	p50, tail := percentile(lr.lat, 50), percentile(lr.lat, float64(tp))
	rate := float64(lr.items) / lr.elapsed.Seconds()

	// The gated timings are scaled to the reference host; the wall-clock
	// figures are reported beside them.
	speed := host.speed()
	res.Metrics["host_speed"] = speed
	res.Metrics["wall_setup_s"], res.Metrics["setup_s"] = setupS, setupS*speed
	res.Metrics["wall_p50_ms"], res.Metrics["p50_ms"] = p50, p50*speed
	res.Metrics["wall_items_per_s"], res.Metrics["items_per_s"] = rate, rate/speed
	if tp == 99 {
		res.Metrics["p99_ms"] = tail * speed
	}
	if wl.rateName != "" {
		res.Metrics[wl.rateName] = res.Metrics["items_per_s"]
	}
	memRate, jsonRate := host.rates()
	res.notef("host speed %.4f of the reference: memory kernel %.0f/s, json kernel %.0f/s, medians of %d calibration slices taking %.2fs",
		speed, memRate, jsonRate, len(host.mem), host.spent.Seconds())
	res.notef("closed loop, wall clock: p50 %.4f ms and p%d %.4f ms over %d of %d requests",
		p50, tp, tail, len(lr.lat), lr.sent-lr.failed)
	res.notef("closed loop, wall clock: %d %s in %.2fs of load, %.1f/s",
		lr.items, wl.unit, lr.elapsed.Seconds(), rate)
	res.notef("peak heap: highest of the heap objects sampled every %v from the fixed work to the end of the closed loop", heapSampleEvery)

	if wl.checkWarm {
		if err := sendAll(e.c, src.warm, samples.keepAll); err != nil {
			return nil, fmt.Errorf("oracle fetch: %w", err)
		}
		res.Metrics["model_err_pct"] = samples.meanPredictErr()
		res.notef("model_err_pct: mean abs_err_pct over the pool's predict specs")
	}
	checkSamples(samples, res)
	res.Metrics["error_ratio"] = ratio(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

// runLadder runs the open-loop rate ladder, notes each step, and
// returns the highest passing rate.
func runLadder(c *client, wl *workload, src *source, opt options, keep keepFunc, res *result) float64 {
	stepD := dur(opt.seconds * stepShare)
	var steps []loadResult
	for i, share := range ladder {
		rate := share * wl.refRPS
		due, reqs := arrivals(src, opt.seed, fmt.Sprintf("%s/step%d", wl.name, i), rate, stepD)
		lr := openLoop(c, due, reqs, stepD, keep)
		phase := fmt.Sprintf("%.2fx step", share)
		res.addLoad(phase, lr)
		tp := tailPercentile(len(lr.lat))
		res.notef("%s: %.0f req/s: p50 %.3f ms, p%d %.3f ms (n=%d), failed %d, unsent %d of %d, late p99 %.3f ms, pass=%v",
			phase, rate, percentile(lr.lat, 50), tp, percentile(lr.lat, float64(tp)), len(lr.lat),
			lr.failed, lr.unsent, lr.arrived, percentile(lr.late, 99), stepPasses(lr, wl.limitMS))
		steps = append(steps, lr)
	}
	res.notef("max_rate_rps: highest step with tail <= %.0f ms, no failures, <= 1%% unsent", wl.limitMS)
	return maxRate(wl, steps)
}

// maxRate is the rate of the highest ladder step that passes, or 0.
func maxRate(wl *workload, steps []loadResult) float64 {
	for i := len(steps) - 1; i >= 0; i-- {
		if stepPasses(steps[i], wl.limitMS) {
			return ladder[i] * wl.refRPS
		}
	}
	return 0
}

// stepPasses applies the ladder's pass rule: the tail latency within
// the limit, no failed requests, and at most 1% of arrivals unsent.
func stepPasses(lr loadResult, limitMS float64) bool {
	if lr.failed > 0 || len(lr.lat) == 0 || float64(lr.unsent) > 0.01*float64(lr.arrived) {
		return false
	}
	return percentile(lr.lat, float64(tailPercentile(len(lr.lat)))) <= limitMS
}

// checkSamples runs the oracle and folds its verdict into the result.
func checkSamples(s *sampleSet, res *result) {
	o := &oracle{}
	defer o.close()
	checked, bad, errs := o.checkAll(s)
	res.Failed += bad
	res.Correct = bad == 0 && res.Failed == 0
	res.notef("oracle: %d responses checked, %d mismatches", checked, bad)
	for _, err := range errs {
		res.notef("%v", err)
	}
}

// keepAll is a keepFunc storing every response, without sampling.
func (s *sampleSet) keepAll(req request, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs = append(s.reqs, req)
	s.body = append(s.body, body)
}

// meanPredictErr is the mean abs_err_pct over the kept predict
// responses.
func (s *sampleSet) meanPredictErr() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []float64
	for i, req := range s.reqs {
		var p service.PredictResponse
		if req.Op == service.OpPredict && json.Unmarshal(s.body[i], &p) == nil {
			errs = append(errs, p.AbsErrPct)
		}
	}
	return mean(errs)
}
