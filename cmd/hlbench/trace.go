package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"hlpower/internal/bdd"
	"hlpower/internal/jobs"
	"hlpower/internal/macromodel"
	"hlpower/internal/memo"
	"hlpower/internal/powerd"
	"hlpower/internal/recipe"
	"hlpower/internal/rtlib"
	"hlpower/internal/service"
	"hlpower/internal/sim"
)

// The traced run replays a workload's first requests one at a time.
// Each request gets a powerd.http span for the real HTTP call; the
// benchmark then replays the same request directly against each
// layer's public API, on layer objects it owns, and records every
// replay as a child span of the same request. A layer's self time is
// its span's duration minus its children's. Child spans are replays
// that run after their parent, so the nesting is causal, not temporal,
// and self times are estimates from outside the program.
const (
	traceRequests = 2000
	// Shares of the traced run's --seconds: the load phase that gives
	// the contention counters, then the traced replay. The untraced
	// replay of the same requests takes what it takes.
	traceLoadShare   = 0.3
	traceReplayShare = 0.4
)

// span is one timed call. Times are nanoseconds from the trace start.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    int    `json:"req"`             // request id; -1 for set-up work
	Probe  bool   `json:"probe,omitempty"` // a probe request of another workload
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Units is the work a span did, where a metric divides by it: batch
	// items, gate-cycles, or job candidates.
	Units int64 `json:"units,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0    time.Time
	spans []span
}

// reqTrace records the spans of one request. A nil tracer records
// nothing, which is how the layers are warmed without being traced.
type reqTrace struct {
	t     *tracer
	req   int
	probe bool
}

// span times f as a child of parent and returns the new span's id.
func (rt reqTrace) span(name string, parent int, f func()) int {
	return rt.spanUnits(name, parent, 0, f)
}

func (rt reqTrace) spanUnits(name string, parent int, units int64, f func()) int {
	start := rt.now()
	f()
	return rt.record(name, parent, units, start, rt.now())
}

// now is the time since the trace started, or 0 without a tracer.
func (rt reqTrace) now() time.Duration {
	if rt.t == nil {
		return 0
	}
	return time.Since(rt.t.t0)
}

func (rt reqTrace) record(name string, parent int, units int64, start, end time.Duration) int {
	if rt.t == nil {
		return -1
	}
	id := len(rt.t.spans)
	rt.t.spans = append(rt.t.spans, span{
		ID: id, Parent: parent, Name: name, Req: rt.req, Probe: rt.probe,
		Start: int64(start), End: int64(end), Units: units,
	})
	return id
}

// layers are the layer objects the benchmark owns and replays against.
type layers struct {
	local  service.Local // no cache: every call computes
	keys   service.Keys  // powerd's key schema under its default config
	hits   *memo.Cache   // holds each replayed response, for memo.hit
	jobs   *jobs.Manager
	mods   map[shape]*rtlib.Module
	comps  map[shape]*sim.Compiled
	unique bdd.TableStats // unique-table traffic of the replayed BDD builds
	// Job outcomes on the benchmark's manager.
	jobsEvaluated, jobsCacheHits int64
}

// newLayers compiles every shape the workloads use and builds its
// codegen evaluator, as set-up spans. The server promotes every shape
// it serves to codegen during warm-up, so sim.run replays run that tier
// too.
func newLayers(t *tracer) (*layers, error) {
	// The job manager gets a prefix cache of its own, as powerd's gets
	// the server's memo.
	jobCache := memo.New(memo.Options{})
	lay := &layers{
		keys:  service.Keys{MaxSteps: powerd.DefaultConfig().MaxSteps},
		hits:  memo.New(memo.Options{}),
		jobs:  jobs.New(jobs.Config{Workers: 1, Cache: func() *memo.Cache { return jobCache }}),
		mods:  map[shape]*rtlib.Module{},
		comps: map[shape]*sim.Compiled{},
	}
	rt := reqTrace{t: t, req: -1}
	for _, s := range allShapes() {
		mod, err := service.ModuleFor(s.circuit, s.width)
		if err != nil {
			return nil, err
		}
		var comp *sim.Compiled
		rt.span("sim.compile", -1, func() { comp, err = sim.Compile(mod.Net, sim.Options{Vdd: 1, Freq: 1}) })
		if err != nil {
			return nil, err
		}
		rt.span("sim.codegen_build", -1, func() { err = comp.BuildCodegen() })
		if err != nil {
			return nil, err
		}
		lay.mods[s], lay.comps[s] = mod, comp
	}
	return lay, nil
}

func (lay *layers) close() { _ = lay.jobs.Drain(context.Background()) }

// hit replays a memo hit: the value is stored untimed, then looked up
// again under the same key.
func (lay *layers) hit(rt reqTrace, parent int, k memo.Key, val any) error {
	store := func() (any, int64, bool, error) { return val, 160, true, nil }
	if _, _, err := lay.hits.Do(k, store); err != nil {
		return err
	}
	var err error
	rt.span("memo.hit", parent, func() { _, _, err = lay.hits.Do(k, store) })
	return err
}

// replay runs one request through the layer APIs as children of the
// powerd.http span http. resp is the server's response body; cached
// says whether the server answered it from its memo. Probe requests
// replay both the hit and the compute path.
func (lay *layers) replay(rt reqTrace, http int, req request, resp []byte) error {
	var cached struct{ Cached bool }
	_ = json.Unmarshal(resp, &cached) // batch and job bodies carry no flag
	hit, compute := cached.Cached || rt.probe, !cached.Cached || rt.probe
	ctx := context.Background()
	decode := func(r, out any) error {
		var err error
		rt.span("codec.decode", http, func() { err = json.Unmarshal(req.Body, r) })
		if err != nil {
			return err
		}
		return json.Unmarshal(resp, out)
	}
	encode := func(out any) error {
		var err error
		rt.span("codec.encode", http, func() { _, err = json.Marshal(out) })
		return err
	}
	// finish replays the memo lookup and the computation the server
	// did (or, for a probe, both), then the response encoding.
	finish := func(k memo.Key, out any, run func() error) error {
		if hit {
			if err := lay.hit(rt, http, k, out); err != nil {
				return err
			}
		}
		if compute {
			if err := run(); err != nil {
				return err
			}
		}
		return encode(out)
	}
	var k memo.Key
	switch req.Op {
	case service.OpSimulate:
		var r service.SimulateRequest
		var out service.SimulateResponse
		if err := decode(&r, &out); err != nil {
			return err
		}
		rt.span("memo.key", http, func() { k = lay.keys.Simulate(r) })
		return finish(k, out, func() error { return lay.simulate(rt, http, r) })
	case service.OpRank:
		var r service.RankRequest
		var out service.RankResponse
		if err := decode(&r, &out); err != nil {
			return err
		}
		rt.span("memo.key", http, func() { k = lay.keys.Rank(r) })
		return finish(k, out, func() error {
			var err error
			rt.span("service.local.rank", http, func() { _, err = lay.local.Rank(ctx, nil, r) })
			return err
		})
	case service.OpBDD:
		var r service.BDDRequest
		var out service.BDDResponse
		if err := decode(&r, &out); err != nil {
			return err
		}
		var tt []bool
		var err error
		rt.span("service.truthtable", http, func() { tt, err = service.TruthTable(r.Function, r.Vars) })
		if err != nil {
			return err
		}
		rt.span("memo.key", http, func() { k = lay.keys.BDD(tt, r.Vars) })
		return finish(k, out, func() error { return lay.bdd(rt, http, r, tt) })
	case service.OpPredict:
		var r service.PredictRequest
		var out service.PredictResponse
		if err := decode(&r, &out); err != nil {
			return err
		}
		rt.span("memo.key", http, func() { k = lay.keys.Predict(r) })
		return finish(k, out, func() error { return lay.predict(rt, http, r) })
	case "batch":
		var r service.BatchRequest
		var out service.BatchResponse
		if err := decode(&r, &out); err != nil {
			return err
		}
		rt.span("service.partition", http, func() { service.PartitionBatch(r.Items) })
		var got service.BatchResponse
		rt.spanUnits("service.batch", http, int64(len(r.Items)), func() {
			got = lay.local.Batch(ctx, r, service.BatchHooks{})
		})
		if got.Failed > 0 {
			return fmt.Errorf("replayed batch: %d items failed", got.Failed)
		}
		return encode(out)
	case "optimize":
		var r service.OptimizeRequest
		var out jobs.Status
		if err := decode(&r, &out); err != nil {
			return err
		}
		if err := lay.job(rt, http, r); err != nil {
			return err
		}
		return encode(out)
	}
	return fmt.Errorf("unknown op %q", req.Op)
}

// bdd replays service.Local.BDD, then its inner step: a fresh manager
// building the truth table's BDD.
func (lay *layers) bdd(rt reqTrace, parent int, r service.BDDRequest, tt []bool) error {
	var err error
	l := rt.span("service.local.bdd", parent, func() { _, err = lay.local.BDD(context.Background(), nil, r, tt) })
	if err != nil {
		return err
	}
	var m *bdd.Manager
	rt.span("bdd.build", l, func() {
		m = bdd.New(r.Vars)
		_, err = m.BuildTT(tt, r.Vars)
	})
	st := m.Stats().Unique
	lay.unique.Lookups += st.Lookups
	lay.unique.Hits += st.Hits
	return err
}

// simulate replays service.Local.Simulate, then its two inner steps:
// the operand streams and a lean single-worker run of the compiled
// netlist.
func (lay *layers) simulate(rt reqTrace, parent int, r service.SimulateRequest) error {
	var err error
	l := rt.span("service.local.simulate", parent, func() { _, err = lay.local.Simulate(context.Background(), nil, r) })
	if err != nil {
		return err
	}
	s := shape{r.Circuit, r.Width}
	mod, comp := lay.mods[s], lay.comps[s]
	var as, bs []uint64
	rt.span("service.streams", l, func() { as, bs = service.OperandStreams(r.Cycles, r.Width, r.Seed) })
	var res *sim.Result
	rt.spanUnits("sim.run", l, int64(comp.NumGates())*int64(r.Cycles), func() {
		res, err = comp.Run(nil, func(c int) []bool { return mod.InputVector(as[c], bs[c]) }, r.Cycles, sim.RunOptions{
			Workers: 1,
			Words:   func(c int) uint64 { return mod.InputWord(as[c], bs[c]) },
			Lean:    true,
		})
	})
	if err == nil && res.Kernel != sim.KernelCodegen {
		err = fmt.Errorf("replayed sim.run ran the %q kernel, want %q", res.Kernel, sim.KernelCodegen)
	}
	return err
}

// predict replays service.Local.Predict, then its two inner steps: the
// macro-model fit and the uncached ground-truth simulation.
func (lay *layers) predict(rt reqTrace, parent int, r service.PredictRequest) error {
	var err error
	l := rt.span("service.local.predict", parent, func() { _, err = lay.local.Predict(context.Background(), nil, r) })
	if err != nil {
		return err
	}
	mod := lay.mods[shape{r.Circuit, r.Width}]
	trainA, trainB := service.OperandStreams(r.Train, r.Width, r.Seed)
	evalA, evalB := service.OperandStreams(r.Eval, r.Width, r.Seed+1)
	rt.span("macromodel.fit", l, func() {
		switch r.Model {
		case "pfa":
			_, err = macromodel.FitPFA(mod, trainA, trainB, sim.ZeroDelay)
		case "dbt":
			_, err = macromodel.FitDBT(mod, trainA, trainB, sim.ZeroDelay)
		case "bitwise":
			_, err = macromodel.FitBitwise(mod, trainA, trainB, sim.ZeroDelay)
		default:
			_, err = macromodel.FitIO(mod, trainA, trainB, sim.ZeroDelay)
		}
	})
	if err != nil {
		return err
	}
	rt.span("macromodel.truth", l, func() { _, err = macromodel.GroundTruthMemo(nil, nil, mod, evalA, evalB, sim.ZeroDelay) })
	return err
}

// job replays an optimize job on the benchmark's jobs.Manager, then, as
// a child of the job, scores the job's baseline design through the
// recipe layer.
func (lay *layers) job(rt reqTrace, parent int, r service.OptimizeRequest) error {
	p := jobParams(r)
	var st *jobs.Status
	var queued time.Duration
	var err error
	start := rt.now()
	j := rt.span("jobs.job", parent, func() { st, queued, err = runJob(lay.jobs, p) })
	if err != nil {
		return err
	}
	rt.record("jobs.queue_wait", j, 0, start, start+queued)
	if st.Phase != "done" {
		return fmt.Errorf("replayed job %s ended %s: %s", st.ID, st.Phase, st.Err)
	}
	if rt.t != nil {
		rt.t.spans[j].Units = st.Evaluated
		lay.jobsEvaluated += st.Evaluated
		lay.jobsCacheHits += st.CacheHits
	}
	rt.span("recipe.score", j, func() {
		var d *recipe.Design
		var w *recipe.Workload
		if d, w, err = recipe.Build(p.Spec, p.Seed, p.EvalCycles, p.VerifyCycles); err == nil {
			_, err = recipe.Score(nil, d, w)
		}
	})
	return err
}

// probes are one request of every kind the workloads send, drawn from
// the seed: a simulate, a rank, a bdd and a predict request, a batch
// and an optimize job. Every traced run replays them too, so each layer
// is measured on every workload: a layer a workload never reaches
// reports the probes' figure, the baseline against which "no change" is
// predicted there.
func probes(seed int64) []request {
	r := newRand(seed, "probes")
	s := shape{pick(r, circuits), pick(r, widths)}
	out := []request{
		single(service.OpSimulate, simulateReq(r, s, pick(r, cycleSet))),
		single(service.OpRank, rankReq(r, s.width)),
		single(service.OpBDD, service.BDDRequest{Function: pick(r, functions), Vars: 12}),
		single(service.OpPredict, predictReq(r, s)),
		batchSource(seed).next(),
		optimizeSource(seed).next(),
	}
	for i := range out {
		out[i].ID = i
	}
	return out
}

// runTraced is the traced run. It reports every per-layer metric and
// writes the spans to spansPath.
func runTraced(wl *workload, opt options, spansPath string) (*result, error) {
	res := &result{Workload: wl.name, Seed: opt.seed, Trace: true, Metrics: map[string]float64{}}
	samples := &sampleSet{}

	// Load phase: contention and cache counters under load.
	src := wl.source(opt.seed)
	e, err := setUp(src, nil)
	if err != nil {
		return nil, err
	}
	before := e.srv.Snapshot()
	waiting := startPeakSampler(5*time.Millisecond, func() float64 { return float64(e.srv.Snapshot().Waiting) })
	loadD := dur(opt.seconds * traceLoadShare)
	var lr loadResult
	if wl.open {
		due, reqs := arrivals(src, opt.seed, wl.name+"/trace", ladder[2]*wl.refRPS, loadD)
		lr = openLoop(e.c, due, reqs, loadD, samples.keep)
	} else {
		lr = closedLoop(e.c, src.next, conns, loadD, samples.keep, nil)
	}
	res.Metrics["powerd.waiting_max"] = waiting.stop()
	after := e.srv.Snapshot()
	e.close()
	res.addLoad("load", lr)
	loadCounters(res.Metrics, before, after, lr)

	// Traced replay on a fresh server.
	t := &tracer{t0: time.Now()}
	lay, err := newLayers(t)
	if err != nil {
		return nil, err
	}
	defer lay.close()
	src = wl.source(opt.seed)
	warm := &sampleSet{}
	e, err = setUp(src, warm.keepAll)
	if err != nil {
		return nil, err
	}
	// Replaying the warm-up through both the hit and the compute path
	// warms the layers' own artifacts and pools before tracing starts.
	for i, req := range warm.reqs {
		if err := lay.replay(reqTrace{req: req.ID, probe: true}, -1, req, warm.body[i]); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up replay: %w", err)
		}
	}
	var replayed []request
	var tracedHTTP time.Duration
	replayD := dur(opt.seconds * traceReplayShare)
	start := time.Now()
	traceOne := func(req request, probe bool) error {
		rt := reqTrace{t: t, req: req.ID, probe: probe}
		var body []byte
		var err error
		h := rt.span("powerd.http", -1, func() { body, err = e.c.do(req) })
		res.Attempted++
		if err != nil {
			return err
		}
		if !probe {
			tracedHTTP += t.spans[h].dur()
			samples.keep(req, body)
		}
		return lay.replay(rt, h, req, body)
	}
	for len(replayed) < traceRequests && time.Since(start) < replayD {
		req := src.next()
		replayed = append(replayed, req)
		if err := traceOne(req, false); err != nil {
			e.close()
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	probeReqs := probes(opt.seed)
	for _, req := range probeReqs {
		if err := traceOne(req, true); err != nil {
			e.close()
			return nil, fmt.Errorf("probe replay: %w", err)
		}
	}
	e.close()
	res.notef("traced replay: %d requests, %d probes, %d spans", len(replayed), len(probeReqs), len(t.spans))

	// Untraced replay of the same requests on a fresh server.
	e, err = setUp(wl.source(opt.seed), nil)
	if err != nil {
		return nil, err
	}
	var untracedHTTP time.Duration
	for _, req := range replayed {
		t0 := time.Now()
		_, err := e.c.do(req)
		untracedHTTP += time.Since(t0)
		res.Attempted++
		if err != nil {
			e.close()
			return nil, fmt.Errorf("untraced replay: %w", err)
		}
	}
	e.close()
	res.Metrics["bench.trace_overhead_pct"] = 100 * ratio((tracedHTTP-untracedHTTP).Seconds(), untracedHTTP.Seconds())

	spanMetrics(res.Metrics, t.spans)
	lay.jobMetrics(res.Metrics)
	res.Metrics["bdd.unique_hit_ratio"] = ratio(float64(lay.unique.Hits), float64(lay.unique.Lookups))

	if err := writeSpans(spansPath, wl.name, opt.seed, t.spans); err != nil {
		return nil, err
	}
	res.notef("spans written to %s", spansPath)
	checkSamples(samples, res)
	return res, nil
}

// loadCounters derives the counter metrics from /v1/stats snapshots
// taken around the load phase, and the generator's own lag.
func loadCounters(m map[string]float64, before, after powerd.Stats, lr loadResult) {
	m["powerd.rejected"] = float64(after.Rejected - before.Rejected)
	m["powerd.shed"] = float64(after.Shed - before.Shed)
	hits := float64(after.Memo.Hits - before.Memo.Hits + after.Memo.Collapsed - before.Memo.Collapsed)
	misses := float64(after.Memo.Misses - before.Memo.Misses)
	m["memo.hit_ratio"] = ratio(hits, hits+misses)
	m["memo.evictions"] = float64(after.Memo.Evictions - before.Memo.Evictions)
	m["memo.bytes"] = float64(after.Memo.Bytes)
	k := after.Kernel
	m["service.artifact_builds"] = float64(k.ArtifactBuilds)
	m["service.promotions"] = float64(k.Promotions)
	var runs int64
	for _, n := range k.Tiers {
		runs += n
	}
	m["sim.codegen_share"] = ratio(float64(k.Tiers["codegen"]), float64(runs))
	m["sim.scratch_hit_rate"] = k.ScratchHitRate
	m["bench.late_p99_ms"] = percentile(lr.late, 99)
	m["bench.unsent"] = float64(lr.unsent)
}

// spanMetrics derives the per-layer timings. A per-call metric averages
// the workload's own spans of that name, or its probes' spans when the
// workload never reaches the layer.
func spanMetrics(m map[string]float64, spans []span) {
	type agg struct {
		n          int
		dur, units float64 // seconds, units
	}
	own, probe := map[string]*agg{}, map[string]*agg{}
	childDur := map[int]float64{}
	for _, s := range spans {
		tab := own
		if s.Probe {
			tab = probe
		}
		a := tab[s.Name]
		if a == nil {
			a = &agg{}
			tab[s.Name] = a
		}
		a.n++
		a.dur += s.dur().Seconds()
		a.units += float64(s.Units)
		if s.Parent >= 0 {
			childDur[s.Parent] += s.dur().Seconds()
		}
	}
	pick := func(name string) *agg {
		if a := own[name]; a != nil {
			return a
		}
		if a := probe[name]; a != nil {
			return a
		}
		return &agg{}
	}
	perCall := func(name string, scale float64) float64 {
		a := pick(name)
		return scale * ratio(a.dur, float64(a.n))
	}
	perUnit := func(name string, scale float64) float64 {
		a := pick(name)
		return scale * ratio(a.dur, a.units)
	}
	// selfTime averages duration minus children over the named spans,
	// again preferring the workload's own spans.
	selfTime := func(names ...string) float64 {
		for _, wantProbe := range []bool{false, true} {
			var sum float64
			n := 0
			for _, s := range spans {
				if s.Probe != wantProbe || !slices.Contains(names, s.Name) {
					continue
				}
				sum += s.dur().Seconds() - childDur[s.ID]
				n++
			}
			if n > 0 {
				return 1e6 * sum / float64(n)
			}
		}
		return 0
	}
	const us, msec = 1e6, 1e3
	m["powerd.self_us"] = selfTime("powerd.http")
	m["codec.encode_us"] = perCall("codec.encode", us)
	m["codec.decode_us"] = perCall("codec.decode", us)
	m["memo.hit_us"] = perCall("memo.hit", us)
	m["memo.key_us"] = perCall("memo.key", us)
	m["service.truthtable_us"] = perCall("service.truthtable", us)
	for _, op := range []string{"simulate", "rank", "bdd", "predict"} {
		m["service.local_us."+op] = perCall("service.local."+op, us)
	}
	m["service.streams_us"] = perCall("service.streams", us)
	m["service.self_us"] = selfTime("service.local.simulate", "service.local.rank", "service.local.bdd", "service.local.predict")
	m["service.partition_us"] = perCall("service.partition", us)
	m["service.batch_us_per_item"] = perUnit("service.batch", us)
	m["sim.compile_ms"] = perCall("sim.compile", msec)
	m["sim.codegen_build_ms"] = perCall("sim.codegen_build", msec)
	m["sim.run_us"] = perCall("sim.run", us)
	m["sim.ns_per_gate_cycle"] = perUnit("sim.run", 1e9)
	m["bdd.build_us"] = perCall("bdd.build", us)
	m["macromodel.fit_us"] = perCall("macromodel.fit", us)
	m["macromodel.truth_us"] = perCall("macromodel.truth", us)
	m["jobs.job_ms"] = perCall("jobs.job", msec)
	m["jobs.candidate_us"] = perUnit("jobs.job", us)
	m["jobs.queue_wait_ms"] = perCall("jobs.queue_wait", msec)
	m["recipe.score_us"] = perCall("recipe.score", us)
}

// jobMetrics derives the job-engine ratios from the benchmark's own
// manager.
func (lay *layers) jobMetrics(m map[string]float64) {
	c := lay.jobs.Counters()
	m["jobs.cache_hit_ratio"] = ratio(float64(lay.jobsCacheHits), float64(lay.jobsEvaluated))
	m["jobs.checkpoints_per_job"] = ratio(float64(c.Checkpointed), float64(c.Completed))
}

// writeSpans writes the span file.
func writeSpans(path, workload string, seed int64, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
