package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"

	"hlpower/internal/service"
)

// request is one generated client request. Body is the exact JSON the
// server receives; ID is the request's position in its workload's
// seeded sequence; Items counts the units of work it carries (1, the
// items of a batch, or the candidates of an optimize job).
type request struct {
	ID    int
	Op    string // simulate | rank | bdd | predict | batch | optimize
	Body  []byte
	Items int
}

func (r request) path() string { return "/v1/" + r.Op }

// source is one workload's seeded request stream. warm is what the
// warm-up phase sends before timing starts; next yields the measured
// sequence, which is a pure function of the seed.
type source struct {
	warm []request
	next func() request
}

// workload is one traffic mix. Open-loop workloads run a rate ladder at
// fixed shares of refRPS and then a closed-loop saturation phase;
// closed-loop workloads run two clients back to back for the whole run.
type workload struct {
	name, why string
	open      bool
	// refRPS is the open-loop reference rate, frozen so that later code
	// is measured at the same rates: on a 2-core host, about the highest
	// rate at which the generator keeps to its schedule with the seed
	// code. The open loop pays a timer wake-up per request, so on hot
	// requests that is well below the closed loop's throughput.
	refRPS float64
	// limitMS is the tail-latency limit a ladder step must meet.
	limitMS float64
	// unit names what items_per_s counts on this workload, and rateName
	// the name it also goes by there, if any.
	unit, rateName string
	// fixedPerSecond is how many requests the fixed-work phase sends,
	// before memory is read, per second of the run's measured time:
	// about 1.5 s of work in a 20 s run on the 2-core host.
	fixedPerSecond float64
	// checkWarm makes the oracle check every warm-up request, fetched
	// again after the timed window, instead of a sample of the measured
	// ones: the hot workload's measured requests all repeat its pool.
	checkWarm bool
	source    func(seed int64) *source
}

// workloads are the benchmark's traffic mixes, in run order. README.md
// explains the choice of each.
var workloads = []*workload{
	{
		name:           "interactive-hot",
		why:            "repeated specs from a warm pool, so powerd answers from the memo cache and the sim kernel does no work",
		open:           true,
		refRPS:         22000,
		limitMS:        5,
		unit:           "requests",
		rateName:       "throughput_rps",
		fixedPerSecond: 2000,
		checkWarm:      true,
		source:         hotSource,
	},
	{
		name:           "sweep-cold",
		why:            "fresh seeds, so every request misses the memo and runs artifacts, operand streams and the promoted codegen kernel",
		open:           true,
		refRPS:         4000,
		limitMS:        20,
		unit:           "requests",
		rateName:       "throughput_rps",
		fixedPerSecond: 300,
		source:         coldSource,
	},
	{
		name:           "batch-sweep",
		why:            "the sweep-cold kernel work through /v1/batch partitioning with 64 items per round trip",
		unit:           "batch items",
		fixedPerSecond: 5,
		source:         batchSource,
	},
	{
		name:           "optimize-jobs",
		why:            "recipe-search jobs, the only load on jobs, recipe, lopt, verify and checkpoints",
		unit:           "candidates",
		rateName:       "candidates_per_s",
		fixedPerSecond: 20,
		source:         optimizeSource,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// The spec space the generators draw from.
var (
	circuits = []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"}
	// predictCircuits leaves out the multiplier: its io fits take 13-85
	// ms against about 5 ms for the others, and a handful of them would
	// set every latency tail.
	predictCircuits = []string{"adder", "carry-select", "subtractor", "comparator"}
	widths          = []int{4, 8, 12, 16}
	cycleSet        = []int{256, 1024, 4096}
	models          = []string{"pfa", "dbt", "bitwise", "io"}
	functions       = []string{"parity", "majority", "and"}
)

const (
	rankCycles  = 1024
	predictLen  = 512 // train and eval cycles of every predict request
	batchItems  = 64
	batchShapes = 4
	jobCands    = 32
	warmJobCand = 4
	hotPoolSize = 256
)

// newRand seeds a generator from the workload seed and a salt, so each
// workload (and each use within one) draws an independent stream.
func newRand(seed int64, salt string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(salt))
	return rand.New(rand.NewPCG(uint64(seed), h.Sum64()))
}

func pick[T any](r *rand.Rand, xs []T) T { return xs[r.IntN(len(xs))] }

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the wire types always marshal
	}
	return b
}

// shape is one (circuit, width) compiled artifact.
type shape struct {
	circuit string
	width   int
}

func allShapes() []shape {
	var out []shape
	for _, c := range circuits {
		for _, w := range widths {
			out = append(out, shape{c, w})
		}
	}
	return out
}

func simulateReq(r *rand.Rand, s shape, cycles int) service.SimulateRequest {
	return service.SimulateRequest{Circuit: s.circuit, Width: s.width, Cycles: cycles, Seed: r.Int64()}
}

func rankReq(r *rand.Rand, width int) service.RankRequest {
	return service.RankRequest{Width: width, Cycles: rankCycles, Seed: r.Int64()}
}

// predictReq fits a macro-model of s, or of a predict circuit drawn in
// its place when s is a multiplier.
func predictReq(r *rand.Rand, s shape) service.PredictRequest {
	circuit := s.circuit
	if !slices.Contains(predictCircuits, circuit) {
		circuit = pick(r, predictCircuits)
	}
	return service.PredictRequest{
		Circuit: circuit, Width: s.width, Model: pick(r, models),
		Train: predictLen, Eval: predictLen, Seed: r.Int64(),
	}
}

func single(op string, payload any) request {
	return request{Op: op, Body: mustJSON(payload), Items: 1}
}

// warmShapes serves every shape the cold workloads use past the codegen
// promotion threshold, with seeds the measured sequence never draws.
func warmShapes(r *rand.Rand) []request {
	var out []request
	for _, s := range allShapes() {
		for i := 0; i < service.DefaultCodegenAfter; i++ {
			out = append(out, single(service.OpSimulate, simulateReq(r, s, cycleSet[0])))
		}
	}
	return out
}

// numbered wraps a generator so each request carries its sequence index.
func numbered(gen func() request) func() request {
	id := 0
	return func() request {
		req := gen()
		req.ID = id
		id++
		return req
	}
}

// hotSource draws Zipf(1.1) over a seeded pool of 256 specs. The op is
// drawn first (50% simulate, 20% rank, 15% bdd, 15% predict) and the
// spec second, by Zipf rank within that op's share of the pool, so the
// op mix is the same for every seed. A bdd entry's variable count
// follows its rank (8 + rank mod 9), which pins the Zipf-weighted cost
// of the truth tables that bdd hits still build.
func hotSource(seed int64) *source {
	r := newRand(seed, "interactive-hot")
	type stratum struct {
		op   string
		pct  int
		pool []request
		zipf *rand.Zipf
	}
	strata := []*stratum{
		{op: service.OpSimulate, pct: 50},
		{op: service.OpRank, pct: 20},
		{op: service.OpBDD, pct: 15},
		{op: service.OpPredict, pct: 15},
	}
	left := hotPoolSize
	var pool []request
	for i, st := range strata {
		n := hotPoolSize * st.pct / 100
		if i == len(strata)-1 {
			n = left
		}
		left -= n
		for k := 0; k < n; k++ {
			s := shape{pick(r, circuits), pick(r, widths)}
			var req request
			switch st.op {
			case service.OpSimulate:
				req = single(st.op, simulateReq(r, s, pick(r, cycleSet)))
			case service.OpRank:
				req = single(st.op, rankReq(r, s.width))
			case service.OpBDD:
				req = single(st.op, service.BDDRequest{Function: pick(r, functions), Vars: 8 + k%9})
			case service.OpPredict:
				req = single(st.op, predictReq(r, s))
			}
			st.pool = append(st.pool, req)
		}
		st.zipf = rand.NewZipf(r, 1.1, 1, uint64(n-1))
		pool = append(pool, st.pool...)
	}
	return &source{
		warm: pool,
		next: numbered(func() request {
			u := r.IntN(100)
			for _, st := range strata {
				if u < st.pct {
					return st.pool[st.zipf.Uint64()]
				}
				u -= st.pct
			}
			panic("unreachable: strata sum to 100")
		}),
	}
}

// coldSource gives every request a fresh seed: 70% simulate over 5
// circuits x 4 widths x 3 cycle counts, 20% rank, 10% predict.
func coldSource(seed int64) *source {
	r := newRand(seed, "sweep-cold")
	warm := warmShapes(newRand(seed, "sweep-cold/warm"))
	shapes := allShapes()
	return &source{
		warm: warm,
		next: numbered(func() request {
			s := pick(r, shapes)
			switch u := r.IntN(10); {
			case u < 7:
				return single(service.OpSimulate, simulateReq(r, s, pick(r, cycleSet)))
			case u < 9:
				return single(service.OpRank, rankReq(r, s.width))
			default:
				return single(service.OpPredict, predictReq(r, s))
			}
		}),
	}
}

// batchSource sends 64 fresh-seed items per /v1/batch request over 4
// shapes drawn per batch: 80% simulate, 10% rank, 10% predict.
func batchSource(seed int64) *source {
	r := newRand(seed, "batch-sweep")
	warm := warmShapes(newRand(seed, "batch-sweep/warm"))
	shapes := allShapes()
	return &source{
		warm: warm,
		next: numbered(func() request {
			var use []shape
			for _, i := range r.Perm(len(shapes))[:batchShapes] {
				use = append(use, shapes[i])
			}
			items := make([]service.BatchItem, batchItems)
			for i := range items {
				s := pick(r, use)
				switch u := r.IntN(10); {
				case u < 8:
					req := simulateReq(r, s, pick(r, cycleSet))
					items[i] = service.BatchItem{Op: service.OpSimulate, Simulate: &req}
				case u < 9:
					req := rankReq(r, s.width)
					items[i] = service.BatchItem{Op: service.OpRank, Rank: &req}
				default:
					req := predictReq(r, s)
					items[i] = service.BatchItem{Op: service.OpPredict, Predict: &req}
				}
			}
			return request{Op: "batch", Body: mustJSON(service.BatchRequest{Items: items}), Items: batchItems}
		}),
	}
}

// jobSpecs are the optimize-jobs designs, in round-robin order so every
// seed sends the same spec mix. Larger FSMs (6-13 s per job) and
// multipliers (about 225 ms per job at width 4) are left out: either
// would dominate the run.
var jobSpecs = []service.OptimizeRequest{
	{Kind: "circuit", Circuit: "adder", Width: 8},
	{Kind: "circuit", Circuit: "carry-select", Width: 8},
	{Kind: "circuit", Circuit: "subtractor", Width: 8},
	{Kind: "circuit", Circuit: "comparator", Width: 8},
	{Kind: "fsm", States: 4, Inputs: 1, Outputs: 2},
	{Kind: "bus", Width: 8},
	{Kind: "bus", Width: 16},
}

func optimizeSource(seed int64) *source {
	r := newRand(seed, "optimize-jobs")
	job := func(i, cands int) request {
		req := jobSpecs[i%len(jobSpecs)]
		req.Seed = r.Int64()
		req.Candidates = cands
		return request{Op: "optimize", Body: mustJSON(req), Items: cands}
	}
	var warm []request
	for i := range jobSpecs {
		warm = append(warm, job(i, warmJobCand))
	}
	seq := 0
	return &source{
		warm: warm,
		next: numbered(func() request {
			seq++
			return job(seq-1, jobCands)
		}),
	}
}
