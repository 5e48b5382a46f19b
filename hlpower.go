package hlpower

import (
	"context"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/bus"
	"hlpower/internal/core"
	"hlpower/internal/dpm"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/par"
	"hlpower/internal/powerd"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
)

// DefaultWorkers clamps a worker-count knob the way every parallel
// entry point here does: nonpositive means one worker per available
// CPU (GOMAXPROCS), so "-j 0" style flags degrade to full-machine
// parallelism rather than zero workers.
func DefaultWorkers(n int) int { return par.Workers(n) }

// Resource governance. Every long-running estimator accepts a *Budget
// combining a wall-clock deadline, context cancellation, and step/node
// ceilings; exhaustion surfaces as an error matching ErrBudgetExceeded
// or as a result flagged Degraded, never as an unbounded run or a
// crash.
type (
	// Budget governs an estimation run's resources.
	Budget = budget.Budget
	// BudgetOption configures a Budget.
	BudgetOption = budget.Option
	// InputError is the typed error for malformed user input.
	InputError = hlerr.InputError
)

// ErrBudgetExceeded is matched (errors.Is) by every budget violation.
var ErrBudgetExceeded = budget.ErrExceeded

// NewBudget builds a budget; with no options it never trips.
func NewBudget(opts ...BudgetOption) *Budget { return budget.New(opts...) }

// BudgetFromContext derives a budget from a context's deadline and
// cancellation.
func BudgetFromContext(ctx context.Context) *Budget { return budget.FromContext(ctx) }

// WithTimeout caps a budget's wall-clock time.
func WithTimeout(d time.Duration) BudgetOption { return budget.WithTimeout(d) }

// WithMaxSteps caps a budget's abstract work counter.
func WithMaxSteps(n int64) BudgetOption { return budget.WithMaxSteps(n) }

// WithMaxNodes caps a budget's allocated-node (memory proxy) counter.
func WithMaxNodes(n int64) BudgetOption { return budget.WithMaxNodes(n) }

// IsInputError reports whether err (anywhere in its chain) is a typed
// input error — the caller handed the library something malformed, as
// opposed to a resource-budget trip or an internal failure.
func IsInputError(err error) bool { return hlerr.IsInput(err) }

// Re-exported core types: the design-improvement loop of Fig. 1.
type (
	// Candidate is one design option in an improvement loop.
	Candidate = core.Candidate
	// Estimator produces a power estimate for a candidate.
	Estimator = core.Estimator
	// EstimatorFunc adapts a closure into an Estimator.
	EstimatorFunc = core.Func
	// Ranking is an evaluated, power-ordered candidate list.
	Ranking = core.Ranking
	// Level is an abstraction level of the design flow.
	Level = core.Level
)

// Abstraction levels of the Fig. 1 flow.
const (
	Software   = core.Software
	Behavioral = core.Behavioral
	RTL        = core.RTL
	Gate       = core.Gate
)

// Rank evaluates candidates and orders them by estimated power — one
// turn of the design-improvement loop. A panicking estimator becomes
// that candidate's Err; the loop always completes.
func Rank(candidates []Candidate) Ranking { return core.Rank(candidates) }

// RankBudget is Rank under a resource budget: budget-aware estimators
// (core.BudgetEstimator) may return degraded figures, which still rank
// by power with exact results winning ties.
func RankBudget(b *Budget, candidates []Candidate) Ranking {
	return core.RankBudget(b, candidates)
}

// RankParallel is RankBudget with candidate estimators evaluated
// concurrently by a bounded worker pool (nonpositive workers means one
// per CPU). Candidate failures and panics stay per-candidate, each
// worker runs under a forked share of the budget, and for
// deterministic estimators the ranking is identical to the serial one.
func RankParallel(b *Budget, workers int, candidates []Candidate) Ranking {
	return core.RankParallel(b, workers, candidates)
}

// Gate-level substrate.
type (
	// Netlist is a synchronous gate-level circuit.
	Netlist = logic.Netlist
	// Module is a standalone datapath block ready for characterization.
	Module = rtlib.Module
	// SimResult is a power-metered simulation outcome.
	SimResult = sim.Result
	// SimOptions configures delay model and clock accounting.
	SimOptions = sim.Options
)

// NewNetlist returns an empty netlist with the default capacitance model.
func NewNetlist() *Netlist { return logic.New() }

// NewAdder returns a gate-level ripple-carry adder module.
func NewAdder(width int) *Module { return rtlib.NewAdder(width) }

// NewMultiplier returns a gate-level array multiplier module.
func NewMultiplier(width int) *Module { return rtlib.NewMultiplier(width) }

// Simulate runs a netlist with switched-capacitance power metering.
// Malformed input (nil netlist, non-positive cycles, wrong-width
// vectors) is a typed error (IsInputError); any panic escaping the
// lower layers is converted to an error here rather than crashing the
// caller.
func Simulate(n *Netlist, inputs func(cycle int) []bool, cycles int, opts SimOptions) (res *SimResult, err error) {
	defer hlerr.RecoverAll(&err)
	return sim.Run(n, inputs, cycles, opts)
}

// SimulateBudget is Simulate governed by a resource budget.
func SimulateBudget(b *Budget, n *Netlist, inputs func(cycle int) []bool, cycles int, opts SimOptions) (res *SimResult, err error) {
	defer hlerr.RecoverAll(&err)
	return sim.RunBudget(b, n, inputs, cycles, opts)
}

// SimulatePacked is SimulateBudget on the 64-lane bit-packed kernel:
// each call compiles the netlist and runs it once on the fused executor
// a CompileSim artifact runs, so combinational netlists under the
// zero-delay model evaluate 64 Monte Carlo vectors per machine word, an
// order of magnitude faster than the interpreted engine with
// bit-identical results. Ineligible workloads (sequential netlists,
// event-driven runs) transparently take the scalar path;
// Result.Kernel and Result.Fallback report which engine actually ran.
// Compile a netlist that runs many times with CompileSim instead.
func SimulatePacked(b *Budget, n *Netlist, inputs func(cycle int) []bool, cycles int, opts SimOptions) (res *SimResult, err error) {
	defer hlerr.RecoverAll(&err)
	return sim.RunPackedBudget(b, n, inputs, cycles, opts)
}

// SimParallelOptions configures a vector-sharded Monte Carlo run.
type SimParallelOptions = sim.ParallelOptions

// SimulateParallel is SimulateBudget with the input vectors sharded
// across a bounded worker pool. Results are bit-identical to the
// serial path for the same workload — shards merge in canonical cycle
// order — at any worker count. The input provider must be safe for
// concurrent use; netlists with sequential elements fall back to the
// serial engine inside this call.
func SimulateParallel(b *Budget, n *Netlist, inputs func(cycle int) []bool, cycles int, opts SimParallelOptions) (res *SimResult, err error) {
	defer hlerr.RecoverAll(&err)
	return sim.RunParallel(b, n, inputs, cycles, opts)
}

// Compiled simulation. A CompiledSim is a netlist's reusable execution
// artifact — environment tables, the packed-kernel instruction stream,
// and a concurrency-safe pool of kernel scratch — so a batch of runs
// over one netlist pays compilation once instead of once per call.
type (
	// CompiledSim is a netlist compiled for repeated simulation runs.
	CompiledSim = sim.Compiled
	// CompiledRunOptions configures one run of a CompiledSim.
	CompiledRunOptions = sim.RunOptions
)

// CompileSim compiles a netlist once for any number of Run calls.
// Each Run is bit-identical to SimulateParallel with the same workload
// and options — including the Shards/Fallback/Kernel metadata.
func CompileSim(n *Netlist, opts SimOptions) (*CompiledSim, error) {
	return sim.Compile(n, opts)
}

// Content-addressed memoization. An EstimateCache keys results on a
// canonical encoding of everything that determines them — netlist
// structure, simulation options, cycle count, the input vectors — so a
// repeated estimate is answered in O(hash) and N concurrent identical
// requests collapse onto one computation.
type (
	// EstimateCache is a sharded LRU of estimation results keyed by
	// content, with singleflight request collapsing.
	EstimateCache = memo.Cache
	// EstimateCacheOptions sizes an EstimateCache.
	EstimateCacheOptions = memo.Options
	// EstimateCacheStats is a counter snapshot (hits, misses, collapsed
	// waiters, evictions, bytes).
	EstimateCacheStats = memo.Stats
	// EstimateKey is a 128-bit content key.
	EstimateKey = memo.Key
)

// NewEstimateCache builds a cache; the zero options get production
// defaults (64 MiB, 16 shards).
func NewEstimateCache(o EstimateCacheOptions) *EstimateCache { return memo.New(o) }

// SimulateMemo is SimulateBudget fronted by a content-addressed cache:
// the result is keyed on the netlist structure, the options, and the
// materialized input vectors, a repeat is replayed bit-identically
// without simulating, and concurrent identical calls share one run.
// Every caller — on a hit, a collapse, or the computing call itself —
// receives its own deep copy, so mutating a returned result can never
// poison the cache. Errors are never stored, and runs under an armed
// fault-injection plan are not even looked up, so chaos always
// exercises the real path. With a nil cache it is exactly
// SimulateBudget.
func SimulateMemo(c *EstimateCache, b *Budget, n *Netlist, inputs func(cycle int) []bool, cycles int, opts SimOptions) (res *SimResult, err error) {
	defer hlerr.RecoverAll(&err)
	if c == nil || b.FaultArmed() {
		return sim.RunBudget(b, n, inputs, cycles, opts)
	}
	enc := memo.NewEnc()
	enc.String("hlpower/simulate/v1")
	if n == nil {
		enc.Bool(false)
	} else {
		enc.Bool(true)
		memo.HashNetlist(enc, n)
	}
	memo.HashSimOptions(enc, opts)
	if inputs == nil || cycles <= 0 {
		enc.Bool(false)
		enc.Int(cycles)
	} else {
		enc.Bool(true)
		memo.HashInputs(enc, inputs, cycles)
	}
	v, _, err := c.Do(enc.Key(), func() (any, int64, bool, error) {
		r, err := sim.RunBudget(b, n, inputs, cycles, opts)
		if err != nil {
			return nil, 0, false, err
		}
		return r, r.SizeBytes(), true, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*sim.Result).Clone(), nil
}

// Bus encoding (§III-G).
type (
	// BusEncoder is a stateful low-power bus code.
	BusEncoder = bus.Encoder
	// BusDecoder recovers the word stream.
	BusDecoder = bus.Decoder
)

// BusTransitionsPerWord measures a code's average bus-line transitions
// per transmitted word.
func BusTransitionsPerWord(e BusEncoder, stream []uint64) float64 {
	return bus.PerWord(e, stream)
}

// BusTransitionsPerWordBudget is BusTransitionsPerWord governed by a
// resource budget: each encoded word charges one step.
func BusTransitionsPerWordBudget(b *Budget, e BusEncoder, stream []uint64) (float64, error) {
	return bus.PerWordBudget(b, e, stream)
}

// Dynamic power management (§III-B).
type (
	// PMDevice is a power-managed resource's parameter set.
	PMDevice = dpm.Device
	// PMPolicy decides shutdowns from observed history.
	PMPolicy = dpm.Policy
	// PMResult aggregates a simulated management run.
	PMResult = dpm.Result
)

// SimulatePM runs a shutdown policy over an active/idle workload.
func SimulatePM(dev PMDevice, pol PMPolicy, workload []dpm.Period) PMResult {
	return dpm.Simulate(dev, pol, workload)
}

// SimulatePMBudget is SimulatePM governed by a resource budget: each
// workload period charges one step.
func SimulatePMBudget(b *Budget, dev PMDevice, pol PMPolicy, workload []dpm.Period) (PMResult, error) {
	return dpm.SimulateBudget(b, dev, pol, workload)
}

// The estimation service: the engines behind powerd's HTTP/JSON
// endpoints, with admission control, one budgeted flight per distinct
// request, and graceful drain.
type (
	// EstimationServer is the resilient HTTP estimation service.
	EstimationServer = powerd.Server
	// EstimationServerConfig tunes the service.
	EstimationServerConfig = powerd.Config
)

// NewEstimationServer builds the resilient estimation service; serve
// its Handler() and stop it with Drain.
func NewEstimationServer(cfg EstimationServerConfig) *EstimationServer {
	return powerd.NewServer(cfg)
}
