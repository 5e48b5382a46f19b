// Vector-sharded Monte Carlo simulation. Switched-capacitance
// estimation over a stream of statistically independent input vectors
// is embarrassingly parallel: each worker simulates a contiguous block
// of the vector stream with a private accumulator, and the blocks are
// folded together by the canonical per-cycle merge, so the parallel
// result is bit-identical to the serial one — the property the
// determinism tests pin.
package sim

import (
	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// DefaultMinShard is the smallest cycle block worth handing to a
// worker: below it, the extra baseline settle and merge bookkeeping
// cost more than the parallelism recovers.
const DefaultMinShard = 32

// ParallelOptions configures a sharded Monte Carlo run.
type ParallelOptions struct {
	Options
	// Workers bounds the worker pool; nonpositive means one worker per
	// available CPU (GOMAXPROCS). Callers that already parallelize at a
	// coarser grain (e.g. cmd/repro -j) should divide the machine
	// between the levels rather than multiply them.
	Workers int
}

// Serial-fallback reasons reported in Result.Fallback when RunParallel
// degrades to one shard.
const (
	// FallbackSequential: the netlist carries state across cycles (a
	// DFF, EnDFF or Latch), so vector sharding would be unsound: each
	// shard rebuilds its transition baseline by replaying the previous
	// vector, which restores no state.
	FallbackSequential = "sequential-netlist"
	// FallbackShortRun: the run could not be cut into at least two
	// DefaultMinShard-sized shards for the available workers, so
	// parallelism would cost more than it buys.
	FallbackShortRun = "short-run"
)

// RunParallel is RunBudget with the input vectors split across a
// bounded worker pool. Each worker simulates a contiguous cycle block
// into a private accumulator under its own forked budget share; blocks
// merge in canonical cycle order, so for a fixed seeded workload the
// result is bit-identical to Run/RunBudget regardless of the worker
// count. The input provider must be safe for concurrent use
// (VectorInputs is). Netlists with sequential elements (any DFF, EnDFF
// or Latch) and runs too short to shard take the serial path inside
// this call — same results, one goroutine — and the degradation is
// observable: Result.Fallback names the reason and Result.Shards
// reports 1.
func RunParallel(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int, opts ParallelOptions) (res *Result, err error) {
	defer hlerr.Recover(&err)
	if n == nil {
		return nil, hlerr.Errorf("sim.Run", "nil netlist")
	}
	if err := n.Err(); err != nil {
		return nil, err
	}
	if err := checkRun(inputs, cycles); err != nil {
		return nil, err
	}
	// Shards run on the bit-packed kernel whenever the workload allows
	// (combinational netlist, zero-delay model): same bit-identical
	// results, a fraction of the per-gate cost. Compilation — tables and
	// the levelized program, shared read-only by every worker — is the
	// one-shot form of what sim.Compile amortizes across a batch.
	c, err := Compile(n, opts.Options)
	if err != nil {
		return nil, err
	}
	return c.Run(b, inputs, cycles, RunOptions{Workers: opts.Workers})
}
