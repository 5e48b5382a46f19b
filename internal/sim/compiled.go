// Compiled simulation artifacts. A single estimation request pays the
// whole netlist setup cost — validation, topological ordering, load
// tables, levelized compilation and fusion into the struct-of-arrays
// program — before the first cycle simulates. A batched pipeline
// amortizes that cost: Compile performs the setup once and the
// resulting Compiled value runs any number of workloads (different
// cycle counts, seeds, worker counts) over the shared tables, reusing
// the packed kernel's word-plane scratch across runs through a pool.
// Every run is bit-identical to the serial engine (Run) — the compiled
// artifact changes where the work happens, never what it computes.
package sim

import (
	"sync"
	"sync/atomic"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
	"hlpower/internal/par"
)

// Compiled is a netlist prepared once for repeated simulation runs
// under fixed electrical options: the shared environment tables plus —
// for combinational netlists under the zero-delay model — the fused-
// superinstruction program (logic.Fuse of the levelized logic.Program)
// the 64-lane packed kernel executes; or — for event-driven options
// over a unit-delay, feed-forward netlist — the unit-delay program lean
// runs execute 64 cycles at a time; or — for a zero-delay sequential
// netlist with no Latch and at most 6 flip-flop and input bits — the
// (state, input) table lean runs read each cycle's values from. Safe
// for concurrent use: the tables and programs are read-only after
// Compile, and the mutable kernel scratch is pooled per run.
type Compiled struct {
	e     *env
	fused *logic.FusedProgram // nil: no zero-delay packed kernel (sequential or event-driven)
	ud    *unitDelay          // non-nil: lean event-driven runs take the unit-delay path
	tab   *tableRun           // non-nil: lean zero-delay runs take the table path

	// codegen holds the specialized evaluator once BuildCodegen has run.
	// An atomic pointer so a serving layer can swap it in off the request
	// path while runs are in flight: a run observes either nil (fused
	// tier) or a fully built program, never a partial one.
	codegen atomic.Pointer[codegenProgram]

	// scratch pools the packed kernel's per-shard mutable state — word
	// planes plus the shard's numeric accumulators — so steady-state
	// runs over a hot netlist allocate nothing in the kernel. Scratch
	// is returned only after merge has copied the accumulators out.
	scratch sync.Pool

	// Pool observability: Gets counts scratch acquisitions, News counts
	// the ones the pool had to allocate; Gets-News is the hit count.
	scratchGets atomic.Int64
	scratchNews atomic.Int64
}

// Compile prepares a netlist for repeated runs under opts.
// Combinational zero-delay netlists get the fused packed-kernel
// program. Event-driven options over a netlist whose gates all have
// Delay 1 and whose flip-flops (DFFs only, no latches) sit in no
// feedback loop get the unit-delay program, which lean runs execute 64
// cycles at a time with the timing wheel's exact results and budget
// charges. Zero-delay sequential netlists with no Latch and at most 6
// flip-flop and input bits get their (state, input) table, which lean
// runs read with the interpreted engine's exact results and budget
// charges. Everything else compiles to a scalar-only artifact (runs
// degrade exactly like RunParallel, with the reason in
// Result.Fallback). Netlist construction errors and combinational
// cycles surface here, once, rather than on every run.
func Compile(n *logic.Netlist, opts Options) (_ *Compiled, err error) {
	defer hlerr.Recover(&err)
	e, err := prepareNet(n, opts)
	if err != nil {
		return nil, err
	}
	c := &Compiled{e: e, ud: compileUnitDelay(e)}
	switch {
	case opts.Model != ZeroDelay:
	case e.sequential:
		if t := tabulate(n); t != nil {
			c.tab = newTableRun(e, t)
		}
	default:
		if c.fused, err = compileFused(e); err != nil {
			return nil, err
		}
	}
	nGates := len(n.Gates)
	c.scratch.New = func() any {
		c.scratchNews.Add(1)
		return newPackedScratch(nGates)
	}
	return c, nil
}

// getScratch acquires pooled kernel scratch, counting the acquisition.
func (c *Compiled) getScratch() *packedScratch {
	c.scratchGets.Add(1)
	return c.scratch.Get().(*packedScratch)
}

// NumGates returns the gate count of the compiled netlist.
func (c *Compiled) NumGates() int { return len(c.e.n.Gates) }

// Netlist returns the netlist the artifact was compiled from.
func (c *Compiled) Netlist() *logic.Netlist { return c.e.n }

// Packed reports whether runs may execute on the 64-lane bit-packed
// kernel (combinational netlist, zero-delay model).
func (c *Compiled) Packed() bool { return c.fused != nil }

// FusedMix returns the fused program's opcode mix — instruction count
// per fused-op name — or nil for scalar-only artifacts.
func (c *Compiled) FusedMix() map[string]int64 {
	if c.fused == nil {
		return nil
	}
	return c.fused.Mix()
}

// FusedGroups returns the fused instruction count (dispatches per
// settle), 0 for scalar-only artifacts.
func (c *Compiled) FusedGroups() int {
	if c.fused == nil {
		return 0
	}
	return c.fused.NumGroups()
}

// FusedAbsorbed returns how many source instructions fusion absorbed
// into superinstructions, 0 for scalar-only artifacts.
func (c *Compiled) FusedAbsorbed() int {
	if c.fused == nil {
		return 0
	}
	return c.fused.Absorbed()
}

// ScratchStats reports pool traffic: total scratch acquisitions and how
// many of them allocated (gets − news is the pool hit count).
func (c *Compiled) ScratchStats() (gets, news int64) {
	return c.scratchGets.Load(), c.scratchNews.Load()
}

// BuildCodegen builds the specialized (code-generated) evaluator for
// this artifact and atomically swaps it in: runs that start after the
// swap execute on the codegen tier (unless RunOptions.NoCodegen), runs
// already in flight finish on the fused tier — both produce Float64bits-
// identical results. Scalar-only artifacts (sequential netlists,
// event-driven options) have no fused program to specialize and return
// an error; callers are expected to keep serving the existing tier on
// any error. Safe for concurrent use; the last build wins.
func (c *Compiled) BuildCodegen() (err error) {
	defer hlerr.Recover(&err)
	if c.fused == nil {
		return hlerr.Errorf("sim.Codegen", "scalar-only artifact: no fused program to specialize")
	}
	c.codegen.Store(newCodegenProgram(c.fused))
	return nil
}

// HasCodegen reports whether the specialized evaluator is built and
// live for this artifact.
func (c *Compiled) HasCodegen() bool { return c.codegen.Load() != nil }

// CodegenStats reports the specialized evaluator's shape — number of
// (level, opcode) runs (indirect calls per settle) and dependency
// levels — or zeros when it is not built.
func (c *Compiled) CodegenStats() (runs, levels int) {
	cg := c.codegen.Load()
	if cg == nil {
		return 0, 0
	}
	return cg.runs, cg.levels
}

// WordInputs supplies a cycle's input vector pre-packed into one word:
// bit i holds the value of netlist input i. For callers whose operands
// already live in words (the service's Monte Carlo streams), this skips
// the per-cycle []bool round trip the InputProvider interface forces —
// the packed kernel reads the same bits either way.
type WordInputs func(cycle int) uint64

// RunOptions are the per-run execution knobs of a compiled netlist; the
// electrical options were fixed at Compile time.
type RunOptions struct {
	// Workers bounds the shard worker pool exactly as
	// ParallelOptions.Workers does.
	Workers int
	// NoCodegen forces the fused interpreter even when the specialized
	// evaluator is built. Serving layers use it to keep fault-armed
	// requests off the promoted tier; results are bit-identical either
	// way, only Result.Kernel differs.
	NoCodegen bool
	// Words, when non-nil, feeds the packed kernel pre-packed input
	// words instead of calling the InputProvider per cycle. It MUST
	// agree bit for bit with the provider — the provider remains the
	// source of truth for validation and for every scalar path
	// (sequential or event-driven artifacts), so a mismatch would
	// silently break the packed/scalar equivalence. Ignored when the
	// netlist has more than 64 inputs or the packed kernel is not
	// running.
	Words WordInputs
	// Lean skips materializing the per-cycle output vectors, the
	// per-group energy attribution, and the final settled values —
	// Result.Outputs, Result.ByGroup, and Result.Final come back empty.
	// Everything a power figure is built from (SwitchedCap, Power,
	// PerCycleCap, Toggles, Shards/Fallback) is computed in the exact
	// same canonical order and is bit-identical to a full run, and so
	// are the budget charges. Lean event-driven runs over a unit-delay
	// artifact run on KernelUnitDelay instead of the timing wheel, and
	// lean zero-delay runs over a tabulated sequential netlist on
	// KernelTable instead of the interpreted engine.
	Lean bool
}

// Run simulates one workload over the compiled netlist. It is
// bit-identical to RunParallel over the same netlist, options, and
// workload — including the Shards/Fallback metadata, and the Kernel
// tag of a full run — with the per-request setup already paid.
func (c *Compiled) Run(b *budget.Budget, inputs InputProvider, cycles int, opts RunOptions) (res *Result, err error) {
	defer hlerr.Recover(&err)
	if err := checkRun(inputs, cycles); err != nil {
		return nil, err
	}
	e := c.e
	fused := c.fused
	ud, tab := c.ud, c.tab
	var cg *codegenProgram
	if fused != nil && !opts.NoCodegen {
		cg = c.codegen.Load()
	}
	if !opts.Lean {
		ud, tab = nil, nil
	}
	// Kernel names the tier that actually executes: the specialized
	// evaluator when promoted, else the fused interpreter, else the
	// unit-delay recurrence, else the state table, else (for scalar
	// runs) the interpreted engine's empty tag.
	kernel := ""
	switch {
	case cg != nil:
		kernel = KernelCodegen
	case fused != nil:
		kernel = KernelFused
	case ud != nil:
		kernel = KernelUnitDelay
	case tab != nil:
		kernel = KernelTable
	}
	pooled := fused != nil || ud != nil
	words := opts.Words
	if len(e.n.Inputs) > 64 {
		words = nil
	}
	// Shard accumulators live on pooled scratch, which merge reads;
	// every acquired scratch is therefore returned only at function
	// exit, after merge has copied the values into the Result.
	var scratches []*packedScratch
	defer func() {
		for _, sc := range scratches {
			c.scratch.Put(sc)
		}
	}()
	run := func(wb *budget.Budget, lo, hi int, sc *packedScratch) (*shard, error) {
		if fused != nil {
			return runShardPacked(wb, e, fused, cg, inputs, words, opts.Lean, lo, hi, sc)
		}
		if ud != nil {
			return runShardUnitDelay(wb, e, ud, inputs, lo, hi, sc)
		}
		if tab != nil { // sequential, so one shard: lo is 0
			return runShardTable(wb, e, tab, inputs, hi)
		}
		return runShard(wb, e, inputs, lo, hi, opts.Lean)
	}
	workers := par.Workers(opts.Workers)
	parts := cycles / DefaultMinShard
	if parts > workers {
		parts = workers
	}
	if e.sequential || parts < 2 {
		var sc *packedScratch
		if pooled {
			sc = c.getScratch()
			scratches = append(scratches, sc)
		}
		sh, err := run(b, 0, cycles, sc)
		if err != nil {
			return nil, err
		}
		res := merge(e, cycles, []*shard{sh})
		if e.sequential {
			res.Fallback = FallbackSequential
		} else {
			res.Fallback = FallbackShortRun
		}
		res.Kernel = kernel
		return res, nil
	}
	spans := par.Shards(cycles, parts)
	if pooled {
		// Pre-acquire one scratch per shard: workers must never share
		// scratch, and acquisition inside the worker would race the pool.
		scratches = make([]*packedScratch, len(spans))
		for i := range scratches {
			scratches[i] = c.getScratch()
		}
	}
	shards, err := par.Map(b, workers, len(spans), func(i int, wb *budget.Budget) (*shard, error) {
		var sc *packedScratch
		if scratches != nil {
			sc = scratches[i]
		}
		return run(wb, spans[i].Lo, spans[i].Hi, sc)
	})
	if err != nil {
		return nil, err
	}
	res = merge(e, cycles, shards)
	res.Kernel = kernel
	return res, nil
}

// packedScratch is the packed kernel's per-shard mutable state: the
// 64-lane word and carry planes, the one-block cycle-word buffer for
// the WordInputs gather, one block's lane bins and the (word, load)
// lists a lean extraction hands addLanes, and the shard's numeric
// accumulators (toggle counts, per-cycle capacitance, flat group
// rows). Planes are fully rewritten before they are read; accumulators
// are zeroed on acquisition — so recycled scratch cannot leak state
// between runs. Buffers grow to the largest request seen and are
// resliced per run: the word plane in particular must be exactly
// nGates long, because the toggle-extraction loop ranges over it.
type packedScratch struct {
	words    []uint64
	carry    []uint64
	state    []uint64   // unit-delay path: the recurrence's current step
	commits  []udCommit // unit-delay path: one step's changed gates
	cyc      [64]uint64
	bins     [64]float64 // one block's per-cycle capacitance
	tw       []uint64    // lean extraction: one block's toggle words...
	lw       []float64   // ...and the loads they add, in charge order
	toggles  []int64
	capByCyc []float64
	grpFlat  []float64
	grpRows  [][]float64
}

func newPackedScratch(nGates int) *packedScratch {
	return &packedScratch{
		words: make([]uint64, nGates),
		carry: make([]uint64, nGates),
	}
}

// planes returns the word and carry planes sized exactly to nGates.
func (sc *packedScratch) planes(nGates int) (words, carry []uint64) {
	if cap(sc.words) < nGates {
		sc.words = make([]uint64, nGates)
	}
	if cap(sc.carry) < nGates {
		sc.carry = make([]uint64, nGates)
	}
	sc.words, sc.carry = sc.words[:nGates], sc.carry[:nGates]
	return sc.words, sc.carry
}

// unitDelayState returns the unit-delay recurrence's state plane, sized
// exactly to nGates, and an empty commit buffer that holds a whole step
// without growing.
func (sc *packedScratch) unitDelayState(nGates int) (state []uint64, commits []udCommit) {
	if cap(sc.state) < nGates {
		sc.state = make([]uint64, nGates)
		sc.commits = make([]udCommit, 0, nGates)
	}
	return sc.state[:nGates], sc.commits[:0]
}

// laneLists returns the empty (word, load) lists of one block's lean
// extraction, with room for n pairs so that appends never allocate.
func (sc *packedScratch) laneLists(n int) (tw []uint64, lw []float64) {
	if cap(sc.tw) < n {
		sc.tw = make([]uint64, 0, n)
		sc.lw = make([]float64, 0, n)
	}
	return sc.tw[:0], sc.lw[:0]
}

// togglesFor returns the zeroed per-net toggle accumulator.
func (sc *packedScratch) togglesFor(nGates int) []int64 {
	if cap(sc.toggles) < nGates {
		sc.toggles = make([]int64, nGates)
	}
	sc.toggles = sc.toggles[:nGates]
	clear(sc.toggles)
	return sc.toggles
}

// capFor returns the zeroed per-cycle capacitance accumulator.
func (sc *packedScratch) capFor(cycles int) []float64 {
	if cap(sc.capByCyc) < cycles {
		sc.capByCyc = make([]float64, cycles)
	}
	sc.capByCyc = sc.capByCyc[:cycles]
	clear(sc.capByCyc)
	return sc.capByCyc
}

// grpFor returns the zeroed flat per-cycle-per-group accumulator and
// its per-cycle row views.
func (sc *packedScratch) grpFor(cycles, ng int) ([]float64, [][]float64) {
	if cap(sc.grpFlat) < cycles*ng {
		sc.grpFlat = make([]float64, cycles*ng)
	}
	sc.grpFlat = sc.grpFlat[:cycles*ng]
	clear(sc.grpFlat)
	if cap(sc.grpRows) < cycles {
		sc.grpRows = make([][]float64, cycles)
	}
	sc.grpRows = sc.grpRows[:cycles]
	for i := range sc.grpRows {
		sc.grpRows[i] = sc.grpFlat[i*ng : (i+1)*ng]
	}
	return sc.grpFlat, sc.grpRows
}
