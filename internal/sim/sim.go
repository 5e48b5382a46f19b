// Package sim simulates logic netlists and meters their power as
// switched capacitance. Two delay models are provided: the zero-delay
// model counts only functional (final-value) transitions, and the
// event-driven assigned-delay model additionally captures glitches —
// the spurious transitions whose suppression motivates the retiming and
// guarded-evaluation techniques of §III-I/J. Power follows the standard
// CMOS form P = 0.5·V²·f·ΣᵢCᵢEᵢ over all signal lines i.
//
// The engine is organized around contiguous cycle shards: a run is one
// or more [lo, hi) vector ranges simulated independently and folded
// together by a canonical per-cycle merge (see merge). The serial entry
// points run a single full-range shard; RunParallel splits the vector
// stream across a worker pool. Because every total — switched
// capacitance, per-group accounting, toggle counts — is reduced in
// cycle order regardless of sharding, parallel results are bit-identical
// to serial ones for the same seeded workload.
package sim

import (
	"math/bits"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// DelayModel selects how transitions are counted.
type DelayModel int

const (
	// ZeroDelay evaluates each cycle to its fixed point and counts one
	// transition per line whose settled value changed.
	ZeroDelay DelayModel = iota
	// EventDriven propagates events through per-gate delays within each
	// cycle and counts every output change, including glitches.
	EventDriven
)

// Options configures a simulation run.
type Options struct {
	Model DelayModel
	// Vdd and Freq convert switched capacitance into power via
	// P = 0.5·V²·f·ΣC·E; they default to 1.
	Vdd, Freq float64
	// TrackClock charges ClockCap per flip-flop per cycle to the
	// "clock" group (suppressed for EnDFFs whose enable is low when
	// GateClock is set).
	TrackClock bool
	// GateClock suppresses the clock charge of disabled EnDFFs,
	// modeling a gated clock tree.
	GateClock bool
}

// Result accumulates the outcome of a simulation.
type Result struct {
	Cycles      int
	SwitchedCap float64            // total ΣC over all transitions
	ByGroup     map[string]float64 // switched cap per accounting group
	Toggles     []int64            // transitions per signal
	Final       []bool             // settled values after the last cycle
	Outputs     [][]bool           // per-cycle settled primary outputs
	PerCycleCap []float64          // switched capacitance per cycle
	// Shards is how many vector shards actually ran (1 on the serial
	// entry points and on RunParallel's serial fallback).
	Shards int
	// Fallback is non-empty when RunParallel degraded to the serial
	// engine, naming why (FallbackSequential or FallbackShortRun), so
	// callers that requested parallelism can observe the degradation
	// instead of silently paying serial latency.
	Fallback string
	// Kernel names the execution tier that produced the result (every
	// shard, for parallel runs): KernelFused for the fused-
	// superinstruction 64-lane interpreter, KernelCodegen for the specialized evaluator of a
	// promoted netlist, KernelUnitDelay for the 64-lane event-driven
	// recurrence, KernelTable for a small sequential netlist's
	// (state, input) table, empty for the interpreted scalar engine
	// (the timing wheel, for event-driven runs). All tiers are Float64bits-identical;
	// the tag reports where the cycles were spent, never a different
	// answer.
	Kernel    string
	vdd, freq float64
}

// Power converts the accumulated switched capacitance into average
// power: 0.5·V²·f·(ΣC·E)/cycles.
func (r *Result) Power() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return 0.5 * r.vdd * r.vdd * r.freq * r.SwitchedCap / float64(r.Cycles)
}

// Energy returns total switched energy 0.5·V²·ΣC.
func (r *Result) Energy() float64 { return 0.5 * r.vdd * r.vdd * r.SwitchedCap }

// Clone deep-copies the result, including the private electrical
// parameters, so memoization layers can hand each caller an isolated
// value while keeping the stored original immutable.
func (r *Result) Clone() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	if r.ByGroup != nil {
		cp.ByGroup = make(map[string]float64, len(r.ByGroup))
		for k, v := range r.ByGroup {
			cp.ByGroup[k] = v
		}
	}
	cp.Toggles = append([]int64(nil), r.Toggles...)
	cp.Final = append([]bool(nil), r.Final...)
	cp.PerCycleCap = append([]float64(nil), r.PerCycleCap...)
	if r.Outputs != nil {
		cp.Outputs = make([][]bool, len(r.Outputs))
		for i, o := range r.Outputs {
			cp.Outputs[i] = append([]bool(nil), o...)
		}
	}
	return &cp
}

// SizeBytes approximates the result's in-memory footprint for cache
// byte accounting. It intentionally overcounts a little (map and slice
// headers) rather than under: eviction pressure should err toward
// keeping the cache below its budget.
func (r *Result) SizeBytes() int64 {
	if r == nil {
		return 0
	}
	size := int64(256) // struct, map header, slice headers
	size += int64(len(r.Toggles)) * 8
	size += int64(len(r.Final))
	size += int64(len(r.PerCycleCap)) * 8
	for k := range r.ByGroup {
		size += int64(len(k)) + 48
	}
	for _, o := range r.Outputs {
		size += int64(len(o)) + 24
	}
	return size
}

// InputProvider yields the primary-input assignment for each cycle.
type InputProvider func(cycle int) []bool

// VectorInputs adapts a pre-built list of input vectors. The returned
// provider is safe for concurrent use by RunParallel workers.
func VectorInputs(vectors [][]bool) InputProvider {
	return func(cycle int) []bool { return vectors[cycle] }
}

// Run simulates the netlist for the given number of cycles. A nil
// netlist, a non-positive cycle count, a missing input provider, or a
// wrong-width input vector is a typed input error (hlerr.IsInput).
func Run(n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (*Result, error) {
	return RunBudget(nil, n, inputs, cycles, opts)
}

// RunBudget is Run governed by a resource budget: every simulated cycle
// charges one step per gate, so long runs on large netlists respect
// deadlines and cancellation. On exhaustion the returned error matches
// budget.ErrExceeded.
func RunBudget(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (res *Result, err error) {
	defer hlerr.Recover(&err)
	e, err := prepare(n, inputs, cycles, opts)
	if err != nil {
		return nil, err
	}
	sh, err := runShard(b, e, inputs, 0, cycles, false)
	if err != nil {
		return nil, err
	}
	return merge(e, cycles, []*shard{sh}), nil
}

// env is the read-only, shard-shareable part of a run: netlist-derived
// tables computed once and read concurrently by every worker. Group
// names are interned to dense indices so shards can accumulate
// per-group capacitance in flat slices instead of maps.
type env struct {
	n          *logic.Netlist
	order      []int
	loads      []float64
	groups     []string // dense group index -> name
	groupOf    []int    // gate id -> dense group index
	clockGI    int      // dense index of the "clock" group (-1 when untracked)
	opts       Options
	sequential bool  // any DFF/EnDFF/Latch present
	ffs        []int // DFF/EnDFF ids, ascending: the clock edge's gates

	// Event-driven runs only: the ascending ids of the gates whose
	// value a cycle starts from (inputs, constants, DFF/EnDFF), and the
	// largest gate delay, which sizes the timing wheel.
	sources  []int
	maxDelay int
}

// MaxGateDelay is the largest logic.Gate.Delay an event-driven run
// accepts; delays must lie in [0, MaxGateDelay]. The event-driven
// engine keeps one pending-event bucket per tick of the largest delay
// in the netlist, so the bound caps that table.
const MaxGateDelay = 1024

// prepare validates a run's inputs and builds the shared environment.
func prepare(n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (*env, error) {
	if n == nil {
		return nil, hlerr.Errorf("sim.Run", "nil netlist")
	}
	if err := n.Err(); err != nil {
		return nil, err
	}
	if err := checkRun(inputs, cycles); err != nil {
		return nil, err
	}
	return prepareNet(n, opts)
}

// checkRun validates the per-run arguments (the parts of a run not
// fixed by a compiled netlist).
func checkRun(inputs InputProvider, cycles int) error {
	if cycles <= 0 {
		return hlerr.Errorf("sim.Run", "cycle count %d must be positive", cycles)
	}
	if inputs == nil {
		return hlerr.Errorf("sim.Run", "nil input provider")
	}
	return nil
}

// fetchVec returns a cycle's input vector, or a typed input error when
// its width is not the netlist's input count.
func fetchVec(n *logic.Netlist, inputs InputProvider, cycle int) ([]bool, error) {
	vec := inputs(cycle)
	if len(vec) != len(n.Inputs) {
		return nil, hlerr.Errorf("sim.Run", "input vector width %d, want %d", len(vec), len(n.Inputs))
	}
	return vec, nil
}

// prepareNet builds the netlist-derived environment — the read-only
// tables every run over this netlist shares. Split from prepare so
// Compile can pay this once for a whole batch of runs.
func prepareNet(n *logic.Netlist, opts Options) (*env, error) {
	if n == nil {
		return nil, hlerr.Errorf("sim.Run", "nil netlist")
	}
	if err := n.Err(); err != nil {
		return nil, err
	}
	if opts.Vdd == 0 {
		opts.Vdd = 1
	}
	if opts.Freq == 0 {
		opts.Freq = 1
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &env{
		n:       n,
		order:   order,
		loads:   n.Loads(),
		groupOf: make([]int, len(n.Gates)),
		clockGI: -1,
		opts:    opts,
	}
	ed := opts.Model == EventDriven
	idx := map[string]int{}
	for id, g := range n.Gates {
		gi, ok := idx[g.Group]
		if !ok {
			gi = len(e.groups)
			idx[g.Group] = gi
			e.groups = append(e.groups, g.Group)
		}
		e.groupOf[id] = gi
		if g.Kind.IsSequential() || g.Kind == logic.Latch {
			e.sequential = true
		}
		if g.Kind.IsSequential() {
			e.ffs = append(e.ffs, id)
		}
		if !ed {
			continue
		}
		if g.Delay < 0 || g.Delay > MaxGateDelay {
			return nil, hlerr.Errorf("sim.Run", "gate %d delay %d outside [0,%d]", id, g.Delay, MaxGateDelay)
		}
		e.maxDelay = max(e.maxDelay, g.Delay)
		if isSource(g.Kind) {
			e.sources = append(e.sources, id)
		}
	}
	if opts.TrackClock {
		gi, ok := idx["clock"]
		if !ok {
			gi = len(e.groups)
			e.groups = append(e.groups, "clock")
		}
		e.clockGI = gi
	}
	return e, nil
}

// shard accumulates one contiguous cycle range [lo, hi). Every total is
// kept per cycle (capacitance, group deltas) or in an associative form
// (toggle counts), so any sharding of the run merges to bit-identical
// results.
type shard struct {
	lo, hi   int
	toggles  []int64
	capByCyc []float64   // switched cap per cycle, indexed cycle-lo
	grpByCyc [][]float64 // per cycle, per dense group index
	outputs  [][]bool
	final    []bool
}

// runShard simulates cycles [lo, hi). The first shard (lo == 0) starts
// from the reset state exactly as the original serial engine did; later
// shards — valid only for state-free netlists — rebuild their
// transition baseline by settling the previous shard's last input
// vector, so transition counting across the shard boundary matches a
// serial run cycle for cycle. A lean shard (RunOptions.Lean) keeps only
// the toggles and per-cycle capacitance, accumulated in the same order.
func runShard(b *budget.Budget, e *env, inputs InputProvider, lo, hi int, lean bool) (sh *shard, err error) {
	defer hlerr.Recover(&err)
	n := e.n
	sh = &shard{
		lo: lo, hi: hi,
		toggles:  make([]int64, len(n.Gates)),
		capByCyc: make([]float64, hi-lo),
	}
	var outFlat []bool
	if !lean {
		sh.grpByCyc = make([][]float64, hi-lo)
		grpFlat := make([]float64, (hi-lo)*len(e.groups))
		for i := range sh.grpByCyc {
			sh.grpByCyc[i] = grpFlat[i*len(e.groups) : (i+1)*len(e.groups)]
		}
		// Per-cycle output rows are views into one flat backing array;
		// the hot loop must not allocate per cycle.
		sh.outputs = make([][]bool, 0, hi-lo)
		outFlat = make([]bool, (hi-lo)*len(n.Outputs))
	}

	values := make([]bool, len(n.Gates)) // settled values
	state := make([]bool, len(n.Gates))  // DFF/EnDFF/Latch state
	for id, g := range n.Gates {
		if g.Kind.IsSequential() || g.Kind == logic.Latch {
			state[id] = g.Init
		}
	}

	cur := 0 // index of the cycle being simulated, relative to lo
	record := func(id int) {
		sh.toggles[id]++
		sh.capByCyc[cur] += e.loads[id]
		if !lean {
			sh.grpByCyc[cur][e.groupOf[id]] += e.loads[id]
		}
	}

	inVals := make([]bool, len(n.Inputs))
	faninBuf := make([]bool, 0, 8)
	evalSettled := func() {
		for _, id := range e.order {
			g := &n.Gates[id]
			switch g.Kind {
			case logic.Input, logic.Const1, logic.Const0:
				// already set (inputs) or constant
				if g.Kind == logic.Const1 {
					values[id] = true
				} else if g.Kind == logic.Const0 {
					values[id] = false
				}
			case logic.DFF, logic.EnDFF:
				values[id] = state[id]
			case logic.Latch:
				if values[g.Fanin[0]] {
					state[id] = values[g.Fanin[1]]
				}
				values[id] = state[id]
			default:
				faninBuf = faninBuf[:0]
				for _, f := range g.Fanin {
					faninBuf = append(faninBuf, values[f])
				}
				values[id] = logic.EvalGate(g.Kind, faninBuf)
			}
		}
	}
	// Baseline: transitions in the shard's first cycle are counted
	// against the settled values of the previous input vector (vector 0
	// for the first shard, matching the serial reset initialization).
	base := lo - 1
	if base < 0 {
		base = 0
	}
	vec, err := fetchVec(n, inputs, base)
	if err != nil {
		return nil, err
	}
	for i, sig := range n.Inputs {
		values[sig] = vec[i]
	}
	evalSettled()

	prev := make([]bool, len(n.Gates))
	var ed *edScratch
	if e.opts.Model == EventDriven {
		ed = newEDScratch(n, e.maxDelay)
	}
	for cycle := lo; cycle < hi; cycle++ {
		b.Check(int64(len(e.order)) + 1)
		cur = cycle - lo
		copy(prev, values)
		vec, err := fetchVec(n, inputs, cycle)
		if err != nil {
			return nil, err
		}
		copy(inVals, vec)

		// Clock edge between cycles: update flip-flop state from the
		// previous cycle's settled D. Cycle 0 runs from the reset state.
		if cycle > 0 {
			for _, id := range e.ffs {
				g := &n.Gates[id]
				if g.Kind == logic.DFF {
					state[id] = prev[g.Fanin[0]]
				} else if prev[g.Fanin[0]] {
					state[id] = prev[g.Fanin[1]]
				}
			}
			// Clock tree power for this edge.
			if e.opts.TrackClock {
				for _, id := range e.ffs {
					g := &n.Gates[id]
					if g.Kind == logic.EnDFF && e.opts.GateClock && !prev[g.Fanin[0]] {
						continue
					}
					sh.capByCyc[cur] += n.ClockCap
					if !lean {
						sh.grpByCyc[cur][e.clockGI] += n.ClockCap
					}
				}
			}
		}
		for i, sig := range n.Inputs {
			values[sig] = inVals[i]
		}

		if e.opts.Model == EventDriven {
			simulateEventDriven(b, e, values, state, prev, record, ed)
		} else {
			evalSettled()
			for id := range values {
				if values[id] != prev[id] {
					record(id)
				}
			}
		}

		if lean {
			continue
		}
		out := outFlat[cur*len(n.Outputs) : (cur+1)*len(n.Outputs) : (cur+1)*len(n.Outputs)]
		for i, o := range n.Outputs {
			out[i] = values[o]
		}
		sh.outputs = append(sh.outputs, out)
	}
	if !lean {
		sh.final = values
	}
	return sh, nil
}

// merge folds shards (contiguous, ascending) into a Result. All
// floating-point totals are reduced in canonical cycle order — never in
// shard-completion or per-load order — so the outcome is independent of
// how the run was sharded, including the 1-shard serial case.
func merge(e *env, cycles int, shards []*shard) *Result {
	// Lean shards (RunOptions.Lean) never materialized group rows or
	// output vectors; skip their Result fields rather than allocating
	// empties. Every numeric reduction below is untouched by leanness.
	lean := len(shards) > 0 && shards[0].grpByCyc == nil && cycles > 0
	res := &Result{
		Cycles:      cycles,
		Toggles:     make([]int64, len(e.n.Gates)),
		PerCycleCap: make([]float64, 0, cycles),
		Shards:      len(shards),
		vdd:         e.opts.Vdd,
		freq:        e.opts.Freq,
	}
	var grpTotal []float64
	if !lean {
		res.ByGroup = make(map[string]float64)
		res.Outputs = make([][]bool, 0, cycles)
		grpTotal = make([]float64, len(e.groups))
	}
	for _, sh := range shards {
		for id, tgl := range sh.toggles {
			res.Toggles[id] += tgl
		}
		res.PerCycleCap = append(res.PerCycleCap, sh.capByCyc...)
		for _, row := range sh.grpByCyc {
			for gi, v := range row {
				grpTotal[gi] += v
			}
		}
		if !lean {
			res.Outputs = append(res.Outputs, sh.outputs...)
		}
	}
	for _, c := range res.PerCycleCap {
		res.SwitchedCap += c
	}
	for gi, v := range grpTotal {
		if v != 0 {
			res.ByGroup[e.groups[gi]] = v
		}
	}
	if len(shards) > 0 {
		res.Final = shards[len(shards)-1].final
	}
	return res
}

// isSource reports whether a gate's value is fixed at the start of a
// cycle (primary input, constant, flip-flop output) rather than
// computed from its fanins during the cycle.
func isSource(k logic.Kind) bool {
	return k == logic.Input || k == logic.Const0 || k == logic.Const1 || k.IsSequential()
}

// edScratch is the per-shard scratch of the event-driven engine: a
// timing wheel of pending gate evaluations, the fanout lists it
// schedules from, and the round buffers. Only the wheel reads fanout
// lists, so they are built here, per shard: a Compile whose artifact
// never runs the wheel pays nothing for them.
// Every pending event lies within maxDelay ticks of the current time,
// so a ring of maxDelay+1 buckets, one per tick, holds them all
// without collisions: the event d ticks from now sits d buckets past
// the current one. Each bucket is a bitset over gate ids: scheduling a
// gate twice for one time is a no-op, and draining a bucket yields its
// gates in ascending id order without sorting.
type edScratch struct {
	fanouts  [][]int  // per gate id: the gates reading it
	words    int      // bitset words per bucket
	wheel    []uint64 // bucket k is wheel[k*words : (k+1)*words]
	count    []int    // set bits per bucket
	cur      int      // bucket of the current time
	pending  int      // set bits over all buckets
	ids      []int
	faninBuf []bool
	commits  []edCommit
}

type edCommit struct {
	gate int
	val  bool
}

func newEDScratch(n *logic.Netlist, maxDelay int) *edScratch {
	words := (len(n.Gates) + 63) / 64
	return &edScratch{
		fanouts:  n.Fanouts(),
		words:    words,
		wheel:    make([]uint64, (maxDelay+1)*words),
		count:    make([]int, maxDelay+1),
		faninBuf: make([]bool, 0, 8),
	}
}

// schedule queues gate g for evaluation d ticks from now.
func (s *edScratch) schedule(d, g int) {
	k := s.cur + d
	if k >= len(s.count) {
		k -= len(s.count)
	}
	w := &s.wheel[k*s.words+g>>6]
	if bit := uint64(1) << (g & 63); *w&bit == 0 {
		*w |= bit
		s.count[k]++
		s.pending++
	}
}

// advance moves the current time to the earliest pending one.
func (s *edScratch) advance() {
	for s.count[s.cur] == 0 {
		if s.cur++; s.cur == len(s.count) {
			s.cur = 0
		}
	}
}

// drain empties the current bucket into s.ids, in ascending id order.
func (s *edScratch) drain() {
	k := s.cur
	bucket := s.wheel[k*s.words : (k+1)*s.words]
	s.ids = s.ids[:0]
	for w := 0; len(s.ids) < s.count[k]; w++ {
		x := bucket[w]
		bucket[w] = 0
		for x != 0 {
			s.ids = append(s.ids, w<<6|bits.TrailingZeros64(x))
			x &= x - 1
		}
	}
	s.pending -= s.count[k]
	s.count[k] = 0
}

// simulateEventDriven settles one clock cycle under per-gate delays,
// counting every output change (functional transitions and glitches).
// values holds the new source values (inputs and FF outputs already
// updated); prev holds last cycle's settled values. s carries reusable
// scratch across cycles and must not be shared between shards.
//
// A round evaluates every gate pending at the earliest pending time t,
// then commits. Gates are evaluated and committed in ascending id
// order, so capacitance accumulates in the same order every run; a
// zero-delay fanout lands back in t's bucket and runs as one more round
// at the same time. Each round charges the budget one step.
func simulateEventDriven(b *budget.Budget, e *env, values, state, prev []bool, record func(int), s *edScratch) {
	n := e.n
	// Seed: any source whose value changed triggers its fanouts. The
	// wheel is empty between cycles, so the cycle's time 0 can be
	// whichever bucket is current.
	for _, id := range e.sources {
		g := &n.Gates[id]
		if g.Kind.IsSequential() {
			values[id] = state[id]
		}
		if values[id] != prev[id] {
			record(id)
			for _, f := range s.fanouts[id] {
				s.schedule(n.Gates[f].Delay, f)
			}
		}
	}
	for s.pending > 0 {
		s.advance()
		b.Check(1)
		// Phase 1: evaluate every gate scheduled now against the values
		// as of now (no in-step visibility, or glitches are lost).
		s.drain()
		s.commits = s.commits[:0]
		for _, id := range s.ids {
			g := &n.Gates[id]
			if isSource(g.Kind) {
				continue
			}
			var newVal bool
			if g.Kind == logic.Latch {
				v := state[id]
				if values[g.Fanin[0]] {
					v = values[g.Fanin[1]]
				}
				newVal = v
			} else {
				s.faninBuf = s.faninBuf[:0]
				for _, f := range g.Fanin {
					s.faninBuf = append(s.faninBuf, values[f])
				}
				newVal = logic.EvalGate(g.Kind, s.faninBuf)
			}
			if newVal != values[id] {
				s.commits = append(s.commits, edCommit{id, newVal})
			}
		}
		// Phase 2: commit, count transitions, schedule fanouts.
		for _, c := range s.commits {
			values[c.gate] = c.val
			if n.Gates[c.gate].Kind == logic.Latch {
				state[c.gate] = c.val
			}
			record(c.gate)
			for _, f := range s.fanouts[c.gate] {
				s.schedule(n.Gates[f].Delay, f)
			}
		}
	}
}
