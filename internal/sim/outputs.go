package sim

import (
	"math/bits"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// OutputWords evaluates the netlist's zero-delay function over a
// workload: out[c] holds the settled primary outputs under inputs(c),
// bit i for output i. It is the functional evaluation the input–output
// macro-models regress on, without the power metering of Run: each
// pass settles 64 cycles on the fused program over pooled scratch and
// skips the transition baseline, toggle extraction and capacitance
// accumulation. Every settle writes the same net words Run's would, so
// the outputs are exactly the per-cycle values a full run records. The
// budget is charged as Run charges a workload of the same length — one
// step per gate per cycle plus one — so callers bound it like any other
// simulation.
//
// The artifact must carry the packed program (a combinational netlist
// compiled under the zero-delay model) with at most 64 inputs and 64
// outputs; anything else is a typed input error.
func (c *Compiled) OutputWords(b *budget.Budget, inputs WordInputs, cycles int) (out []uint64, err error) {
	defer hlerr.Recover(&err)
	n := c.e.n
	switch {
	case c.fused == nil:
		return nil, hlerr.Errorf("sim.OutputWords", "no packed program: netlist is sequential or compiled event-driven")
	case len(n.Inputs) > 64 || len(n.Outputs) > 64:
		return nil, hlerr.Errorf("sim.OutputWords", "%d inputs and %d outputs, want at most 64 each", len(n.Inputs), len(n.Outputs))
	case inputs == nil:
		return nil, hlerr.Errorf("sim.OutputWords", "nil input words")
	case cycles <= 0:
		return nil, hlerr.Errorf("sim.OutputWords", "cycle count %d must be positive", cycles)
	}
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	words, _ := sc.planes(len(n.Gates))
	blk := &sc.cyc
	out = make([]uint64, cycles)
	perCycle := int64(len(c.e.order)) + 1
	for w0 := 0; w0 < cycles; w0 += 64 {
		lanes := min(cycles-w0, 64)
		b.Check(int64(lanes) * perCycle)
		gatherWords(n, inputs, words, blk, w0, lanes)
		execFused(c.fused, words)
		// And back: output planes in, one output word per cycle out.
		for i, o := range n.Outputs {
			blk[i] = words[o]
		}
		clear(blk[len(n.Outputs):])
		transpose64(blk)
		copy(out[w0:], blk[:lanes])
	}
	return out, nil
}

// Outputs returns the settled primary outputs of a zero-delay run of
// the artifact's netlist: out[c] holds cycle c's outputs, bit i for
// output i. Whatever options the artifact was compiled under, the
// words are RunBudget's Result.Outputs under Options{}, and b is
// charged exactly as RunBudget charges it — vector 0 is checked before
// any charge, then each cycle charges one step per gate plus one, in
// cycle order, and a wrong-width vector fails after its own cycle's
// charge — so step-limit trips, fault-plan check points and
// cancellation land where they land on RunBudget. Equivalence checking
// reads nothing else of a run.
//
// The path is the plan Compile made for the netlist's shape, never an
// option:
//   - the unit-delay program's feed-forward settle (event-driven
//     options over a unit-delay netlist with no Latch or EnDFF and no
//     cycle through a DFF) or the fused program (a combinational
//     netlist under the zero-delay model): 64 cycles per block;
//   - the state table (a zero-delay sequential netlist with no Latch
//     and at most 6 flip-flop and input bits): one lookup per cycle;
//   - anything else: RunBudget, its output rows packed into words.
//
// Argument errors are RunBudget's; more than 64 outputs is a typed
// input error.
func (c *Compiled) Outputs(b *budget.Budget, inputs InputProvider, cycles int) (out []uint64, err error) {
	defer hlerr.Recover(&err)
	n := c.e.n
	if err := checkRun(inputs, cycles); err != nil {
		return nil, err
	}
	if len(n.Outputs) > 64 {
		return nil, hlerr.Errorf("sim.Outputs", "%d outputs, want at most 64", len(n.Outputs))
	}
	switch {
	case c.tab != nil:
		return c.tab.outputs(b, n, inputs, cycles)
	case c.ud == nil && c.fused == nil:
		res, err := RunBudget(b, n, inputs, cycles, Options{})
		if err != nil {
			return nil, err
		}
		out = make([]uint64, cycles)
		for c, row := range res.Outputs {
			out[c] = bitutil.FromBits(row)
		}
		return out, nil
	}
	// Blocks of 64 cycles, cycle c in bit c mod 64, each settled in one
	// pass and charged lane by lane after it settles.
	if _, err := fetchVec(n, inputs, 0); err != nil {
		return nil, err
	}
	sc := c.getScratch()
	defer c.scratch.Put(sc)
	words, carry := sc.planes(len(n.Gates))
	blk := &sc.cyc
	perCycle := int64(len(n.Gates)) + 1
	out = make([]uint64, cycles)
	for w0 := 0; w0 < cycles; w0 += 64 {
		// The lanes before a wrong-width vector run and charge, then its
		// cycle charges and fails.
		lanes, bad := gatherBlock(n, inputs, words, w0, min(cycles-w0, 64))
		if c.ud != nil {
			c.ud.settle(n.Gates, words, carry, w0 == 0)
		} else {
			execFused(c.fused, words)
		}
		// Output planes in, one output word per cycle out.
		for i, o := range n.Outputs {
			blk[i] = words[o]
		}
		clear(blk[len(n.Outputs):])
		transpose64(blk)
		copy(out[w0:], blk[:lanes])
		for j := 0; j < lanes; j++ {
			b.Check(perCycle)
		}
		if bad != nil {
			b.Check(perCycle)
			return nil, bad
		}
		for id, w := range words {
			carry[id] = w >> 63
		}
	}
	return out, nil
}

// stateTable is a netlist's zero-delay cycle function tabulated over
// every (flip-flop state, input) pair. With the flip-flops cut into
// free inputs one cycle's logic is feed-forward, so one 64-lane settle
// evaluates it everywhere: lane k holds state bits k mod 2^F and input
// bits k >> F, for F flip-flops, and F plus the input count is at most
// 6. The table is exact because a zero-delay cycle's values depend on
// nothing else: flip-flops hold the previous cycle's D (an EnDFF only
// when enabled), inputs the current vector. Outputs reads the out and
// next tables; a lean compiled run reads next and the gate columns
// through a tableRun.
type stateTable struct {
	ffs   int    // F, the state bits below the input bits in a lane index
	reset uint64 // the Init state, bit j for flip-flop j
	next  [64]uint64
	out   [64]uint64 // bit i for output i
	// cols holds every gate's settled values: lane k of cols[id] is
	// gate id's value in lane k.
	cols []uint64
}

// tabulate returns the netlist's state table, or nil when it has a
// Latch, more than 6 flip-flop and input bits, or a combinational
// cycle.
func tabulate(n *logic.Netlist) *stateTable {
	var ffs []int
	for id, g := range n.Gates {
		switch {
		case g.Kind == logic.Latch:
			return nil
		case g.Kind.IsSequential():
			ffs = append(ffs, id)
		}
	}
	if len(ffs)+len(n.Inputs) > 6 {
		return nil
	}
	cut := append([]logic.Gate(nil), n.Gates...)
	for _, id := range ffs {
		cut[id] = logic.Gate{Kind: logic.Input}
	}
	prog, ok := compileFeedForward(cut)
	if !ok {
		return nil
	}
	// Variable v is lane bit v: its word has lane k set when bit v of k is.
	words := make([]uint64, len(n.Gates))
	t := &stateTable{ffs: len(ffs), cols: words}
	for j, id := range ffs {
		words[id] = lanePattern[j]
		if n.Gates[id].Init {
			t.reset |= 1 << uint(j)
		}
	}
	for i, sig := range n.Inputs {
		words[sig] = lanePattern[len(ffs)+i]
	}
	prog.settle(cut, words, nil, true)
	// Planes in (row i: output i's lanes, row j: flip-flop j's next
	// lanes), one row per lane out.
	for i, o := range n.Outputs {
		t.out[i] = words[o]
	}
	transpose64(&t.out)
	for j, id := range ffs {
		g := &n.Gates[id]
		if g.Kind == logic.DFF {
			t.next[j] = words[g.Fanin[0]]
		} else { // EnDFF: load D when enabled, else hold
			en := words[g.Fanin[0]]
			t.next[j] = en&words[g.Fanin[1]] | ^en&lanePattern[j]
		}
	}
	transpose64(&t.next)
	return t
}

// lanePattern[v] has bit k set when bit v of k is: variable v of a
// 64-lane enumeration.
var lanePattern = [6]uint64{
	0xaaaaaaaaaaaaaaaa, 0xcccccccccccccccc, 0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00, 0xffff0000ffff0000, 0xffffffff00000000,
}

// outputs runs the table: one lookup per cycle from the reset state,
// charging and fetching in RunBudget's order.
func (t *stateTable) outputs(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int) ([]uint64, error) {
	if _, err := fetchVec(n, inputs, 0); err != nil {
		return nil, err
	}
	perCycle := int64(len(n.Gates)) + 1
	out := make([]uint64, cycles)
	s := t.reset
	for c := range out {
		b.Check(perCycle)
		vec, err := fetchVec(n, inputs, c)
		if err != nil {
			return nil, err
		}
		k := t.lane(s, vec)
		out[c], s = t.out[k], t.next[k]
	}
	return out, nil
}

// lane returns the lane index of state s under input vector vec.
func (t *stateTable) lane(s uint64, vec []bool) uint64 {
	for i, v := range vec {
		if v {
			s |= 1 << uint(t.ffs+i)
		}
	}
	return s
}

// KernelTable in Result.Kernel marks a lean zero-delay run of a small
// sequential netlist (no Latch, flip-flops plus inputs at most 6 bits)
// read off its (state, input) table instead of settled gate by gate.
const KernelTable = "table"

// tableRun is a state table prepared for lean runs under fixed
// options: every gate's value per lane, as one row of gate bits per
// lane, and the clock charge of the edge that ends each lane's cycle.
type tableRun struct {
	*stateTable
	// Lane k's gate values are rows[k*stride : (k+1)*stride], gate id
	// in bit id mod 64 of word id/64.
	stride int
	rows   []uint64
	// clock[k] is ClockCap added once, from zero, per flip-flop whose
	// clock charges after lane k: none without TrackClock, every one
	// without GateClock, else every DFF and every EnDFF enabled in
	// lane k. The order is runShard's, so the sum is its bits.
	clock [64]float64
}

// newTableRun prepares a netlist's state table for lean runs under the
// environment's options.
func newTableRun(e *env, t *stateTable) *tableRun {
	lanes := 1 << uint(t.ffs+len(e.n.Inputs))
	tr := &tableRun{stateTable: t, stride: (len(t.cols) + 63) / 64}
	tr.rows = make([]uint64, lanes*tr.stride)
	var blk [64]uint64
	for w := 0; w < tr.stride; w++ {
		// 64 gate columns in, one row of their values per lane out.
		clear(blk[copy(blk[:], t.cols[w*64:]):])
		transpose64(&blk)
		for k := range lanes {
			tr.rows[k*tr.stride+w] = blk[k]
		}
	}
	if !e.opts.TrackClock {
		return tr
	}
	for _, id := range e.ffs {
		g := &e.n.Gates[id]
		on := ^uint64(0)
		if g.Kind == logic.EnDFF && e.opts.GateClock {
			on = t.cols[g.Fanin[0]]
		}
		for k := range lanes {
			if on>>uint(k)&1 == 1 {
				tr.clock[k] += e.n.ClockCap
			}
		}
	}
	return tr
}

// runShardTable simulates cycles [0, cycles) of a tabulated netlist,
// lean: it fills the shard's toggles and per-cycle capacitance only,
// Float64bits-identical to runShard's. Cycle c settles to the lane of
// its (state, vector) pair, so a cycle's transitions are the gates
// whose values differ between its lane and the previous cycle's, and
// its capacitance is summed in runShard's order: from cycle 1 on the
// previous lane's clock charge, then the load of each toggled net in
// ascending id. The budget is charged as runShard charges it: vector 0
// is fetched before any charge, then each cycle charges one step per
// gate plus one and fetches its vector, so a wrong-width vector fails
// at its own cycle.
func runShardTable(b *budget.Budget, e *env, t *tableRun, inputs InputProvider, cycles int) (sh *shard, err error) {
	defer hlerr.Recover(&err)
	n := e.n
	if _, err := fetchVec(n, inputs, 0); err != nil {
		return nil, err
	}
	sh = &shard{lo: 0, hi: cycles, toggles: make([]int64, len(n.Gates)), capByCyc: make([]float64, cycles)}
	perCycle := int64(len(e.order)) + 1
	s, prev := t.reset, uint64(0)
	for c := range sh.capByCyc {
		b.Check(perCycle)
		vec, err := fetchVec(n, inputs, c)
		if err != nil {
			return nil, err
		}
		k := t.lane(s, vec)
		if c > 0 {
			capC := t.clock[prev]
			was := t.rows[int(prev)*t.stride : int(prev+1)*t.stride]
			now := t.rows[int(k)*t.stride : int(k+1)*t.stride]
			for w, x := range now {
				for d := x ^ was[w]; d != 0; d &= d - 1 {
					id := w<<6 | bits.TrailingZeros64(d)
					sh.toggles[id]++
					capC += e.loads[id]
				}
			}
			sh.capByCyc[c] = capC
		}
		s, prev = t.next[k], k
	}
	return sh, nil
}
