// 64-lane bit-packed Monte Carlo simulation. Zero-delay switched-
// capacitance estimation evaluates the same combinational netlist over
// thousands of statistically independent vectors; the classic compiled
// simulation trick (Burch/Najm-style Monte Carlo) packs 64 of those
// vectors into one machine word per net, so each gate costs a handful
// of bitwise ops per 64 cycles instead of 64 interpreted evaluations.
// Toggles fall out of popcounts on prev^next words, and the switched-
// capacitance floats are still accumulated in the canonical per-cycle,
// ascending-net order, so the packed result is bit-identical to the
// serial zero-delay engine — the property the equivalence fuzz tests
// pin. runShardPacked is the one shard of both zero-delay tiers (fused
// and codegen differ only in the settle), and gatherBlock and
// gatherWords are the only places input vectors or words become lane
// planes. Other shapes have 64-lane paths of their own on a compiled
// artifact — lean event-driven runs over unit-delay netlists
// (unitdelay.go), lean runs and Outputs over small sequential netlists
// (the state table, outputs.go) — and otherwise run the interpreted
// engine, with the reason in Result.Fallback.
package sim

import (
	"math/bits"
	"sync"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// FallbackEventDriven in Result.Fallback: the packed kernel was
// requested but the event-driven delay model needs per-event timing the
// zero-delay bit-parallel evaluation cannot express, so the scalar
// engine ran.
const FallbackEventDriven = "event-driven-model"

// RunPacked is Run on the 64-lane bit-packed kernel: bit-identical
// results at a fraction of the cost for combinational netlists under
// the zero-delay model. Each call compiles the netlist and runs one
// shard on the fused executor Compiled runs use (Result.Kernel reads
// KernelFused). Ineligible workloads (sequential netlists,
// event-driven runs) degrade to the scalar engine with the reason in
// Result.Fallback, so callers always get the serial-equivalent answer.
func RunPacked(n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (*Result, error) {
	return RunPackedBudget(nil, n, inputs, cycles, opts)
}

// RunPackedBudget is RunPacked governed by a resource budget. The
// packed kernel charges the budget identically to the scalar engine —
// one step per gate per simulated cycle — just in 64-cycle increments,
// so step accounting and exhaustion behavior match the serial path.
func RunPackedBudget(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (res *Result, err error) {
	defer hlerr.Recover(&err)
	e, err := prepare(n, inputs, cycles, opts)
	if err != nil {
		return nil, err
	}
	reason := ""
	switch {
	case opts.Model == EventDriven:
		reason = FallbackEventDriven
	case e.sequential:
		reason = FallbackSequential
	}
	if reason != "" {
		sh, err := runShard(b, e, inputs, 0, cycles, false)
		if err != nil {
			return nil, err
		}
		res := merge(e, cycles, []*shard{sh})
		res.Fallback = reason
		return res, nil
	}
	fused, err := compileFused(e)
	if err != nil {
		return nil, err
	}
	// One-shot runs borrow scratch from a package pool shared across
	// netlists (planes grow to the largest gate count seen). The pool is
	// returned only after merge has copied every accumulator value out
	// of the shard, so recycled memory can never alias a live Result.
	sc := oneShotScratch.Get().(*packedScratch)
	sh, err := runShardPacked(b, e, fused, nil, inputs, nil, false, 0, cycles, sc)
	if err != nil {
		oneShotScratch.Put(sc)
		return nil, err
	}
	res = merge(e, cycles, []*shard{sh})
	oneShotScratch.Put(sc)
	res.Kernel = KernelFused
	return res, nil
}

// oneShotScratch pools packed-kernel scratch for the one-shot entry
// points (RunPacked/RunPackedBudget), which have no Compiled artifact to
// hang a per-netlist pool off. Scratch is sized lazily per run.
var oneShotScratch = sync.Pool{New: func() any { return &packedScratch{} }}

// evalWord evaluates a combinational gate with fanins a over 64 lanes
// of the value words w.
func evalWord(k logic.Kind, a []int32, w []uint64) uint64 {
	switch k {
	case logic.Const0:
		return 0
	case logic.Const1:
		return ^uint64(0)
	case logic.Buf:
		return w[a[0]]
	case logic.Not:
		return ^w[a[0]]
	case logic.And, logic.Nand:
		x := w[a[0]]
		for _, f := range a[1:] {
			x &= w[f]
		}
		if k == logic.Nand {
			x = ^x
		}
		return x
	case logic.Or, logic.Nor:
		x := w[a[0]]
		for _, f := range a[1:] {
			x |= w[f]
		}
		if k == logic.Nor {
			x = ^x
		}
		return x
	case logic.Xor:
		return w[a[0]] ^ w[a[1]]
	case logic.Xnor:
		return ^(w[a[0]] ^ w[a[1]])
	case logic.Mux:
		sel := w[a[0]]
		return (^sel & w[a[1]]) | (sel & w[a[2]])
	default:
		hlerr.Throwf("sim.evalWord", "not a combinational kind: %v", k)
		return 0
	}
}

// transpose64 transposes the 64×64 bit matrix held in a (row k = a[k],
// bit j of row k = column j) in place, so that afterwards bit j of row
// i is the old bit i of row j. Classic butterfly: six stages of
// block swaps between rows 2^s apart, each exchanging the high half-
// block of one row with the low half-block of its partner.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
		m ^= m << uint(j>>1)
	}
}

// gatherBlock packs the vectors of cycles lo .. lo+lanes−1 into the
// input planes of words, cycle lo+j in lane j. A wrong-width vector
// ends the block at its lane: gatherBlock returns the lanes before it
// and the vector's error.
func gatherBlock(n *logic.Netlist, inputs InputProvider, words []uint64, lo, lanes int) (int, error) {
	for _, sig := range n.Inputs {
		words[sig] = 0
	}
	for j := 0; j < lanes; j++ {
		vec, err := fetchVec(n, inputs, lo+j)
		if err != nil {
			return j, err
		}
		for i, sig := range n.Inputs {
			if vec[i] {
				words[sig] |= 1 << uint(j)
			}
		}
	}
	return lanes, nil
}

// gatherWords is gatherBlock over pre-packed cycle words, at most 64
// inputs: it buffers the block's words in cyc, and input i's plane is
// column i of that 64×64 bit matrix. With 8 or more inputs a butterfly
// transpose (log₂64 block-swap stages over the whole matrix) beats
// extracting each column bit by bit. Dead lanes are zero either way.
func gatherWords(n *logic.Netlist, inputs WordInputs, words []uint64, cyc *[64]uint64, lo, lanes int) {
	for j := 0; j < lanes; j++ {
		cyc[j] = inputs(lo + j)
	}
	if len(n.Inputs) >= 8 {
		clear(cyc[lanes:])
		transpose64(cyc)
		for i, sig := range n.Inputs {
			words[sig] = cyc[i]
		}
		return
	}
	for i, sig := range n.Inputs {
		var w uint64
		for j := 0; j < lanes; j++ {
			w |= (cyc[j] >> uint(i) & 1) << uint(j)
		}
		words[sig] = w
	}
}

// runShardPacked simulates cycles [lo, hi) on the bit-packed kernel,
// the one shard of both zero-delay tiers: each 64-cycle block settles
// on the codegen evaluator cg when one is given, else on execFused.
// Lane layout: word k of the shard covers cycles lo+64k .. lo+64k+63,
// cycle c in bit c-lo-64k; the final word's tail lanes are masked out
// of every toggle count. The transition baseline is rebuilt exactly as
// the scalar shard does — by settling the previous vector (vector 0 for
// the first shard) — so shard boundaries and cycle 0 count transitions
// identically to a serial run. words64 (optional) feeds input cycles as
// pre-packed words, and lean skips the per-cycle outputs, group
// attribution, and final-value materialization; neither touches the
// toggle or capacitance accumulation, so the numbers that survive into
// the Result are bit-identical to a full run. Budget charging counts
// source-program gates, a block charged before it is gathered, so
// exhaustion boundaries match the serial engine. sc supplies the word
// planes (every entry is rewritten before it is read) and the shard's
// numeric accumulators, which stay valid only until sc is recycled:
// merge must copy them out before the caller Puts sc back in a pool.
// Output rows and final values escape into the Result, so they are
// always freshly allocated.
func runShardPacked(b *budget.Budget, e *env, fused *logic.FusedProgram, cg *codegenProgram, inputs InputProvider, words64 WordInputs, lean bool, lo, hi int, sc *packedScratch) (sh *shard, err error) {
	defer hlerr.Recover(&err)
	n := e.n
	cycles := hi - lo
	ng := len(e.groups)
	nOut := len(n.Outputs)
	sh = &shard{
		lo: lo, hi: hi,
		toggles:  sc.togglesFor(len(n.Gates)),
		capByCyc: sc.capFor(cycles),
	}
	var grpFlat []float64
	var outFlat []bool
	if !lean {
		grpFlat, sh.grpByCyc = sc.grpFor(cycles, ng)
		sh.outputs = make([][]bool, 0, cycles)
		outFlat = make([]bool, cycles*nOut)
	}

	words, carry := sc.planes(len(n.Gates))
	// gather packs cycles from .. from+lanes−1 into the input planes;
	// settle evaluates every net's word for the block.
	gather := func(from, lanes int) error {
		if words64 != nil {
			gatherWords(n, words64, words, &sc.cyc, from, lanes)
			return nil
		}
		_, err := gatherBlock(n, inputs, words, from, lanes)
		return err
	}
	settle := func() {
		if cg != nil {
			cg.settle(words)
		} else {
			execFused(fused, words)
		}
	}

	// Baseline: settle vector lo−1 in lane 0 and seed the per-net carry
	// bits from it, mirroring the scalar shard's baseline settle (cycle
	// 0 of the run therefore counts zero transitions). The gather
	// rewrites every input word — the planes may be recycled from a
	// previous run and carry stale bits.
	if err := gather(max(lo-1, 0), 1); err != nil {
		return nil, err
	}
	settle()
	for id, w := range words {
		carry[id] = w & 1
	}

	perCycle := int64(len(e.order)) + 1
	capBuf := &sc.bins
	for w0 := 0; w0 < cycles; w0 += 64 {
		lanes := min(cycles-w0, 64)
		b.Check(int64(lanes) * perCycle)
		// Bit j of each input word is that input's value in cycle
		// lo+w0+j.
		if err := gather(lo+w0, lanes); err != nil {
			return nil, err
		}
		settle()

		mask := ^uint64(0)
		if lanes < 64 {
			mask = uint64(1)<<uint(lanes) - 1
		}
		// Toggle extraction. cur^(cur<<1 | carry) has a 1 wherever a
		// cycle's settled value differs from the previous cycle's; the
		// carry chains bit 63 across words (and the baseline into bit
		// 0). The net loop ascends ids, so for any fixed cycle the
		// float accumulations below land in exactly the order the
		// scalar engine's record() applies them — that ordering is what
		// makes the packed sums bit-identical, not just close.
		//
		// A cycle's accumulator is only ever touched by its own word
		// block, so the adds land in a block-local [64]float64 of lane
		// bins, copied (not added) into the shard slice afterwards:
		// same adds, same order, same bits. A lean run adds across
		// lanes (extractLean); a full run also attributes every add to
		// the net's group, one lane at a time. The toggle/carry/load
		// lookups are resliced to the word-plane length up front so the
		// id-indexed accesses drop their bounds checks too.
		*capBuf = [64]float64{}
		if lean {
			sc.extractLean(words, carry, sh.toggles, e.loads, mask)
			copy(sh.capByCyc[w0:], capBuf[:lanes])
			continue
		}
		tog := sh.toggles[:len(words)]
		cb := carry[:len(words)]
		loads := e.loads[:len(words)]
		for id := range words {
			cur := words[id]
			t := (cur ^ (cur<<1 | cb[id])) & mask
			cb[id] = cur >> 63
			if t == 0 {
				continue
			}
			tog[id] += int64(bits.OnesCount64(t))
			load := loads[id]
			if load == 0 {
				continue // adding ±0.0 never changes a nonnegative sum's bits
			}
			gi := e.groupOf[id]
			for ; t != 0; t &= t - 1 {
				j := bits.TrailingZeros64(t) & 63
				capBuf[j] += load
				grpFlat[(w0+j)*ng+gi] += load
			}
		}
		copy(sh.capByCyc[w0:], capBuf[:lanes])

		// Per-cycle primary outputs, rows sliced from one flat buffer.
		for j := 0; j < lanes; j++ {
			row := outFlat[(w0+j)*nOut : (w0+j+1)*nOut : (w0+j+1)*nOut]
			for i, o := range n.Outputs {
				row[i] = words[o]>>uint(j)&1 == 1
			}
			sh.outputs = append(sh.outputs, row)
		}
	}

	if lean {
		return sh, nil
	}
	// Final settled values live in the top valid lane of the last word.
	final := make([]bool, len(n.Gates))
	last := uint((cycles - 1) % 64)
	for id, w := range words {
		final[id] = w>>last&1 == 1
	}
	sh.final = final
	return sh, nil
}
