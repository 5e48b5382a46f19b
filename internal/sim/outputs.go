package sim

import (
	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
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
		// Cycle words in, input planes out: input i's plane is column i
		// of the block's 64×64 bit matrix. Dead lanes transpose to zero.
		for j := 0; j < lanes; j++ {
			blk[j] = inputs(w0 + j)
		}
		clear(blk[lanes:])
		transpose64(blk)
		for i, sig := range n.Inputs {
			words[sig] = blk[i]
		}
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
