package memo

import (
	"hlpower/internal/logic"
	"hlpower/internal/sim"
)

// HashNetlist writes the structural identity of a netlist: every gate's
// kind, fanin list, delay, reset value, and accounting group, the
// primary input and output lists, and the capacitance model. Signal
// names are deliberately excluded — they label results but never change
// them — so two structurally identical circuits share a key regardless
// of naming. A netlist carrying a sticky construction error encodes the
// error text, so a malformed circuit never shares a key with a
// well-formed one.
func HashNetlist(e *Enc, n *logic.Netlist) {
	e.String("netlist/v1")
	if err := n.Err(); err != nil {
		e.Bool(true)
		e.String(err.Error())
	} else {
		e.Bool(false)
	}
	e.Int(len(n.Gates))
	for _, g := range n.Gates {
		e.Uint64(uint64(g.Kind))
		e.Int(len(g.Fanin))
		for _, f := range g.Fanin {
			e.Int(f)
		}
		e.Int(g.Delay)
		e.Bool(g.Init)
		e.String(g.Group)
	}
	hashIntSlice(e, n.Inputs)
	hashIntSlice(e, n.Outputs)
	e.Float64(n.InputCap)
	e.Float64(n.WireCapPerFanout)
	e.Float64(n.OutputLoad)
	e.Float64(n.ClockCap)
}

func hashIntSlice(e *Enc, vs []int) {
	e.Int(len(vs))
	for _, v := range vs {
		e.Int(v)
	}
}

// HashSimOptions writes every option that changes a simulation result:
// the delay model, the electrical constants, and the clock-accounting
// switches.
func HashSimOptions(e *Enc, o sim.Options) {
	e.String("simopts/v1")
	e.Int(int(o.Model))
	e.Float64(o.Vdd)
	e.Float64(o.Freq)
	e.Bool(o.TrackClock)
	e.Bool(o.GateClock)
}

// HashInputs materializes an input provider over the given cycle range
// and writes every vector. This is the exact content identity of a
// workload — O(cycles·inputs) bits, far below the cost of simulating
// them — for callers that cannot name the stream more cheaply (for
// example by its RNG seed, which generators should prefer).
func HashInputs(e *Enc, inputs sim.InputProvider, cycles int) {
	e.String("inputs/v1")
	e.Int(cycles)
	for c := 0; c < cycles; c++ {
		e.Bools(inputs(c))
	}
}
