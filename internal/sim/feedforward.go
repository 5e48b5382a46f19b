package sim

import "hlpower/internal/logic"

// feedForward is the 64-lane settle program of a netlist with no Latch
// and no EnDFF whose fanin graph, D→DFF edges included, is acyclic —
// the shape lopt.PipelineCut builds, and every combinational netlist.
// Acyclicity is what lets a whole block of 64 cycles settle in one
// pass: a DFF reads its D from the previous lane, and its D is settled
// first. The unit-delay path and Outputs share it.
type feedForward struct {
	order  []int32      // every gate, fanins (a DFF's D included) first
	kinds  []logic.Kind // per gate id
	argOff []int32      // per gate id: fanins are args[argOff[id]:argOff[id+1]]
	args   []int32
}

// compileFeedForward returns the settle program of gates, or false
// when they hold a Latch or an EnDFF or the fanin graph has a cycle.
func compileFeedForward(gates []logic.Gate) (ff feedForward, ok bool) {
	nArgs := 0
	for _, g := range gates {
		if g.Kind == logic.Latch || g.Kind == logic.EnDFF {
			return ff, false
		}
		nArgs += len(g.Fanin)
	}
	ff = feedForward{
		order:  make([]int32, 0, len(gates)),
		kinds:  make([]logic.Kind, len(gates)),
		argOff: make([]int32, len(gates)+1),
		args:   make([]int32, 0, nArgs),
	}
	for id, g := range gates {
		ff.kinds[id] = g.Kind
		for _, f := range g.Fanin {
			ff.args = append(ff.args, int32(f))
		}
		ff.argOff[id+1] = int32(len(ff.args))
	}
	// Depth first over the fanins: a gate joins the order once all of
	// its fanins have, and meeting a gate still on the path is a cycle.
	// state[id] is 0 before the visit, 1 + the next fanin slot to visit
	// while id is on the path, and -1 once it is ordered. The path never
	// holds a gate twice, so it fits its preallocated half.
	buf := make([]int32, 2*len(gates))
	state, path := buf[:len(gates)], buf[len(gates):len(gates)]
	for root := range gates {
		if state[root] != 0 {
			continue
		}
		state[root] = 1 + ff.argOff[root]
		path = append(path, int32(root))
		for len(path) > 0 {
			id := path[len(path)-1]
			slot := state[id] - 1
			if slot == ff.argOff[id+1] {
				state[id] = -1
				ff.order = append(ff.order, id)
				path = path[:len(path)-1]
				continue
			}
			state[id]++
			switch f := ff.args[slot]; {
			case state[f] > 0:
				return ff, false // a cycle: no pass settles it
			case state[f] == 0:
				state[f] = 1 + ff.argOff[f]
				path = append(path, f)
			}
		}
	}
	return ff, true
}

// settle computes every gate's settled word from the input words
// already in s. A DFF's lane j is its D's lane j−1; lane 0 is its D's
// last lane in the previous block (held in carry) or, when first, its
// Init value.
func (ff *feedForward) settle(gates []logic.Gate, s, carry []uint64, first bool) {
	for _, id := range ff.order {
		a := ff.args[ff.argOff[id]:ff.argOff[id+1]]
		switch k := ff.kinds[id]; k {
		case logic.Input:
		case logic.DFF:
			in := carry[a[0]]
			if first {
				in = 0
				if gates[id].Init {
					in = 1
				}
			}
			s[id] = s[a[0]]<<1 | in
		default:
			s[id] = evalWord(k, a, s)
		}
	}
}
