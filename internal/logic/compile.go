// Compilation of combinational netlists into a flat instruction stream.
// The interpreted simulator walks Netlist.Gates through interface-ish
// dispatch every cycle; Compile performs that walk once, levelizes the
// gates, and emits a dense gate-kind/fanin-index program that a kernel
// (notably the 64-lane bit-packed simulator in internal/sim) can execute
// with nothing but array indexing and bitwise ops in its inner loop.
package logic

import "hlpower/internal/hlerr"

// Program is the compiled, levelized form of a combinational netlist:
// one instruction per non-input gate, in an order where every
// instruction's fanins are written before it executes (levels ascend;
// ids break ties, so the layout is deterministic for a fixed netlist).
// Fields are flat parallel arrays so execution engines index them
// directly; Args for instruction i are Args[ArgOff[i]:ArgOff[i+1]].
type Program struct {
	Kinds  []Kind  // instruction opcode (the gate's cell kind)
	Outs   []int32 // destination signal id
	ArgOff []int32 // len(Kinds)+1 offsets into Args
	Args   []int32 // flattened fanin signal ids

	nGates int
}

// NumInstrs returns the number of compiled instructions (the netlist's
// non-input gates).
func (p *Program) NumInstrs() int { return len(p.Kinds) }

// NumGates returns the gate count of the source netlist, which is the
// size of the value array an executor must allocate.
func (p *Program) NumGates() int { return p.nGates }

// Compile levelizes a combinational netlist into a Program. topo is the
// netlist's topological order as TopoOrder returns it: levels are
// computed along it, because a gate's fanins need not have smaller ids
// (a rewire through Gates can make a gate read a later one without
// creating a cycle). An order that lists a gate before one of its
// fanins, or that has the wrong length, is an error. Sequential cells
// (DFF, EnDFF, Latch) are a typed input error: their cross-cycle state
// breaks the pure-dataflow contract the compiled kernels rely on, and
// callers are expected to keep those netlists on the interpreted path.
// Construction errors propagate from the netlist.
func Compile(n *Netlist, topo []int) (*Program, error) {
	if n == nil {
		return nil, hlerr.Errorf("logic.Compile", "nil netlist")
	}
	if err := n.Err(); err != nil {
		return nil, err
	}
	if len(topo) != len(n.Gates) {
		return nil, hlerr.Errorf("logic.Compile", "topological order lists %d gates, netlist has %d", len(topo), len(n.Gates))
	}
	for id, g := range n.Gates {
		if g.Kind.IsSequential() || g.Kind == Latch {
			return nil, hlerr.Errorf("logic.Compile", "gate %d (%v) is sequential; only combinational netlists compile", id, g.Kind)
		}
	}

	// Levelize along topo: inputs and constants sit at level 0; a gate
	// sits one past its deepest fanin. A fanin still at -1 has not been
	// visited, so topo does not order it before its reader.
	level := make([]int32, len(n.Gates))
	for id := range level {
		level[id] = -1
	}
	maxLevel := int32(0)
	for _, id := range topo {
		g := &n.Gates[id]
		if g.Kind == Input || g.Kind == Const0 || g.Kind == Const1 {
			level[id] = 0
			continue
		}
		l := int32(0)
		for _, f := range g.Fanin {
			if level[f] < 0 {
				return nil, hlerr.Errorf("logic.Compile", "topological order visits gate %d before its fanin %d", id, f)
			}
			l = max(l, level[f])
		}
		level[id] = l + 1
		maxLevel = max(maxLevel, level[id])
	}

	// Bucket instructions by level (counting sort keeps the pass linear
	// and the within-level order ascending by id). After the prefix sum,
	// counts[l] is the next free slot of level l.
	counts := make([]int32, maxLevel+2)
	nInstr, nArgs := 0, 0
	for id, g := range n.Gates {
		if g.Kind == Input {
			continue
		}
		counts[level[id]+1]++
		nInstr++
		nArgs += len(g.Fanin)
	}
	for l := 1; l < len(counts); l++ {
		counts[l] += counts[l-1]
	}
	order := make([]int32, nInstr)
	for id, g := range n.Gates {
		if g.Kind == Input {
			continue
		}
		order[counts[level[id]]] = int32(id)
		counts[level[id]]++
	}

	p := &Program{
		Kinds:  make([]Kind, 0, nInstr),
		Outs:   make([]int32, 0, nInstr),
		ArgOff: make([]int32, 1, nInstr+1),
		Args:   make([]int32, 0, nArgs),
		nGates: len(n.Gates),
	}
	for _, id := range order {
		g := &n.Gates[id]
		p.Kinds = append(p.Kinds, g.Kind)
		p.Outs = append(p.Outs, id)
		for _, f := range g.Fanin {
			p.Args = append(p.Args, int32(f))
		}
		p.ArgOff = append(p.ArgOff, int32(len(p.Args)))
	}
	return p, nil
}
