// Package logic provides the gate-level netlist substrate: a small
// structural cell library (standard gates, multiplexors, flip-flops,
// transparent latches), netlist construction with per-gate accounting
// groups, a unit-capacitance load model with a statistical wire-load
// component, and topological ordering. Every higher-level technique in
// this repository ultimately measures power as switched capacitance on
// these netlists.
package logic

import (
	"errors"
	"fmt"

	"hlpower/internal/hlerr"
)

// Kind enumerates the cell types of the library.
type Kind uint8

// Cell kinds. Fanin conventions: Mux is (sel, in0, in1) and selects in1
// when sel is true; DFF is (D); EnDFF is (enable, D) and holds state when
// enable is false (a gated-clock register); Latch is (enable, D) and is
// transparent while enable is true.
const (
	Input Kind = iota
	Const0
	Const1
	Buf
	Not
	And
	Or
	Nand
	Nor
	Xor
	Xnor
	Mux
	DFF
	EnDFF
	Latch
)

var kindNames = [...]string{
	Input: "input", Const0: "const0", Const1: "const1", Buf: "buf",
	Not: "not", And: "and", Or: "or", Nand: "nand", Nor: "nor",
	Xor: "xor", Xnor: "xnor", Mux: "mux", DFF: "dff", EnDFF: "endff",
	Latch: "latch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// IsSequential reports whether the cell holds state across clock cycles.
func (k Kind) IsSequential() bool { return k == DFF || k == EnDFF }

// Gate is one cell instance. Its output signal is identified by its
// index in Netlist.Gates.
type Gate struct {
	Kind  Kind
	Fanin []int
	Name  string
	Group string // accounting group for power breakdowns
	// Delay is the propagation delay in ticks (>=1 for combinational
	// cells by default). Event-driven simulation accepts 0 through
	// sim.MaxGateDelay (1024) and rejects other values as input
	// errors; the zero-delay model ignores it.
	Delay int
	Init  bool // reset value for sequential cells
}

// Netlist is a synchronous gate-level circuit: a flat gate list with
// primary inputs, primary outputs, and single-clock flip-flops.
type Netlist struct {
	Gates   []Gate
	Inputs  []int // gate ids with Kind == Input, in declaration order
	Outputs []int // gate ids treated as primary outputs

	// InputCap is the capacitance of one gate input pin; WireCapPerFanout
	// is the statistical wire-load added per fanout; OutputLoad is the
	// external load seen by each primary output. ClockCap is the clock
	// capacitance charged per flip-flop per active clock cycle.
	InputCap         float64
	WireCapPerFanout float64
	OutputLoad       float64
	ClockCap         float64

	// err is the sticky construction error: the first malformed Add*
	// call is recorded here (with a structurally safe placeholder gate
	// appended so returned ids stay valid) and every consumer of the
	// netlist — TopoOrder, sim.Run, synthesis — refuses to proceed.
	err error
}

// Err returns the first construction error recorded on the netlist, or
// nil if every builder call was well-formed. The builder API keeps
// returning usable signal ids after an error so construction code needs
// no per-call checks; callers check Err (directly or via TopoOrder /
// sim.Run, which propagate it) before using the netlist.
func (n *Netlist) Err() error { return n.err }

// Failf records a construction error (first one wins). Exported so
// composite builders in other packages (rtlib, lopt) report malformed
// inputs through the same sticky channel.
func (n *Netlist) Failf(op, format string, args ...any) {
	if n.err == nil {
		n.err = hlerr.Errorf(op, format, args...)
	}
}

// failSafe records the error and appends a constant-0 placeholder gate
// so the returned id is valid and later fanin references don't cascade
// into out-of-range failures.
func (n *Netlist) failSafe(group string, err error) int {
	if n.err == nil {
		if _, ok := err.(*hlerr.InputError); !ok {
			err = &hlerr.InputError{Op: "logic", Err: err}
		}
		n.err = err
	}
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{Kind: Const0, Group: group, Delay: 1})
	return id
}

// New returns an empty netlist with the default capacitance model.
func New() *Netlist {
	return &Netlist{
		InputCap:         1.0,
		WireCapPerFanout: 0.3,
		OutputLoad:       2.0,
		ClockCap:         1.0,
	}
}

// Clone deep-copies the netlist: gates (including fanin slices),
// input/output lists, the capacitance model, and the sticky error.
// Mutating the clone never affects the original, which is what lets
// optimization passes derive candidate circuits from a shared baseline.
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{
		InputCap:         n.InputCap,
		WireCapPerFanout: n.WireCapPerFanout,
		OutputLoad:       n.OutputLoad,
		ClockCap:         n.ClockCap,
		err:              n.err,
	}
	out.Gates = make([]Gate, len(n.Gates))
	for i, g := range n.Gates {
		ng := g
		ng.Fanin = append([]int(nil), g.Fanin...)
		out.Gates[i] = ng
	}
	out.Inputs = append([]int(nil), n.Inputs...)
	out.Outputs = append([]int(nil), n.Outputs...)
	return out
}

// DefaultGroup is the accounting group assigned when none is given.
const DefaultGroup = "logic"

// AddInput declares a primary input and returns its signal id.
func (n *Netlist) AddInput(name string) int {
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{Kind: Input, Name: name, Group: DefaultGroup})
	n.Inputs = append(n.Inputs, id)
	return id
}

// Add appends a gate in the default group and returns its signal id.
func (n *Netlist) Add(kind Kind, fanin ...int) int {
	return n.AddG(kind, DefaultGroup, fanin...)
}

// AddG appends a gate in the given accounting group. Malformed calls
// (bad arity, out-of-range fanin) record a sticky error on the netlist
// — retrievable via Err and propagated by TopoOrder and the simulator —
// and return a safe placeholder id instead of panicking.
func (n *Netlist) AddG(kind Kind, group string, fanin ...int) int {
	if err := checkArity(kind, len(fanin)); err != nil {
		return n.failSafe(group, &hlerr.InputError{Op: "logic.AddG", Err: err})
	}
	for _, f := range fanin {
		if f < 0 || f >= len(n.Gates) {
			return n.failSafe(group, hlerr.Errorf("logic.AddG", "fanin %d out of range [0,%d)", f, len(n.Gates)))
		}
	}
	id := len(n.Gates)
	n.Gates = append(n.Gates, Gate{
		Kind:  kind,
		Fanin: append([]int(nil), fanin...),
		Group: group,
		Delay: 1,
	})
	return id
}

func checkArity(kind Kind, n int) error {
	switch kind {
	case Input, Const0, Const1:
		if n != 0 {
			return fmt.Errorf("logic: %v takes no fanin", kind)
		}
	case Buf, Not, DFF:
		if n != 1 {
			return fmt.Errorf("logic: %v takes 1 fanin, got %d", kind, n)
		}
	case Xor, Xnor:
		if n != 2 {
			return fmt.Errorf("logic: %v takes 2 fanins, got %d", kind, n)
		}
	case Mux, EnDFF, Latch:
		expected := 3
		if kind != Mux {
			expected = 2
		}
		if n != expected {
			return fmt.Errorf("logic: %v takes %d fanins, got %d", kind, expected, n)
		}
	case And, Or, Nand, Nor:
		if n < 2 {
			return fmt.Errorf("logic: %v takes >=2 fanins, got %d", kind, n)
		}
	default:
		return fmt.Errorf("logic: unknown kind %v", kind)
	}
	return nil
}

// valid reports whether id names an existing gate, recording a sticky
// error under op when it does not.
func (n *Netlist) valid(op string, id int) bool {
	if id < 0 || id >= len(n.Gates) {
		n.Failf(op, "signal %d out of range [0,%d)", id, len(n.Gates))
		return false
	}
	return true
}

// MarkOutput declares signal id as a primary output.
func (n *Netlist) MarkOutput(id int) {
	if !n.valid("logic.MarkOutput", id) {
		return
	}
	n.Outputs = append(n.Outputs, id)
}

// SetName names a signal (for debugging and reports).
func (n *Netlist) SetName(id int, name string) {
	if n.valid("logic.SetName", id) {
		n.Gates[id].Name = name
	}
}

// SetInit sets the reset value of a sequential cell.
func (n *Netlist) SetInit(id int, v bool) {
	if n.valid("logic.SetInit", id) {
		n.Gates[id].Init = v
	}
}

// NumGates returns the number of cells, NumCombinational the number of
// non-input, non-sequential cells.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumCombinational counts logic cells (excluding inputs, constants, and
// state elements).
func (n *Netlist) NumCombinational() int {
	c := 0
	for _, g := range n.Gates {
		switch g.Kind {
		case Input, Const0, Const1, DFF, EnDFF:
		default:
			c++
		}
	}
	return c
}

// Fanouts returns, for each signal, the ids of gates reading it.
func (n *Netlist) Fanouts() [][]int {
	fo := make([][]int, len(n.Gates))
	for id, g := range n.Gates {
		for _, f := range g.Fanin {
			fo[f] = append(fo[f], id)
		}
	}
	return fo
}

// Loads returns the capacitive load driven by each signal: one InputCap
// per fanout pin, the statistical wire load, and OutputLoad for primary
// outputs. Only pin counts matter here, so the counts are accumulated
// in place instead of materializing the Fanouts reader lists.
func (n *Netlist) Loads() []float64 {
	loads := make([]float64, len(n.Gates))
	for _, g := range n.Gates {
		for _, f := range g.Fanin {
			loads[f]++ // exact integer counts; converted to loads below
		}
	}
	for id := range loads {
		nf := loads[id]
		loads[id] = nf*n.InputCap + nf*n.WireCapPerFanout
	}
	isOut := make([]bool, len(n.Gates))
	for _, o := range n.Outputs {
		isOut[o] = true
	}
	for id := range loads {
		if isOut[id] {
			loads[id] += n.OutputLoad
		}
	}
	return loads
}

// TotalCapacitance returns the sum of all signal loads — the C_tot the
// information-theoretic estimators try to predict without the netlist.
func (n *Netlist) TotalCapacitance() float64 {
	var c float64
	for _, l := range n.Loads() {
		c += l
	}
	return c
}

// TopoOrder returns an evaluation order of all gates in which every
// combinational gate appears after its fanins. Inputs, constants, and
// sequential outputs are sources. Latches are ordered like combinational
// cells. An error is reported for combinational cycles.
func (n *Netlist) TopoOrder() ([]int, error) {
	if n.err != nil {
		return nil, n.err
	}
	nGates := len(n.Gates)
	isSource := func(id int) bool {
		k := n.Gates[id].Kind
		return k == Input || k == Const0 || k == Const1 || k.IsSequential()
	}
	// Combinational dependency edges in CSR form: per-signal reader
	// lists built with a counting pass instead of per-signal appends,
	// which used to dominate the allocation profile of every prepare
	// and compile. Edge order matches the old append construction
	// exactly (readers ascend), so the emitted order is unchanged.
	indeg := make([]int, nGates)
	offs := make([]int32, nGates+1)
	nEdges := 0
	for id, g := range n.Gates {
		if isSource(id) {
			continue
		}
		for _, f := range g.Fanin {
			if isSource(f) {
				continue
			}
			offs[f+1]++
			indeg[id]++
			nEdges++
		}
	}
	for i := 0; i < nGates; i++ {
		offs[i+1] += offs[i]
	}
	edges := make([]int32, nEdges)
	cursor := append([]int32(nil), offs[:nGates]...)
	for id, g := range n.Gates {
		if isSource(id) {
			continue
		}
		for _, f := range g.Fanin {
			if isSource(f) {
				continue
			}
			edges[cursor[f]] = int32(id)
			cursor[f]++
		}
	}
	order := make([]int, 0, nGates)
	queue := make([]int, 0, nGates)
	// Sources first, then zero-indegree combinational gates.
	for id := range n.Gates {
		if isSource(id) {
			order = append(order, id)
		} else if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range edges[offs[id]:offs[id+1]] {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, int(s))
			}
		}
	}
	if len(order) != nGates {
		return nil, errors.New("logic: combinational cycle detected")
	}
	return order, nil
}

// Depth returns the maximum combinational depth in gate delays from any
// source to any gate output.
func (n *Netlist) Depth() int {
	order, err := n.TopoOrder()
	if err != nil {
		return -1
	}
	depth := make([]int, len(n.Gates))
	max := 0
	for _, id := range order {
		g := n.Gates[id]
		if g.Kind == Input || g.Kind == Const0 || g.Kind == Const1 || g.Kind.IsSequential() {
			continue
		}
		d := 0
		for _, f := range g.Fanin {
			if depth[f] > d {
				d = depth[f]
			}
		}
		depth[id] = d + g.Delay
		if depth[id] > max {
			max = depth[id]
		}
	}
	return max
}

// EvalGate computes the boolean output of a combinational gate given its
// fanin values; latches and flip-flops are handled by the simulator, not
// here. An unknown kind reports a typed error via hlerr.Throw, which the
// simulator's entry point converts back into an ordinary error.
func EvalGate(kind Kind, in []bool) bool {
	switch kind {
	case Const0:
		return false
	case Const1:
		return true
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		for _, v := range in {
			if !v {
				return false
			}
		}
		return true
	case Or:
		for _, v := range in {
			if v {
				return true
			}
		}
		return false
	case Nand:
		for _, v := range in {
			if !v {
				return true
			}
		}
		return false
	case Nor:
		for _, v := range in {
			if v {
				return false
			}
		}
		return true
	case Xor:
		return in[0] != in[1]
	case Xnor:
		return in[0] == in[1]
	case Mux:
		if in[0] {
			return in[2]
		}
		return in[1]
	default:
		hlerr.Throwf("logic.EvalGate", "not a combinational kind: %v", kind)
		return false
	}
}
