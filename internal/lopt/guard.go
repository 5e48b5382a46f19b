package lopt

import (
	"sort"

	"hlpower/internal/logic"
)

// GuardEvaluation applies pure guarded evaluation (§III-I, Tiwari
// [105]) to a copy of the netlist: for each multiplexor whose select is
// an early signal (a primary input or register output, guaranteeing the
// paper's t_l(s) < t_e(Y) condition under unit gate delays), the logic
// cones exclusive to each data branch get transparent latches on their
// external inputs, enabled only when that branch is observable. It
// returns the transformed copy and the number of guarded cones.
func GuardEvaluation(n *logic.Netlist) (*logic.Netlist, int) {
	out := cloneNetlist(n)
	fanouts := out.Fanouts()
	guarded := 0
	inverters := make(map[int]int)
	invert := func(sig int) int {
		if g, ok := inverters[sig]; ok {
			return g
		}
		g := out.AddG(logic.Not, "guard", sig)
		inverters[sig] = g
		return g
	}
	nOrig := len(out.Gates)
	for id := 0; id < nOrig; id++ {
		g := out.Gates[id]
		if g.Kind != logic.Mux {
			continue
		}
		sel := g.Fanin[0]
		if !isEarly(out, sel) {
			continue
		}
		for branch := 1; branch <= 2; branch++ {
			root := out.Gates[id].Fanin[branch]
			cone := exclusiveCone(out, fanouts, root, id)
			if len(cone) == 0 {
				continue
			}
			// Enable: branch observable. Branch 1 (in0) when sel=0,
			// branch 2 (in1) when sel=1.
			enable := sel
			if branch == 1 {
				enable = invert(sel)
			}
			if insertGuards(out, cone, enable) {
				guarded++
			}
			fanouts = out.Fanouts() // structure changed
		}
	}
	return out, guarded
}

// HasEarlySelectMux reports whether some multiplexor's select is an
// early signal. Without one GuardEvaluation guards nothing: it guards
// only cones under such a mux, and its edits never make a late select
// early.
func HasEarlySelectMux(n *logic.Netlist) bool {
	for _, g := range n.Gates {
		if g.Kind == logic.Mux && isEarly(n, g.Fanin[0]) {
			return true
		}
	}
	return false
}

// isEarly reports whether a signal settles at time 0: a primary input,
// constant, or register output.
func isEarly(n *logic.Netlist, id int) bool {
	k := n.Gates[id].Kind
	return k == logic.Input || k == logic.Const0 || k == logic.Const1 || k.IsSequential()
}

// exclusiveCone returns the set of combinational gates all of whose
// fanout paths terminate at the given mux (through root) — the gates
// that are unobservable when the branch is deselected.
func exclusiveCone(n *logic.Netlist, fanouts [][]int, root, mux int) map[int]bool {
	cone := make(map[int]bool)
	if isEarly(n, root) {
		return cone
	}
	// Iteratively grow from the root: a gate joins if every fanout is
	// the mux or already in the cone.
	candidate := func(id int) bool {
		if isEarly(n, id) || n.Gates[id].Kind == logic.Latch {
			return false
		}
		for _, f := range fanouts[id] {
			if f != mux && !cone[f] {
				return false
			}
		}
		// Must not be a primary output.
		for _, o := range n.Outputs {
			if o == id {
				return false
			}
		}
		return true
	}
	if !candidate(root) {
		return cone
	}
	cone[root] = true
	changed := true
	for changed {
		changed = false
		for id := range cone {
			for _, f := range n.Gates[id].Fanin {
				if !cone[f] && candidate(f) {
					cone[f] = true
					changed = true
				}
			}
		}
	}
	return cone
}

// insertGuards latches every edge entering the cone from outside. It
// visits gates in ascending id order so latch ids, and with them the
// whole netlist, are the same on every run.
func insertGuards(n *logic.Netlist, cone map[int]bool, enable int) bool {
	ids := make([]int, 0, len(cone))
	for id := range cone {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	latched := make(map[int]int) // external signal -> latch id
	did := false
	for _, id := range ids {
		for pin, f := range n.Gates[id].Fanin {
			if cone[f] {
				continue
			}
			l, ok := latched[f]
			if !ok {
				l = n.AddG(logic.Latch, "guard", enable, f)
				latched[f] = l
			}
			n.Gates[id].Fanin[pin] = l
			did = true
		}
	}
	return did
}

// cloneNetlist deep-copies a netlist.
func cloneNetlist(n *logic.Netlist) *logic.Netlist { return n.Clone() }
