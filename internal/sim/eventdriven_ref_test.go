package sim

// The map-scheduled event-driven engine that the timing wheel in
// sim.go replaced, kept verbatim as the reference the differential
// suite (eventdriven_test.go) compares against: refRunBudget is
// RunBudget over refRunShard, and refRunShard/refSimulateEventDriven
// are the previous runShard/simulateEventDriven, with pending events in
// a map of per-time gate sets, ids sorted each round, and the clock
// edge walking every gate.

import (
	"sort"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// refRunBudget is RunBudget on the reference engine.
func refRunBudget(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int, opts Options) (res *Result, err error) {
	defer hlerr.Recover(&err)
	e, err := prepare(n, inputs, cycles, opts)
	if err != nil {
		return nil, err
	}
	sh, err := refRunShard(b, e, inputs, 0, cycles)
	if err != nil {
		return nil, err
	}
	return merge(e, cycles, []*shard{sh}), nil
}

// refRunShard simulates cycles [lo, hi). The first shard (lo == 0) starts
// from the reset state exactly as the original serial engine did; later
// shards — valid only for state-free netlists — rebuild their
// transition baseline by settling the previous shard's last input
// vector, so transition counting across the shard boundary matches a
// serial run cycle for cycle.
func refRunShard(b *budget.Budget, e *env, inputs InputProvider, lo, hi int) (sh *shard, err error) {
	defer hlerr.Recover(&err)
	n := e.n
	sh = &shard{
		lo: lo, hi: hi,
		toggles:  make([]int64, len(n.Gates)),
		capByCyc: make([]float64, hi-lo),
		grpByCyc: make([][]float64, hi-lo),
		outputs:  make([][]bool, 0, hi-lo),
	}
	grpFlat := make([]float64, (hi-lo)*len(e.groups))
	for i := range sh.grpByCyc {
		sh.grpByCyc[i] = grpFlat[i*len(e.groups) : (i+1)*len(e.groups)]
	}
	// Per-cycle output rows are views into one flat backing array; the
	// hot loop must not allocate per cycle.
	outFlat := make([]bool, (hi-lo)*len(n.Outputs))

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
		sh.grpByCyc[cur][e.groupOf[id]] += e.loads[id]
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
	fetch := func(cycle int) ([]bool, error) {
		vec := inputs(cycle)
		if len(vec) != len(n.Inputs) {
			return nil, hlerr.Errorf("sim.Run", "input vector width %d, want %d", len(vec), len(n.Inputs))
		}
		return vec, nil
	}

	// Baseline: transitions in the shard's first cycle are counted
	// against the settled values of the previous input vector (vector 0
	// for the first shard, matching the serial reset initialization).
	base := lo - 1
	if base < 0 {
		base = 0
	}
	vec, err := fetch(base)
	if err != nil {
		return nil, err
	}
	for i, sig := range n.Inputs {
		values[sig] = vec[i]
	}
	evalSettled()

	prev := make([]bool, len(n.Gates))
	var ed *refEDScratch
	var fanouts [][]int
	if e.opts.Model == EventDriven {
		ed = newRefEDScratch()
		fanouts = n.Fanouts()
	}
	for cycle := lo; cycle < hi; cycle++ {
		b.Check(int64(len(e.order)) + 1)
		cur = cycle - lo
		copy(prev, values)
		vec, err := fetch(cycle)
		if err != nil {
			return nil, err
		}
		copy(inVals, vec)

		// Clock edge between cycles: update flip-flop state from the
		// previous cycle's settled D. Cycle 0 runs from the reset state.
		if cycle > 0 {
			for _, id := range e.order {
				g := &n.Gates[id]
				switch g.Kind {
				case logic.DFF:
					state[id] = prev[g.Fanin[0]]
				case logic.EnDFF:
					if prev[g.Fanin[0]] {
						state[id] = prev[g.Fanin[1]]
					}
				}
			}
			// Clock tree power for this edge.
			if e.opts.TrackClock {
				for _, g := range n.Gates {
					if g.Kind == logic.DFF {
						sh.capByCyc[cur] += n.ClockCap
						sh.grpByCyc[cur][e.clockGI] += n.ClockCap
					} else if g.Kind == logic.EnDFF {
						if e.opts.GateClock && !prev[g.Fanin[0]] {
							continue
						}
						sh.capByCyc[cur] += n.ClockCap
						sh.grpByCyc[cur][e.clockGI] += n.ClockCap
					}
				}
			}
		}
		for i, sig := range n.Inputs {
			values[sig] = inVals[i]
		}

		if e.opts.Model == EventDriven {
			refSimulateEventDriven(b, n, fanouts, values, state, prev, record, ed)
		} else {
			evalSettled()
			for id := range values {
				if values[id] != prev[id] {
					record(id)
				}
			}
		}

		out := outFlat[cur*len(n.Outputs) : (cur+1)*len(n.Outputs) : (cur+1)*len(n.Outputs)]
		for i, o := range n.Outputs {
			out[i] = values[o]
		}
		sh.outputs = append(sh.outputs, out)
	}
	sh.final = values
	return sh, nil
}

// refEDScratch is the per-shard scratch of the event-driven engine. The
// simulator used to rebuild all of this every cycle — a pending map,
// its per-time gate sets, the sorted time list, the fanin and commit
// buffers — which dominated the allocation profile of glitch-aware
// runs. One instance now lives for a whole shard: maps are emptied and
// recycled through a free list, slices are truncated and regrown only
// past their high-water mark.
type refEDScratch struct {
	pending  map[int]map[int]bool // time -> set of gates awaiting eval
	free     []map[int]bool       // drained gate sets, ready for reuse
	times    []int
	ids      []int
	faninBuf []bool
	commits  []refEDCommit
}

type refEDCommit struct {
	gate int
	val  bool
}

func newRefEDScratch() *refEDScratch {
	return &refEDScratch{
		pending:  make(map[int]map[int]bool),
		faninBuf: make([]bool, 0, 8),
	}
}

// refSimulateEventDriven settles one clock cycle under per-gate delays,
// counting every output change (functional transitions and glitches).
// values holds the new source values (inputs and FF outputs already
// updated); prev holds last cycle's settled values. s carries reusable
// scratch across cycles and must not be shared between shards.
func refSimulateEventDriven(b *budget.Budget, n *logic.Netlist, fanouts [][]int, values, state, prev []bool, record func(int), s *refEDScratch) {
	schedule := func(t, g int) {
		m, ok := s.pending[t]
		if !ok {
			if k := len(s.free); k > 0 {
				m = s.free[k-1]
				s.free = s.free[:k-1]
			} else {
				m = make(map[int]bool)
			}
			s.pending[t] = m
		}
		m[g] = true
	}
	// Seed: any source whose value changed triggers its fanouts.
	for id, g := range n.Gates {
		isSource := g.Kind == logic.Input || g.Kind.IsSequential() ||
			g.Kind == logic.Const0 || g.Kind == logic.Const1
		if !isSource {
			continue
		}
		if g.Kind.IsSequential() {
			values[id] = state[id]
		}
		if values[id] != prev[id] {
			record(id)
			for _, f := range fanouts[id] {
				schedule(n.Gates[f].Delay, f)
			}
		}
	}
	for len(s.pending) > 0 {
		b.Check(1)
		// Pop the earliest time.
		s.times = s.times[:0]
		for t := range s.pending {
			s.times = append(s.times, t)
		}
		sort.Ints(s.times)
		t := s.times[0]
		gates := s.pending[t]
		delete(s.pending, t)
		// Phase 1: evaluate every gate scheduled at t against the values
		// as of time t (no in-step visibility, or glitches are lost).
		// Gates are processed in ascending id order — iterating the set
		// directly would commit (and accumulate capacitance) in map
		// order, making the floating-point totals vary run to run.
		s.ids = s.ids[:0]
		for id := range gates {
			s.ids = append(s.ids, id)
		}
		sort.Ints(s.ids)
		s.commits = s.commits[:0]
		for _, id := range s.ids {
			g := &n.Gates[id]
			if g.Kind == logic.Input || g.Kind.IsSequential() ||
				g.Kind == logic.Const0 || g.Kind == logic.Const1 {
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
				s.commits = append(s.commits, refEDCommit{id, newVal})
			}
		}
		// Recycle the drained gate set (range-delete compiles to a map
		// clear) and commit phase 2: count transitions, schedule fanouts.
		for g := range gates {
			delete(gates, g)
		}
		s.free = append(s.free, gates)
		for _, c := range s.commits {
			values[c.gate] = c.val
			if n.Gates[c.gate].Kind == logic.Latch {
				state[c.gate] = c.val
			}
			record(c.gate)
			for _, f := range fanouts[c.gate] {
				schedule(t+n.Gates[f].Delay, f)
			}
		}
	}
}
