// Unit-delay event-driven simulation, 64 cycles at a time. When every
// gate with a fanin has Delay 1, one cycle of the timing wheel is a
// synchronous recurrence: start from the previous cycle's settled
// values with the sources (inputs, constants, flip-flops) replaced, and
// at step T give every non-source gate op(its fanins at step T−1). A
// gate the wheel does not schedule at T had no fanin change at T−1, so
// the recurrence leaves it unchanged too, and the recurrence visits
// exactly the states the wheel commits. Cycles are independent once
// each one's start and source values are known, so the recurrence runs
// on machine words, one cycle per bit — the lanes GATSPI-style glitch
// simulators parallelize over. The result, the budget charges and the
// failure points are the wheel's, bit for bit: changes are added to
// per-lane bins (addLanes) in the wheel's commit order, and the wheel's
// Step sequence is replayed lane by lane.
package sim

import (
	"math/bits"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
)

// KernelUnitDelay in Result.Kernel marks a lean event-driven run
// executed by the 64-lane unit-delay recurrence instead of the timing
// wheel.
const KernelUnitDelay = "unit-delay"

// unitDelay is the compiled form of a netlist eligible for the
// unit-delay path. Eligibility is a property of the netlist's shape: an
// event-driven model, Delay 1 on every gate with a fanin (a flip-flop's
// delay times the round that scheduling it opens, so DFFs included),
// and a feed-forward settle program (no Latch or EnDFF, no cycle
// through a DFF). The program settles a block's final values in one
// pass; the step windows drive the recurrence from each cycle's start
// to them.
type unitDelay struct {
	feedForward
	reader []bool // per gate id: some gate, DFFs included, reads it

	// A change reaches a gate one step per gate along a path from a
	// source, so a gate can change only at the steps between its
	// shortest and longest such path. Step T (1-based) evaluates
	// stepGates[stepOff[T-1]:stepOff[T]], the gates in that window, in
	// ascending id: the wheel's commit order.
	stepOff   []int32
	stepGates []int32

	clockCap float64 // a cycle's clock charge, summed flip-flop by flip-flop
}

// compileUnitDelay returns the unit-delay program of an event-driven
// environment, or nil when the netlist does not qualify.
func compileUnitDelay(e *env) *unitDelay {
	if e.opts.Model != EventDriven {
		return nil
	}
	gates := e.n.Gates
	for _, g := range gates {
		if len(g.Fanin) > 0 && g.Delay != 1 {
			return nil
		}
	}
	ff, ok := compileFeedForward(gates)
	if !ok {
		return nil // a latch, an enabled flip-flop or a cycle: the wheel keeps it
	}
	u := &unitDelay{feedForward: ff, reader: make([]bool, len(gates))}
	for _, f := range ff.args {
		u.reader[f] = true
	}
	// Path-length windows from the sources (DFFs included), then the
	// per-step gate lists, counting-sorted so each stays ascending.
	short, long := make([]int32, len(gates)), make([]int32, len(gates))
	steps := int32(0)
	for _, id := range u.order {
		if isSource(gates[id].Kind) {
			continue
		}
		a := u.args[u.argOff[id]:u.argOff[id+1]]
		short[id] = short[a[0]]
		for _, f := range a {
			short[id] = min(short[id], short[f])
			long[id] = max(long[id], long[f])
		}
		short[id]++
		long[id]++
		steps = max(steps, long[id])
	}
	u.stepOff = make([]int32, steps+1)
	for id, g := range gates {
		if !isSource(g.Kind) {
			for t := short[id]; t <= long[id]; t++ {
				u.stepOff[t]++
			}
		}
	}
	for t := 1; t <= int(steps); t++ {
		u.stepOff[t] += u.stepOff[t-1]
	}
	u.stepGates = make([]int32, u.stepOff[steps])
	fill := append([]int32(nil), u.stepOff[:steps]...) // next free slot per step
	for id, g := range gates {
		if !isSource(g.Kind) {
			for t := short[id]; t <= long[id]; t++ {
				u.stepGates[fill[t-1]] = int32(id)
				fill[t-1]++
			}
		}
	}
	if e.opts.TrackClock {
		for range e.ffs {
			u.clockCap += e.n.ClockCap
		}
	}
	return u
}

// udCommit is a gate's new word in a recurrence step.
type udCommit struct {
	id int32
	w  uint64
}

// runShardUnitDelay simulates cycles [lo, hi) of an eligible netlist on
// the unit-delay recurrence, lean: it fills the shard's toggles and
// per-cycle capacitance only. Lane layout follows runShardPacked:
// block k covers cycles lo+64k .. lo+64k+63, cycle c in bit c-lo-64k.
// The planes and accumulators live on sc; merge must copy them out
// before sc returns to its pool.
func runShardUnitDelay(b *budget.Budget, e *env, u *unitDelay, inputs InputProvider, lo, hi int, sc *packedScratch) (sh *shard, err error) {
	defer hlerr.Recover(&err)
	n := e.n
	nGates := len(n.Gates)
	cycles := hi - lo
	sh = &shard{lo: lo, hi: hi, toggles: sc.togglesFor(nGates), capByCyc: sc.capFor(cycles)}
	settled, carry := sc.planes(nGates)
	cur, commits := sc.unitDelayState(nGates)

	// Baseline: vector lo−1 settled (vector 0 and the reset state for
	// the first shard), exactly as the wheel's shard settles it.
	if _, err := gatherBlock(n, inputs, settled, max(lo-1, 0), 1); err != nil {
		return nil, err
	}
	u.settle(n.Gates, settled, carry, true)
	for id, w := range settled {
		carry[id] = w & 1
	}

	perCycle := int64(len(e.order)) + 1
	tog := sh.toggles[:nGates]
	loads := e.loads[:nGates]
	capBuf := &sc.bins
	var rounds [64]int
	for w0 := 0; w0 < cycles; w0 += 64 {
		// The lanes before a wrong-width vector run and charge, then its
		// cycle charges and fails, as on the wheel.
		lanes, bad := gatherBlock(n, inputs, settled, lo+w0, min(cycles-w0, 64))
		if lanes > 0 {
			u.settle(n.Gates, settled, carry, lo+w0 == 0)
			mask := ^uint64(0) >> uint(64-lanes)

			// The wheel's commit order, lane by lane: the clock charge
			// (cycles ≥ 1), the sources in ascending id, then each step
			// in ascending id. record lists the changes in that order,
			// and one addLanes call adds them to the lane bins.
			*capBuf = [64]float64{}
			for j := max(0, 1-(lo+w0)); j < lanes; j++ {
				capBuf[j] = u.clockCap
			}
			tw, lw := sc.laneLists(len(e.sources) + len(u.stepGates))
			record := func(id int32, t uint64) {
				tog[id] += int64(bits.OnesCount64(t))
				if load := loads[id]; load != 0 {
					tw = append(tw, t)
					lw = append(lw, load)
				}
			}
			// Step 0: the previous cycle's settled values (the settled
			// words shifted up a lane) with the sources replaced.
			// next marks the lanes where a gate with a reader changed,
			// which are the lanes whose wheel opens a round next step.
			for id, w := range settled {
				cur[id] = w<<1 | carry[id]
			}
			var next uint64
			for _, id := range e.sources {
				t := (settled[id] ^ cur[id]) & mask
				cur[id] = settled[id]
				if t != 0 {
					if u.reader[id] {
						next |= t
					}
					record(int32(id), t)
				}
			}
			// A lane's rounds are consecutive from step 1 (a reader
			// changes at step T only if one of its fanins changed at
			// T−1), so a lane's count is the last step it was live.
			rounds = [64]int{}
			for step := 1; next != 0; step++ {
				live := next
				next = 0
				// Past the longest path a round only skips DFFs.
				if step < len(u.stepOff) {
					// Evaluate the step's gates against step−1, then
					// commit, as the wheel's two phases do.
					commits = commits[:0]
					for _, id := range u.stepGates[u.stepOff[step-1]:u.stepOff[step]] {
						w := evalWord(u.kinds[id], u.args[u.argOff[id]:u.argOff[id+1]], cur)
						if t := (w ^ cur[id]) & mask; t != 0 {
							if u.reader[id] {
								next |= t
							}
							record(id, t)
							commits = append(commits, udCommit{id, w})
						}
					}
					for _, c := range commits {
						cur[c.id] = c.w
					}
				}
				for t := live &^ next; t != 0; t &= t - 1 {
					rounds[bits.TrailingZeros64(t)&63] = step
				}
			}
			for id, w := range settled {
				if (w^cur[id])&mask != 0 {
					hlerr.Throwf("sim.unitDelay", "gate %d ended off its settled value", id)
				}
			}
			addLanes(capBuf, tw, lw)
			copy(sh.capByCyc[w0:], capBuf[:lanes])

			// Replay the wheel's Step sequence: each cycle's charge, then
			// one step per round.
			if b != nil {
				for j := 0; j < lanes; j++ {
					b.Check(perCycle)
					for r := rounds[j]; r > 0; r-- {
						b.Check(1)
					}
				}
			}
		}
		if bad != nil {
			b.Check(perCycle)
			return nil, bad
		}
		for id, w := range settled {
			carry[id] = w >> 63
		}
	}
	return sh, nil
}
