package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/logic"
)

// Netlist shapes of the unit-delay suite. The first two qualify for the
// unit-delay path; each of the others breaks exactly one condition.
const (
	udFeedForward = iota // unit delays, each DFF fed from logic built before it
	udPipelined          // a register cut: DFFs appended after the gates that read them
	udFeedback           // a DFF in a loop through its own D
	udLatch              // a transparent latch
	udEnDFF              // an enabled flip-flop
	udDelay              // one gate with a delay other than 1
	udShapes
)

// randUnitDelayNetlist builds a random unit-delay netlist of the given
// shape: inputs, both constants, Not/Buf/Xor/Xnor/Mux and multi-input
// gates and DFFs with random Init values, over three accounting groups.
func randUnitDelayNetlist(rng *rand.Rand, nInputs, nGates, shape int) *logic.Netlist {
	n := logic.New()
	var sigs []int
	for i := 0; i < nInputs; i++ {
		sigs = append(sigs, n.AddInput("x"))
	}
	sigs = append(sigs, n.Add(logic.Const0), n.Add(logic.Const1))
	groups := []string{"exec", "ctrl", "misc"}
	multi := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor}
	pick := func() int { return sigs[rng.Intn(len(sigs))] }
	grp := func() string { return groups[rng.Intn(len(groups))] }
	dff := func(d int) int {
		id := n.AddG(logic.DFF, grp(), d)
		n.SetInit(id, rng.Intn(2) == 1)
		return id
	}
	for g := 0; g < nGates; g++ {
		var id int
		switch rng.Intn(8) {
		case 0:
			id = n.AddG(logic.Not, grp(), pick())
		case 1:
			id = n.AddG(logic.Buf, grp(), pick())
		case 2:
			id = n.AddG(logic.Xor, grp(), pick(), pick())
		case 3:
			id = n.AddG(logic.Xnor, grp(), pick(), pick())
		case 4:
			id = n.AddG(logic.Mux, grp(), pick(), pick(), pick())
		case 5:
			fanin := []int{pick(), pick(), pick()}
			if rng.Intn(2) == 0 {
				fanin = append(fanin, pick())
			}
			id = n.AddG(multi[rng.Intn(len(multi))], grp(), fanin...)
		case 6:
			id = dff(pick())
		default:
			id = n.AddG(multi[rng.Intn(len(multi))], grp(), pick(), pick())
		}
		sigs = append(sigs, id)
	}
	switch shape {
	case udPipelined:
		// Gates were built in topological order, so ascending ids
		// compute depths; then every fanin at or below the cut depth
		// that feeds a gate above it is read through a DFF appended at
		// the end, as lopt.PipelineCut does.
		depth := make([]int, len(n.Gates))
		deepest := 0
		for id, g := range n.Gates {
			if isSource(g.Kind) {
				continue
			}
			for _, f := range g.Fanin {
				depth[id] = max(depth[id], depth[f]+1)
			}
			deepest = max(deepest, depth[id])
		}
		cut := rng.Intn(deepest + 1)
		regOf := map[int]int{}
		for id := range depth {
			if depth[id] <= cut {
				continue
			}
			for pin, f := range n.Gates[id].Fanin {
				if depth[f] > cut {
					continue
				}
				r, ok := regOf[f]
				if !ok {
					r = dff(f)
					regOf[f] = r
				}
				n.Gates[id].Fanin[pin] = r
			}
		}
	case udFeedback:
		d := dff(pick())
		x := n.AddG(logic.Xor, grp(), d, pick())
		n.Gates[d].Fanin[0] = x
		sigs = append(sigs, d, x)
	case udLatch:
		id := n.AddG(logic.Latch, grp(), pick(), pick())
		n.SetInit(id, rng.Intn(2) == 1)
		sigs = append(sigs, id, n.AddG(logic.Not, grp(), id))
	case udEnDFF:
		id := n.AddG(logic.EnDFF, grp(), pick(), pick())
		n.SetInit(id, rng.Intn(2) == 1)
		sigs = append(sigs, id, n.AddG(logic.Not, grp(), id))
	case udDelay:
		var withFanin []int
		for id, g := range n.Gates {
			if len(g.Fanin) > 0 {
				withFanin = append(withFanin, id)
			}
		}
		if len(withFanin) == 0 {
			withFanin = append(withFanin, n.AddG(logic.Not, grp(), pick()))
		}
		n.Gates[withFanin[rng.Intn(len(withFanin))]].Delay = []int{0, 2, 3}[rng.Intn(3)]
	}
	n.MarkOutput(sigs[len(sigs)-1])
	n.MarkOutput(pick())
	return n
}

// sameLean asserts a lean run matches a full one: Float64bits-identical
// power figures and toggles, with no outputs, group rows or final
// values materialized.
func sameLean(t *testing.T, full, lean *Result, label string) {
	t.Helper()
	if math.Float64bits(full.SwitchedCap) != math.Float64bits(lean.SwitchedCap) || full.Cycles != lean.Cycles {
		t.Fatalf("%s: SwitchedCap %v over %d cycles, full run %v over %d", label, lean.SwitchedCap, lean.Cycles, full.SwitchedCap, full.Cycles)
	}
	if len(full.PerCycleCap) != len(lean.PerCycleCap) || len(full.Toggles) != len(lean.Toggles) {
		t.Fatalf("%s: %d cycle caps and %d toggles, full run %d and %d", label, len(lean.PerCycleCap), len(lean.Toggles), len(full.PerCycleCap), len(full.Toggles))
	}
	for c, v := range full.PerCycleCap {
		if math.Float64bits(v) != math.Float64bits(lean.PerCycleCap[c]) {
			t.Fatalf("%s: PerCycleCap[%d] %v, full run %v", label, c, lean.PerCycleCap[c], v)
		}
	}
	for id, v := range full.Toggles {
		if v != lean.Toggles[id] {
			t.Fatalf("%s: Toggles[%d] %d, full run %d", label, id, lean.Toggles[id], v)
		}
	}
	if lean.Outputs != nil || lean.ByGroup != nil || lean.Final != nil {
		t.Fatalf("%s: lean run materialized %d output rows, %d groups, %d final values", label, len(lean.Outputs), len(lean.ByGroup), len(lean.Final))
	}
}

// checkUnitDelay compares a lean compiled run with the timing wheel
// (RunBudget) on one workload and asserts which path ran. With one
// worker the run is single-shard and goes through sameBudgetOutcomes'
// three budget regimes; more workers may shard it, which forks the
// budget, so there only the results and the total steps are compared.
func checkUnitDelay(t *testing.T, n *logic.Netlist, inputs InputProvider, cycles int, opts Options, workers int, eligible bool, label string) {
	t.Helper()
	c, err := Compile(n, opts)
	if err != nil {
		t.Fatalf("%s: compile: %v", label, err)
	}
	lean := func(b *budget.Budget) (*Result, error) {
		return c.Run(b, inputs, cycles, RunOptions{Workers: workers, Lean: true})
	}
	wheel := func(b *budget.Budget) (*Result, error) { return RunBudget(b, n, inputs, cycles, opts) }
	var got, want *Result
	if workers == 1 {
		got, want = sameBudgetOutcomes(t, label, lean, wheel)
	} else {
		bg, bw := budget.New(), budget.New()
		var gotErr, wantErr error
		got, gotErr = lean(bg)
		want, wantErr = wheel(bw)
		if gotErr != nil || wantErr != nil || bg.StepsUsed() != bw.StepsUsed() {
			t.Fatalf("%s: lean run (%v, %d steps), wheel (%v, %d steps)", label, gotErr, bg.StepsUsed(), wantErr, bw.StepsUsed())
		}
	}
	kernel := ""
	if eligible {
		kernel = KernelUnitDelay
	}
	if got.Kernel != kernel {
		t.Fatalf("%s: kernel %q, want %q", label, got.Kernel, kernel)
	}
	sameLean(t, want, got, label)
}

// udCycles straddle the 64-lane block edges.
var udCycles = []int{1, 63, 64, 65, 130}

// TestUnitDelayMatchesWheel is the unit-delay path's differential
// property: over random unit-delay netlists of every shape, cycle
// counts around block edges, one and three workers and every
// event-driven option set, a lean compiled run reproduces the timing
// wheel's results, budget charges and exhaustion outcomes, on the
// unit-delay path exactly when the netlist qualifies.
func TestUnitDelayMatchesWheel(t *testing.T) {
	trials := 24
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		for shape := 0; shape < udShapes; shape++ {
			rng := rand.New(rand.NewSource(int64(9000 + trial*udShapes + shape)))
			n := randUnitDelayNetlist(rng, 1+rng.Intn(6), 1+rng.Intn(40), shape)
			cycles := udCycles[rng.Intn(len(udCycles))]
			inputs := randVectors(rng, cycles, len(n.Inputs))
			for oi, opts := range eventOptions {
				for _, workers := range []int{1, 3} {
					label := fmt.Sprintf("trial %d shape %d cycles %d opts %d workers %d", trial, shape, cycles, oi, workers)
					checkUnitDelay(t, n, inputs, cycles, opts, workers, shape <= udPipelined, label)
				}
			}
		}
	}
}

// FuzzUnitDelayEquivalence drives the differential property with
// fuzzed netlist shapes, run lengths, worker counts and option sets.
func FuzzUnitDelayEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(0), uint8(2), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(0), uint8(1))
	f.Add(int64(3), uint8(6), uint8(60), uint8(2), uint8(4), uint8(2))
	f.Add(int64(4), uint8(4), uint8(35), uint8(3), uint8(3), uint8(3))
	f.Add(int64(5), uint8(2), uint8(12), uint8(4), uint8(1), uint8(4))
	f.Add(int64(6), uint8(5), uint8(25), uint8(5), uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, shape, cyc, opt uint8) {
		rng := rand.New(rand.NewSource(seed))
		sh := int(shape) % udShapes
		n := randUnitDelayNetlist(rng, 1+int(nIn)%8, 1+int(nGates)%64, sh)
		cycles := udCycles[int(cyc)%len(udCycles)]
		inputs := randVectors(rng, cycles, len(n.Inputs))
		opts := eventOptions[int(opt)%len(eventOptions)]
		workers := 1 + 2*(int(opt)/len(eventOptions)%2)
		forEachLaneKernel(t, func(kernel string) {
			checkUnitDelay(t, n, inputs, cycles, opts, workers, sh <= udPipelined, kernel+" lanes: fuzz")
		})
	})
}

// TestUnitDelayBadVectorMidBlock: a wrong-width vector in the middle of
// a block fails the run with the wheel's input error after charging the
// wheel's steps, and a step limit that trips before that cycle wins
// over the input error exactly as on the wheel.
func TestUnitDelayBadVectorMidBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := randUnitDelayNetlist(rng, 4, 30, udFeedForward)
	const cycles, bad = 130, 100
	vecs := make([][]bool, cycles)
	for c := range vecs {
		vecs[c] = make([]bool, len(n.Inputs))
		for i := range vecs[c] {
			vecs[c][i] = rng.Intn(2) == 1
		}
	}
	vecs[bad] = vecs[bad][:1]
	opts := Options{Model: EventDriven, TrackClock: true}
	c, err := Compile(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{0, 500, 3000} {
		bg, bw := budget.New(budget.WithMaxSteps(limit)), budget.New(budget.WithMaxSteps(limit))
		_, gotErr := c.Run(bg, VectorInputs(vecs), cycles, RunOptions{Workers: 1, Lean: true})
		_, wantErr := RunBudget(bw, n, VectorInputs(vecs), cycles, opts)
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || bg.StepsUsed() != bw.StepsUsed() {
			t.Fatalf("limit %d: got (%v, %d steps), wheel (%v, %d steps)", limit, gotErr, bg.StepsUsed(), wantErr, bw.StepsUsed())
		}
	}
}
