package lopt

import (
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/fsm"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
	"hlpower/internal/trace"
)

func TestComparatorTT(t *testing.T) {
	tt := ComparatorTT(2)
	// a=2,b=1 -> index b<<2|a = 0b0110 = 6.
	if !tt[0b0110] {
		t.Error("2 > 1 should be true")
	}
	if tt[0b1001] {
		t.Error("1 > 2 should be false")
	}
	if tt[0] {
		t.Error("0 > 0 should be false")
	}
}

func TestPrecomputeSubsetAndProbability(t *testing.T) {
	// For the comparator, observing the two MSBs decides the output half
	// the time: Pr[g1+g0] = 1/2.
	w := 3
	res, err := Precompute(ComparatorTT(w), 2*w, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ProbShut-0.5) > 1e-9 {
		t.Errorf("shutdown probability = %v, want 0.5", res.ProbShut)
	}
	wantSubset := map[int]bool{w - 1: true, 2*w - 1: true}
	for _, s := range res.Subset {
		if !wantSubset[s] {
			t.Errorf("subset %v should be the MSBs {%d,%d}", res.Subset, w-1, 2*w-1)
		}
	}
}

func TestPrecomputeEquivalence(t *testing.T) {
	w := 3
	n := 2 * w
	res, err := Precompute(ComparatorTT(w), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	stream := trace.Uniform(300, n, rng)
	prov := func(c int) []bool { return bitutil.ToBits(stream[c], n) }
	base, err := sim.Run(res.Baseline, prov, len(stream), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := sim.Run(res.Precomputed, prov, len(stream), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range base.Outputs {
		if base.Outputs[c][0] != pre.Outputs[c][0] {
			t.Fatalf("cycle %d: baseline %v vs precomputed %v", c, base.Outputs[c][0], pre.Outputs[c][0])
		}
	}
}

func TestPrecomputeSavesBlockPower(t *testing.T) {
	w := 4
	n := 2 * w
	res, err := Precompute(ComparatorTT(w), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	stream := trace.Uniform(600, n, rng)
	prov := func(c int) []bool { return bitutil.ToBits(stream[c], n) }
	base, err := sim.Run(res.Baseline, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := sim.Run(res.Precomputed, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	// Block A alone must switch much less in the precomputed version.
	if pre.ByGroup["block-a"] >= base.ByGroup["block-a"]*0.8 {
		t.Errorf("block-a cap: precomputed %v vs baseline %v — too little saving",
			pre.ByGroup["block-a"], base.ByGroup["block-a"])
	}
}

func TestPrecomputeValidation(t *testing.T) {
	if _, err := Precompute(ComparatorTT(2), 4, 0); err == nil {
		t.Error("k=0 must fail")
	}
	if _, err := Precompute([]bool{true}, 4, 2); err == nil {
		t.Error("wrong table size must fail")
	}
}

// holdFSM: a 6-state machine where input 0 holds the current state
// (self-loop) and input 1 advances — heavy idling for the clock gate.
func holdFSM() *fsm.FSM {
	f := &fsm.FSM{NumInputs: 1, NumOutputs: 2, NumStates: 6,
		Next: make([][]int, 6), Out: make([][]uint64, 6)}
	for s := 0; s < 6; s++ {
		f.Next[s] = []int{s, (s + 1) % 6}
		f.Out[s] = []uint64{uint64(s & 3), uint64(s & 3)}
	}
	return f
}

func TestGatedControllerEquivalence(t *testing.T) {
	f := holdFSM()
	enc := fsm.BinaryEncoding(f.NumStates)
	plain, err := fsm.Synthesize(f, enc)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := GatedController(f, enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	symbols := make([]int, 300)
	for i := range symbols {
		if rng.Float64() < 0.7 {
			symbols[i] = 0 // hold often
		} else {
			symbols[i] = 1
		}
	}
	prov := func(c int) []bool { return []bool{symbols[c] == 1} }
	a, err := sim.Run(plain, prov, len(symbols), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(gated, prov, len(symbols), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Outputs {
		av := bitutil.FromBits(a.Outputs[c])
		bv := bitutil.FromBits(b.Outputs[c])
		if av != bv {
			t.Fatalf("cycle %d: plain %d vs gated %d", c, av, bv)
		}
	}
}

func TestGatedControllerSavesClockPower(t *testing.T) {
	f := holdFSM()
	enc := fsm.BinaryEncoding(f.NumStates)
	plain, err := fsm.Synthesize(f, enc)
	if err != nil {
		t.Fatal(err)
	}
	gated, err := GatedController(f, enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	symbols := make([]int, 500)
	for i := range symbols {
		if rng.Float64() < 0.8 {
			symbols[i] = 0
		} else {
			symbols[i] = 1
		}
	}
	prov := func(c int) []bool { return []bool{symbols[c] == 1} }
	a, err := sim.Run(plain, prov, len(symbols), sim.Options{TrackClock: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(gated, prov, len(symbols), sim.Options{TrackClock: true, GateClock: true})
	if err != nil {
		t.Fatal(err)
	}
	if b.ByGroup["clock"] >= a.ByGroup["clock"]*0.5 {
		t.Errorf("gated clock cap %v should be well below plain %v (80%% hold)",
			b.ByGroup["clock"], a.ByGroup["clock"])
	}
}

// guardCircuit: y = mux(sel; h(x), g(x)) with disjoint deep cones.
func guardCircuit(width int) (*logic.Netlist, int) {
	n := logic.New()
	sel := n.AddInput("sel")
	x := n.AddInputBus("x", width)
	z := n.AddInputBus("z", width)
	// Cone h: xor chain over x.
	h := x[0]
	for i := 1; i < width; i++ {
		h = n.Add(logic.Xor, h, x[i])
	}
	// Cone g: and/or chain over z.
	g := z[0]
	for i := 1; i < width; i++ {
		if i%2 == 0 {
			g = n.Add(logic.And, g, z[i])
		} else {
			g = n.Add(logic.Or, g, z[i])
		}
	}
	y := n.Add(logic.Mux, sel, h, g)
	n.MarkOutput(y)
	return n, y
}

func TestGuardEvaluationEquivalence(t *testing.T) {
	nl, _ := guardCircuit(8)
	guarded, count := GuardEvaluation(nl)
	if count == 0 {
		t.Fatal("no cones guarded")
	}
	rng := rand.New(rand.NewSource(5))
	cycles := 400
	vectors := make([][]bool, cycles)
	for c := range vectors {
		vec := make([]bool, 1+16)
		vec[0] = rng.Float64() < 0.5
		for i := 1; i < len(vec); i++ {
			vec[i] = rng.Intn(2) == 1
		}
		vectors[c] = vec
	}
	a, err := sim.Run(nl, sim.VectorInputs(vectors), cycles, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(guarded, sim.VectorInputs(vectors), cycles, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Outputs {
		if a.Outputs[c][0] != b.Outputs[c][0] {
			t.Fatalf("cycle %d: outputs differ", c)
		}
	}
}

// TestHasEarlySelectMux: wherever the predicate is false,
// GuardEvaluation guards nothing — on the RT-library circuits and on
// random netlists — and a design with an early-select mux is still
// guarded.
func TestHasEarlySelectMux(t *testing.T) {
	var nets []*logic.Netlist
	for _, w := range []int{4, 8} {
		for _, m := range []*rtlib.Module{rtlib.NewAdder(w), rtlib.NewCarrySelectAdder(w), rtlib.NewSubtractor(w), rtlib.NewComparator(w), rtlib.NewMultiplier(w)} {
			nets = append(nets, m.Net)
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nets = append(nets, randomNetlist(rng, 2+rng.Intn(5), 3+rng.Intn(30), 1+rng.Intn(3)))
	}
	early := 0
	for i, n := range nets {
		if HasEarlySelectMux(n) {
			early++
			continue
		}
		if _, guarded := GuardEvaluation(n); guarded != 0 {
			t.Fatalf("netlist %d: no early-select mux, yet %d cones guarded", i, guarded)
		}
	}
	if early == 0 || early == len(nets) {
		t.Fatalf("%d of %d netlists have an early-select mux; want both kinds", early, len(nets))
	}
	nl, _ := guardCircuit(8)
	if !HasEarlySelectMux(nl) {
		t.Fatal("guard circuit: predicate false")
	}
	if _, guarded := GuardEvaluation(nl); guarded == 0 {
		t.Fatal("guard circuit: no cones guarded")
	}
}

func TestGuardEvaluationSavesPower(t *testing.T) {
	nl, _ := guardCircuit(12)
	guarded, _ := GuardEvaluation(nl)
	rng := rand.New(rand.NewSource(6))
	cycles := 600
	vectors := make([][]bool, cycles)
	for c := range vectors {
		vec := make([]bool, 1+24)
		// sel=1 selects the cheap and/or cone 95% of the time, so the
		// high-activity xor cone is guarded off almost always.
		vec[0] = rng.Float64() < 0.95
		for i := 1; i < len(vec); i++ {
			vec[i] = rng.Intn(2) == 1
		}
		vectors[c] = vec
	}
	a, err := sim.Run(nl, sim.VectorInputs(vectors), cycles, sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(guarded, sim.VectorInputs(vectors), cycles, sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if b.SwitchedCap >= a.SwitchedCap {
		t.Errorf("guarded cap %v should be below baseline %v", b.SwitchedCap, a.SwitchedCap)
	}
}

func TestPipelineCutEquivalence(t *testing.T) {
	// Multiplier (glitch-heavy) pipelined at mid depth: outputs must
	// equal the baseline delayed by one cycle.
	n := logic.New()
	a := n.AddInputBus("a", 4)
	b := n.AddInputBus("b", 4)
	// Simple reconvergent arithmetic: (a+b) XOR-folded.
	s := make(logic.Bus, 4)
	carry := n.Add(logic.Const0)
	for i := 0; i < 4; i++ {
		axb := n.Add(logic.Xor, a[i], b[i])
		s[i] = n.Add(logic.Xor, axb, carry)
		ab := n.Add(logic.And, a[i], b[i])
		cx := n.Add(logic.And, axb, carry)
		carry = n.Add(logic.Or, ab, cx)
	}
	n.MarkOutputBus(s)
	n.MarkOutput(carry)

	cut, err := PipelineCut(n, n.Depth()/2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	streamA := trace.Uniform(200, 4, rng)
	streamB := trace.Uniform(200, 4, rng)
	prov := func(c int) []bool {
		return append(bitutil.ToBits(streamA[c], 4), bitutil.ToBits(streamB[c], 4)...)
	}
	base, err := sim.Run(n, prov, 200, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	piped, err := sim.Run(cut, prov, 200, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := 1; c < 200; c++ {
		for j := range base.Outputs[c-1] {
			if piped.Outputs[c][j] != base.Outputs[c-1][j] {
				t.Fatalf("cycle %d out %d: pipeline not a 1-cycle delay", c, j)
			}
		}
	}
}

func TestRetimeForPowerReducesGlitchPower(t *testing.T) {
	// Deep unbalanced xor/and network with heavy glitching: the best cut
	// must beat at least the worst cut, and the chosen pipeline must not
	// switch more combinational cap than the unpipelined baseline's
	// combinational logic... registers add their own cap, so compare the
	// "logic" group only.
	n := logic.New()
	in := n.AddInputBus("x", 10)
	cur := in[0]
	var mids []int
	for i := 1; i < 10; i++ {
		cur = n.Add(logic.Xor, cur, in[i])
		mids = append(mids, cur)
	}
	// Fan the glitchy chain tail into more logic.
	tail := cur
	for i := 0; i < 8; i++ {
		tail = n.Add(logic.Xor, tail, mids[i%len(mids)])
	}
	n.MarkOutput(tail)

	rng := rand.New(rand.NewSource(8))
	stream := trace.Uniform(150, 10, rng)
	prov := func(c int) []bool { return bitutil.ToBits(stream[c], 10) }

	depth, best, err := RetimeForPower(n, prov, len(stream))
	if err != nil {
		t.Fatal(err)
	}
	if depth <= 0 || best == nil {
		t.Fatal("no cut chosen")
	}
	resBest, err := sim.Run(best, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	// Compare against the deepest (least useful) cut.
	worstNet, err := PipelineCut(n, n.Depth()-1)
	if err != nil {
		t.Fatal(err)
	}
	resWorst, err := sim.Run(worstNet, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if resBest.SwitchedCap > resWorst.SwitchedCap {
		t.Errorf("chosen cut %v switches more than the worst cut %v", resBest.SwitchedCap, resWorst.SwitchedCap)
	}
	if resBest.ByGroup["logic"] >= resWorst.ByGroup["logic"] {
		t.Errorf("chosen cut's logic cap %v should beat worst %v",
			resBest.ByGroup["logic"], resWorst.ByGroup["logic"])
	}
}

func TestPipelineCutTooShallow(t *testing.T) {
	n := logic.New()
	a := n.AddInput("a")
	n.MarkOutput(n.Add(logic.Not, a))
	if _, _, err := RetimeForPower(n, nil, 0); err == nil {
		t.Error("expected error on depth-1 netlist")
	}
}

func TestCloneNetlistIndependent(t *testing.T) {
	n := logic.New()
	a := n.AddInput("a")
	g := n.Add(logic.Not, a)
	n.MarkOutput(g)
	c := cloneNetlist(n)
	c.Gates[g].Fanin[0] = 0
	c.AddInput("b")
	if len(n.Inputs) != 1 {
		t.Error("clone mutated the original inputs")
	}
	if n.Gates[g].Fanin[0] != a {
		t.Error("clone shares fanin storage with the original")
	}
}

func TestPrecomputeComparatorEquivalence(t *testing.T) {
	w := 6
	res := PrecomputeComparator(w)
	if res.ProbShut != 0.5 {
		t.Errorf("shutdown probability = %v, want 0.5", res.ProbShut)
	}
	rng := rand.New(rand.NewSource(71))
	stream := trace.Uniform(400, 2*w, rng)
	prov := func(c int) []bool { return bitutil.ToBits(stream[c], 2*w) }
	base, err := sim.Run(res.Baseline, prov, len(stream), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre, err := sim.Run(res.Precomputed, prov, len(stream), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for c := range base.Outputs {
		if base.Outputs[c][0] != pre.Outputs[c][0] {
			t.Fatalf("cycle %d: structural precompute diverges", c)
		}
	}
	// And it must actually save on the block.
	baseED, err := sim.Run(res.Baseline, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	preED, err := sim.Run(res.Precomputed, prov, len(stream), sim.Options{Model: sim.EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if preED.ByGroup["block-a"] >= baseED.ByGroup["block-a"]*0.8 {
		t.Errorf("block-a saving too small: %v vs %v",
			preED.ByGroup["block-a"], baseED.ByGroup["block-a"])
	}
}

// TestGuardEvaluationDeterministic checks that guarding is a pure
// function of the netlist: fifty calls build one structure.
func TestGuardEvaluationDeterministic(t *testing.T) {
	nl, _ := guardCircuit(4)
	keys := map[memo.Key]bool{}
	for i := 0; i < 50; i++ {
		guarded, _ := GuardEvaluation(nl)
		e := memo.NewEnc()
		memo.HashNetlist(e, guarded)
		keys[e.Key()] = true
	}
	if len(keys) != 1 {
		t.Fatalf("50 calls built %d distinct netlists", len(keys))
	}
}
