package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/logic"
)

// randComb builds a random combinational DAG exercising every packed
// opcode: multi-input And/Or/Nand/Nor, Xor/Xnor, Not/Buf, Mux, and
// constants, spread across a few accounting groups. For half of the
// draws the DAG's topological order is a random permutation of the
// gates rather than their id order, so gates read gates with higher
// ids: AddG cannot build such a netlist, a rewire through Gates can.
func randComb(rng *rand.Rand, nInputs, nGates int) *logic.Netlist {
	n := logic.New()
	var sigs []int
	for i := 0; i < nInputs; i++ {
		sigs = append(sigs, n.AddInput("x"))
	}
	sigs = append(sigs, n.Add(logic.Const0), n.Add(logic.Const1))
	nSources := len(sigs)
	groups := []string{"exec", "ctrl", "misc"}
	pick := func() int { return sigs[rng.Intn(len(sigs))] }
	for g := 0; g < nGates; g++ {
		grp := groups[rng.Intn(len(groups))]
		var id int
		switch rng.Intn(8) {
		case 0:
			id = n.AddG(logic.Not, grp, pick())
		case 1:
			id = n.AddG(logic.Buf, grp, pick())
		case 2:
			id = n.AddG(logic.Xor, grp, pick(), pick())
		case 3:
			id = n.AddG(logic.Xnor, grp, pick(), pick())
		case 4:
			id = n.AddG(logic.Mux, grp, pick(), pick(), pick())
		case 5:
			// 3-input gate: exercises the multi-fanin fold.
			kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor}
			id = n.AddG(kinds[rng.Intn(len(kinds))], grp, pick(), pick(), pick())
		default:
			kinds := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor}
			id = n.AddG(kinds[rng.Intn(len(kinds))], grp, pick(), pick())
		}
		sigs = append(sigs, id)
	}
	last := sigs[len(sigs)-1]
	if rng.Intn(2) == 0 {
		// Each gate of a random order reads only sources and the gates
		// before it in that order; the order's last gate is an output.
		avail := append([]int(nil), sigs[:nSources]...)
		for _, k := range rng.Perm(nGates) {
			last = sigs[nSources+k]
			for j := range n.Gates[last].Fanin {
				n.Gates[last].Fanin[j] = avail[rng.Intn(len(avail))]
			}
			avail = append(avail, last)
		}
	}
	n.MarkOutput(last)
	n.MarkOutput(sigs[len(sigs)/2])
	return n
}

func randVectors(rng *rand.Rand, cycles, width int) InputProvider {
	vectors := make([][]bool, cycles)
	for c := range vectors {
		v := make([]bool, width)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		vectors[c] = v
	}
	return VectorInputs(vectors)
}

// TestPackedBitIdenticalToSerial is the packed kernel's core property:
// over random netlists and cycle counts straddling word boundaries —
// including counts not divisible by 64, which keep tail-lane masking on
// the hot path — every field of the result is bit-identical to the
// serial zero-delay engine.
func TestPackedBitIdenticalToSerial(t *testing.T) {
	cycleCounts := []int{1, 2, 63, 64, 65, 127, 128, 130, 320, 333}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		n := randComb(rng, 3+rng.Intn(6), 5+rng.Intn(40))
		for _, cycles := range cycleCounts {
			inputs := randVectors(rng, cycles, len(n.Inputs))
			serial, err := Run(n, inputs, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			packed, err := RunPacked(n, inputs, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if packed.Kernel != KernelFused || packed.Fallback != "" {
				t.Fatalf("trial %d cycles %d: Kernel=%q Fallback=%q, want fused/\"\"",
					trial, cycles, packed.Kernel, packed.Fallback)
			}
			sameResult(t, serial, packed, "packed")
		}
	}
}

// TestPackedSequentialFallback: stateful netlists cannot bit-pack, so
// RunPacked must degrade to the scalar engine, say so, and still return
// the exact serial result.
func TestPackedSequentialFallback(t *testing.T) {
	n := logic.New()
	a := n.AddInput("a")
	q := n.Add(logic.DFF, a)
	n.MarkOutput(n.Add(logic.Xor, a, q))
	rng := rand.New(rand.NewSource(7))
	inputs := randVectors(rng, 100, 1)

	serial, err := Run(n, inputs, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := RunPacked(n, inputs, 100, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Fallback != FallbackSequential || packed.Kernel != "" {
		t.Fatalf("Fallback=%q Kernel=%q, want %q/\"\"", packed.Fallback, packed.Kernel, FallbackSequential)
	}
	sameResult(t, serial, packed, "sequential-fallback")
}

// TestPackedEventDrivenFallback: glitch-aware timing needs per-event
// ordering the bit-parallel evaluation cannot express.
func TestPackedEventDrivenFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := randComb(rng, 4, 20)
	inputs := randVectors(rng, 80, 4)

	serial, err := Run(n, inputs, 80, Options{Model: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := RunPacked(n, inputs, 80, Options{Model: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Fallback != FallbackEventDriven || packed.Kernel != "" {
		t.Fatalf("Fallback=%q Kernel=%q, want %q/\"\"", packed.Fallback, packed.Kernel, FallbackEventDriven)
	}
	sameResult(t, serial, packed, "event-driven-fallback")
}

// TestParallelUsesPackedKernel: RunParallel rides the packed kernel for
// eligible workloads, reports it, and stays bit-identical.
func TestParallelUsesPackedKernel(t *testing.T) {
	n, inputs := mcNetlist(t, 12, 2000, 42)
	serial, err := Run(n, inputs, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := RunParallel(nil, n, inputs, 2000, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if packed.Kernel != KernelFused {
		t.Fatalf("parallel Kernel=%q, want %q", packed.Kernel, KernelFused)
	}
	sameResult(t, serial, packed, "parallel-packed")
}

// TestPackedBudgetAccounting: the packed kernel charges one step per
// gate per cycle exactly like the scalar engine, just in word-sized
// increments, so governed runs stay comparable across kernels.
func TestPackedBudgetAccounting(t *testing.T) {
	n, inputs := mcNetlist(t, 12, 1000, 5)
	bs := budget.New(budget.WithMaxSteps(1 << 40))
	if _, err := RunBudget(bs, n, inputs, 1000, Options{}); err != nil {
		t.Fatal(err)
	}
	bp := budget.New(budget.WithMaxSteps(1 << 40))
	if _, err := RunPackedBudget(bp, n, inputs, 1000, Options{}); err != nil {
		t.Fatal(err)
	}
	if bs.StepsUsed() != bp.StepsUsed() {
		t.Fatalf("packed charged %d steps, serial %d", bp.StepsUsed(), bs.StepsUsed())
	}
}

// TestPackedBudgetExhaustion: a too-small step allowance trips the
// typed budget error through the packed path.
func TestPackedBudgetExhaustion(t *testing.T) {
	n, inputs := mcNetlist(t, 12, 5000, 9)
	b := budget.New(budget.WithMaxSteps(200), budget.WithCheckInterval(1))
	_, err := RunPackedBudget(b, n, inputs, 5000, Options{})
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("err = %v, want budget.ErrExceeded", err)
	}
}

// TestPackedInputWidthMismatch: a wrong-width vector is the same typed
// input error the scalar engine reports.
func TestPackedInputWidthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := randComb(rng, 4, 10)
	bad := func(int) []bool { return make([]bool, 1) }
	if _, err := RunPacked(n, bad, 10, Options{}); err == nil {
		t.Fatal("want width-mismatch error")
	}
}

// TestForwardFaninMatchesSerial: every 64-lane path levelizes in the
// netlist's topological order, not by gate id, so a gate that reads a
// higher id settles after its fanin and each path equals the serial
// engine. The netlist: inputs a, b; g2 = And(a, g3); g3 = Xor(a, b);
// outputs g2 and Or(g3, b). AddG cannot build it (a fanin must exist
// when its reader is added), but a rewire through the exported Gates
// slice can, and the netlist has no cycle.
func TestForwardFaninMatchesSerial(t *testing.T) {
	n := logic.New()
	a, b := n.AddInput("a"), n.AddInput("b")
	g2 := n.Add(logic.And, a, b)
	g3 := n.Add(logic.Xor, a, b)
	n.Gates[g2].Fanin[1] = g3
	n.MarkOutput(g2)
	n.MarkOutput(n.Add(logic.Or, g3, b))
	rng := rand.New(rand.NewSource(5))
	for _, cycles := range []int{5, 130} {
		vectors := [][]bool{{false, false}, {true, false}, {false, true}, {true, true}, {false, true}}
		for len(vectors) < cycles {
			vectors = append(vectors, []bool{rng.Intn(2) == 1, rng.Intn(2) == 1})
		}
		inputs := VectorInputs(vectors[:cycles])
		label := fmt.Sprintf("cycles %d", cycles)
		serial, err := Run(n, inputs, cycles, Options{})
		if err != nil {
			t.Fatal(err)
		}
		packed, err := RunPacked(n, inputs, cycles, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, serial, packed, label+": RunPacked")
		// OutputWords runs first: a settle left in the pooled planes by
		// an earlier run of the same inputs would mask a stale read.
		c, err := Compile(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotOut, err := c.OutputWords(nil, func(cy int) uint64 { return bitutil.FromBits(inputs(cy)) }, cycles)
		if err != nil {
			t.Fatal(err)
		}
		for cy, row := range serial.Outputs {
			if want := bitutil.FromBits(row); gotOut[cy] != want {
				t.Fatalf("%s: OutputWords[%d] = %d, serial outputs %d", label, cy, gotOut[cy], want)
			}
		}
		fused, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, serial, fused, label+": compiled")
		if err := c.BuildCodegen(); err != nil {
			t.Fatal(err)
		}
		cg, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if cg.Kernel != KernelCodegen {
			t.Fatalf("%s: Kernel %q after BuildCodegen", label, cg.Kernel)
		}
		sameResult(t, serial, cg, label+": codegen")
		if cycles > 64 {
			par, err := RunParallel(nil, n, inputs, cycles, ParallelOptions{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if par.Shards != 3 {
				t.Fatalf("%s: RunParallel ran %d shards, want 3", label, par.Shards)
			}
			sameResult(t, serial, par, label+": RunParallel")
		}
	}
}

// fuzzAgainstSerial is the body of the fused-kernel fuzz targets: it
// draws a randComb netlist and vectors from the fuzzed corners and runs
// the serial engine (RunBudget) and run under fresh budgets with the
// same step limit (none when maxSteps is 0). Every path charges the
// same total, so both trip exactly when that total exceeds the limit;
// when the serial run finishes, run must equal it to the bit, report
// the fused kernel, and charge the same number of steps.
func fuzzAgainstSerial(t *testing.T, seed int64, nIn, nGates uint8, cyc uint16, maxSteps uint32,
	run func(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int) (*Result, error)) {
	t.Helper()
	nInputs := 1 + int(nIn)%8
	gates := 1 + int(nGates)%48
	cycles := 1 + int(cyc)%300
	rng := rand.New(rand.NewSource(seed))
	n := randComb(rng, nInputs, gates)
	inputs := randVectors(rng, cycles, nInputs)
	newBudget := func() *budget.Budget {
		if maxSteps == 0 {
			return budget.New()
		}
		return budget.New(budget.WithMaxSteps(int64(maxSteps)), budget.WithCheckInterval(1))
	}
	bs, bf := newBudget(), newBudget()
	serial, errS := RunBudget(bs, n, inputs, cycles, Options{})
	fused, errF := run(bf, n, inputs, cycles)
	if errS != nil {
		if !errors.Is(errS, budget.ErrExceeded) || !errors.Is(errF, budget.ErrExceeded) {
			t.Fatalf("errors: serial %v, fused %v", errS, errF)
		}
		return
	}
	if errF != nil {
		t.Fatalf("serial finished; fused %v", errF)
	}
	if fused.Kernel != KernelFused {
		t.Fatalf("Kernel=%q, want fused", fused.Kernel)
	}
	sameResult(t, serial, fused, "fuzz")
	if bf.StepsUsed() != bs.StepsUsed() {
		t.Fatalf("steps: serial %d, fused %d", bs.StepsUsed(), bf.StepsUsed())
	}
}

// FuzzPackedEquivalence drives the one-shot RunPackedBudget against the
// serial engine from the same fuzzed corners as FuzzFusedEquivalence;
// a combinational netlist must never take a kernel fallback.
func FuzzPackedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20), uint16(65), uint32(0))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1), uint32(0))
	f.Add(int64(3), uint8(8), uint8(60), uint16(257), uint32(0))
	f.Add(int64(99), uint8(3), uint8(12), uint16(64), uint32(0))
	f.Add(int64(42), uint8(4), uint8(30), uint16(128), uint32(500))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8, cyc uint16, maxSteps uint32) {
		fuzzAgainstSerial(t, seed, nIn, nGates, cyc, maxSteps,
			func(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int) (*Result, error) {
				res, err := RunPackedBudget(b, n, inputs, cycles, Options{})
				if err == nil && res.Fallback != "" {
					t.Fatalf("Fallback=%q, want none", res.Fallback)
				}
				return res, err
			})
	})
}
