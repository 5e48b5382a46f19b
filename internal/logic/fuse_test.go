package logic

import (
	"math/rand"
	"reflect"
	"testing"
)

// compileTopo compiles a netlist along its own topological order.
func compileTopo(n *Netlist) (*Program, error) {
	topo, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	return Compile(n, topo)
}

// fuseOf compiles and fuses a netlist, failing the test on any error.
func fuseOf(t *testing.T, n *Netlist) (*Program, *FusedProgram) {
	t.Helper()
	p, err := compileTopo(n)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return p, Fuse(p)
}

// checkOutsCover asserts the fundamental fusion invariant: the fused
// program writes every source-program destination net exactly once.
func checkOutsCover(t *testing.T, p *Program, fp *FusedProgram) {
	t.Helper()
	seen := make(map[int32]int)
	for _, o := range fp.Outs {
		seen[o]++
	}
	if len(fp.Outs) != p.NumInstrs() {
		t.Fatalf("fused outs %d, want one per source instruction %d", len(fp.Outs), p.NumInstrs())
	}
	for _, o := range p.Outs {
		if seen[o] != 1 {
			t.Fatalf("net %d written %d times by fused program, want 1", o, seen[o])
		}
	}
	if fp.NumGroups() != len(fp.Ops) || fp.NumInstrs() != p.NumInstrs() {
		t.Fatalf("group/instr accounting: groups=%d ops=%d instrs=%d/%d",
			fp.NumGroups(), len(fp.Ops), fp.NumInstrs(), p.NumInstrs())
	}
	if fp.Absorbed() != p.NumInstrs()-len(fp.Ops) {
		t.Fatalf("Absorbed()=%d, want %d", fp.Absorbed(), p.NumInstrs()-len(fp.Ops))
	}
	var mixTotal int64
	for _, c := range fp.Mix() {
		mixTotal += c
	}
	if mixTotal != int64(len(fp.Ops)) {
		t.Fatalf("mix total %d, want %d", mixTotal, len(fp.Ops))
	}
}

func TestFuseFullAdderAO22(t *testing.T) {
	// Carry-out of a full adder: both ANDs are single-use feeds of the
	// OR, so the carry cell fuses to AO22; the XOR feeding sum and
	// carry is dual-use and must stay unfused.
	n := New()
	a, b, cin := n.AddInput("a"), n.AddInput("b"), n.AddInput("cin")
	axb := n.Add(Xor, a, b)
	sum := n.Add(Xor, axb, cin)
	t1 := n.Add(And, a, b)
	t2 := n.Add(And, axb, cin)
	cout := n.Add(Or, t1, t2)
	n.MarkOutput(sum)
	n.MarkOutput(cout)

	p, fp := fuseOf(t, n)
	checkOutsCover(t, p, fp)
	mix := fp.Mix()
	if mix["ao22"] != 1 {
		t.Fatalf("mix = %v, want one ao22", mix)
	}
	if mix["xor2"] != 2 {
		t.Fatalf("mix = %v, want both xors unfused (axb is dual-use)", mix)
	}
	if fp.Absorbed() != 2 {
		t.Fatalf("Absorbed() = %d, want 2 (the two ANDs)", fp.Absorbed())
	}
}

func TestFuseChains(t *testing.T) {
	n := New()
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	and4 := n.Add(And, n.Add(And, n.Add(And, a, b), c), d)
	or3 := n.Add(Or, n.Add(Or, a, b), c)
	xor3 := n.Add(Xor, n.Add(Xor, c, d), a)
	n.MarkOutput(and4)
	n.MarkOutput(or3)
	n.MarkOutput(xor3)

	p, fp := fuseOf(t, n)
	checkOutsCover(t, p, fp)
	mix := fp.Mix()
	want := map[string]int64{"and4": 1, "or3": 1, "xor3": 1}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
}

func TestFuseAOIAndNotShapes(t *testing.T) {
	n := New()
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	aoi21 := n.Add(Nor, n.Add(And, a, b), c)
	oai22 := n.Add(Nand, n.Add(Or, a, b), n.Add(Or, c, d))
	ornot := n.Add(Or, n.Add(Not, a), b)
	n.MarkOutput(aoi21)
	n.MarkOutput(oai22)
	n.MarkOutput(ornot)

	p, fp := fuseOf(t, n)
	checkOutsCover(t, p, fp)
	mix := fp.Mix()
	want := map[string]int64{"aoi21": 1, "oai22": 1, "ornot": 1}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
}

func TestFuseMultiUseProducerStaysUnfused(t *testing.T) {
	// t1 feeds two ORs: absorbing it into either would drop the other
	// reader's operand, so it must stay a singleton.
	n := New()
	a, b, c, d := n.AddInput("a"), n.AddInput("b"), n.AddInput("c"), n.AddInput("d")
	t1 := n.Add(And, a, b)
	n.MarkOutput(n.Add(Or, t1, c))
	n.MarkOutput(n.Add(Or, t1, d))

	p, fp := fuseOf(t, n)
	checkOutsCover(t, p, fp)
	mix := fp.Mix()
	want := map[string]int64{"and2": 1, "or2": 2}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("mix = %v, want %v", mix, want)
	}
	if fp.Absorbed() != 0 {
		t.Fatalf("Absorbed() = %d, want 0", fp.Absorbed())
	}
}

// randNetlist builds a random combinational netlist: a layer of inputs
// followed by gates whose fanins are uniform over all prior signals.
// Shared here with the sim package's equivalence tests (reimplemented
// there — sim cannot import logic test helpers).
func randNetlist(rng *rand.Rand, nInputs, nGates int) *Netlist {
	n := New()
	for i := 0; i < nInputs; i++ {
		n.AddInput("")
	}
	kinds := []Kind{And, Or, Nand, Nor, Xor, Xnor, Not, Buf, Mux, Const0, Const1}
	for g := 0; g < nGates; g++ {
		k := kinds[rng.Intn(len(kinds))]
		pick := func() int { return rng.Intn(len(n.Gates)) }
		switch k {
		case Not, Buf:
			n.Add(k, pick())
		case Mux:
			n.Add(k, pick(), pick(), pick())
		case Const0, Const1:
			n.Add(k)
		case And, Or, Nand, Nor:
			f := []int{pick(), pick()}
			for rng.Intn(4) == 0 {
				f = append(f, pick())
			}
			n.Add(k, f...)
		default:
			n.Add(k, pick(), pick())
		}
	}
	for i := 0; i < 1+rng.Intn(4); i++ {
		n.MarkOutput(rng.Intn(len(n.Gates)))
	}
	return n
}

func TestFuseRandomNetlistInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := randNetlist(rng, 2+rng.Intn(6), 1+rng.Intn(60))
		p, err := compileTopo(n)
		if err != nil {
			t.Fatalf("trial %d: Compile: %v", trial, err)
		}
		fp := Fuse(p)
		checkOutsCover(t, p, fp)
		// Determinism: fusing the same program again yields the same
		// fused program, byte for byte.
		if !reflect.DeepEqual(fp, Fuse(p)) {
			t.Fatalf("trial %d: Fuse is not deterministic", trial)
		}
	}
}

// TestCompileLevelizesAlongTopo: a gate may read a gate with a higher
// id (a rewire through Gates builds one without a cycle). Compile
// levelizes along the topological order it is given, so the fanin's
// instruction comes first; an order that visits a reader before its
// fanin, or lists the wrong number of gates, is an error.
func TestCompileLevelizesAlongTopo(t *testing.T) {
	n := New()
	a, b := n.AddInput("a"), n.AddInput("b")
	g2 := n.Add(And, a, b)
	g3 := n.Add(Xor, a, b)
	n.Gates[g2].Fanin[1] = g3
	n.MarkOutput(g2)
	p, err := compileTopo(n)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int32{int32(g3), int32(g2)}; !reflect.DeepEqual(p.Outs, want) {
		t.Fatalf("instruction order %v, want %v", p.Outs, want)
	}
	if _, err := Compile(n, []int{a, b, g2, g3}); err == nil {
		t.Fatal("an order visiting gate 2 before its fanin 3 compiled")
	}
	if _, err := Compile(n, []int{a, b, g3}); err == nil {
		t.Fatal("an order missing a gate compiled")
	}
}

func TestFusedOpStrings(t *testing.T) {
	for op := FusedOp(0); op < FusedOpCount; op++ {
		if op.String() == "" || op.String() == "fusedop(?)" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if FusedOpCount.String() != "fusedop(?)" {
		t.Fatalf("sentinel should not have a name")
	}
	if FAnd2.IsSuper() || !FAO22.IsSuper() {
		t.Fatalf("IsSuper misclassifies")
	}
}
