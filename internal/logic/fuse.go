// Fusion of compiled programs into superinstructions. The packed kernel
// pays one switch dispatch per compiled instruction; on the adder/
// multiplier netlists this repository serves, a large fraction of those
// instructions are 2-input gates whose single consumer is the next gate
// of a chain (AND/OR/XOR trees, AND-OR carry logic, inverter feeds).
// Fuse collapses those producer→consumer pairs into a fixed vocabulary
// of superinstructions — AND3/AND4, OR3/OR4, XOR3/XOR4, AO/OA, AOI/OAI,
// NOT-absorbed variants — executed with one dispatch per fused group.
//
// Crucially, fusion never elides a net: every absorbed producer's
// output word is still written by its fused group, because per-net
// toggle counts and capacitive loads are observable results. A fused
// group computes exactly the words the unfused instructions computed
// (AND/OR/XOR are bitwise-exact and commutative, so operand order
// inside a group is free), which is what keeps fused runs Float64bits-
// identical to the serial engine — the property the sim package's
// equivalence tests and FuzzFusedEquivalence pin.
//
// Legality: a producer may be hoisted into its consumer's position only
// when the consumer is the producer's sole reader (useCount == 1,
// counted over Program.Args). Programs are SSA within a settle — each
// net is written once and its fanins are never rewritten — so delaying
// a single-use producer to its reader's position cannot change any
// word. Matching walks instructions descending (consumers before their
// producers), emission ascends over the surviving roots; both passes
// are deterministic, so a fixed netlist always fuses identically.
package logic

// FusedOp is the opcode vocabulary of the fused program. Singleton ops
// mirror the unfused cell kinds one-to-one; superinstruction ops carry
// one or two absorbed producers and write multiple output nets.
type FusedOp uint8

// Fused opcodes. For superinstructions, args and outs follow the
// conventions documented on Fuse: outs list absorbed producers first
// (in evaluation order) and the root last.
const (
	FConst0 FusedOp = iota
	FConst1
	FBuf
	FNot
	FAnd2
	FOr2
	FNand2
	FNor2
	FXor2
	FXnor2
	FMux
	FAndN // variadic and, >2 fanins
	FOrN
	FNandN
	FNorN
	FAnd3   // o0=a0&a1      o1=o0&a2
	FAnd4   // o0=a0&a1      o1=o0&a2      o2=o1&a3
	FOr3    // o0=a0|a1      o1=o0|a2
	FOr4    // o0=a0|a1      o1=o0|a2      o2=o1|a3
	FXor3   // o0=a0^a1      o1=o0^a2
	FXor4   // o0=a0^a1      o1=o0^a2      o2=o1^a3
	FAO21   // o0=a0&a1      o1=o0|a2
	FAO22   // o0=a0&a1      o1=a2&a3      o2=o0|o1
	FOA21   // o0=a0|a1      o1=o0&a2
	FOA22   // o0=a0|a1      o1=a2|a3      o2=o0&o1
	FAOI21  // o0=a0&a1      o1=^(o0|a2)
	FAOI22  // o0=a0&a1      o1=a2&a3      o2=^(o0|o1)
	FOAI21  // o0=a0|a1      o1=^(o0&a2)
	FOAI22  // o0=a0|a1      o1=a2|a3      o2=^(o0&o1)
	FAndNot // o0=^a0       o1=o0&a1
	FOrNot  // o0=^a0       o1=o0|a1
	FXorNot // o0=^a0       o1=o0^a1

	FusedOpCount // number of opcodes; not an opcode
)

var fusedOpNames = [...]string{
	FConst0: "const0", FConst1: "const1", FBuf: "buf", FNot: "not",
	FAnd2: "and2", FOr2: "or2", FNand2: "nand2", FNor2: "nor2",
	FXor2: "xor2", FXnor2: "xnor2", FMux: "mux",
	FAndN: "andN", FOrN: "orN", FNandN: "nandN", FNorN: "norN",
	FAnd3: "and3", FAnd4: "and4", FOr3: "or3", FOr4: "or4",
	FXor3: "xor3", FXor4: "xor4",
	FAO21: "ao21", FAO22: "ao22", FOA21: "oa21", FOA22: "oa22",
	FAOI21: "aoi21", FAOI22: "aoi22", FOAI21: "oai21", FOAI22: "oai22",
	FAndNot: "andnot", FOrNot: "ornot", FXorNot: "xornot",
}

func (op FusedOp) String() string {
	if int(op) < len(fusedOpNames) {
		return fusedOpNames[op]
	}
	return "fusedop(?)"
}

// IsSuper reports whether the opcode is a superinstruction (absorbs at
// least one producer), as opposed to a singleton mirror of a cell kind.
func (op FusedOp) IsSuper() bool { return op >= FAnd3 && op < FusedOpCount }

// FusedProgram is the superinstruction form of a compiled Program: a
// flat instruction stream in the same struct-of-arrays layout, where
// each instruction may write several output nets. Executing it writes
// exactly the same word to every net as executing the source Program.
type FusedProgram struct {
	Ops    []FusedOp
	ArgOff []int32 // len(Ops)+1 offsets into Args
	Args   []int32 // flattened fanin signal ids
	OutOff []int32 // len(Ops)+1 offsets into Outs
	Outs   []int32 // destination signal ids, absorbed producers first

	nGates  int
	nInstrs int                 // source-program instruction count
	mix     [FusedOpCount]int64 // instruction count per opcode
}

// NumGroups returns the fused instruction count (dispatches per settle).
func (fp *FusedProgram) NumGroups() int { return len(fp.Ops) }

// NumInstrs returns the source program's instruction count.
func (fp *FusedProgram) NumInstrs() int { return fp.nInstrs }

// NumGates returns the gate count of the source netlist.
func (fp *FusedProgram) NumGates() int { return fp.nGates }

// Absorbed returns how many instructions fusion folded into
// superinstructions — the dispatches a settle no longer pays.
func (fp *FusedProgram) Absorbed() int { return fp.nInstrs - len(fp.Ops) }

// Mix returns the fused-op mix — instruction count per opcode name,
// omitting zero entries — the observability gauge powerd surfaces.
func (fp *FusedProgram) Mix() map[string]int64 {
	m := make(map[string]int64)
	for op, c := range fp.mix {
		if c != 0 {
			m[FusedOp(op).String()] = c
		}
	}
	return m
}

// singletonOp maps an unfused kind (at the given arity) to its
// one-to-one fused opcode.
func singletonOp(k Kind, arity int) FusedOp {
	switch k {
	case Const0:
		return FConst0
	case Const1:
		return FConst1
	case Buf:
		return FBuf
	case Not:
		return FNot
	case And:
		if arity > 2 {
			return FAndN
		}
		return FAnd2
	case Or:
		if arity > 2 {
			return FOrN
		}
		return FOr2
	case Nand:
		if arity > 2 {
			return FNandN
		}
		return FNand2
	case Nor:
		if arity > 2 {
			return FNorN
		}
		return FNor2
	case Xor:
		return FXor2
	case Xnor:
		return FXnor2
	default: // Mux — Compile rejects everything else
		return FMux
	}
}

// match records one root instruction's fusion decision: the opcode and
// the absorbed producer instructions (-1 when unused). For chain ops
// (And4/Or4/Xor4), p1 is the producer absorbed at the root and p2 the
// producer absorbed inside p1; for the 22-shapes, p1 and p2 are the
// producers of the root's first and second argument respectively.
type match struct {
	op     FusedOp
	p1, p2 int32
}

// Fuse builds the superinstruction form of a compiled program. The
// result is deterministic for a fixed input and executes to identical
// words on every net.
func Fuse(p *Program) *FusedProgram {
	nInstr := p.NumInstrs()
	// useCount over program args; producerOf maps a net to the
	// instruction writing it (-1 for inputs).
	useCount := make([]int32, p.nGates)
	for _, a := range p.Args {
		useCount[a]++
	}
	producerOf := make([]int32, p.nGates)
	for i := range producerOf {
		producerOf[i] = -1
	}
	for i, out := range p.Outs {
		producerOf[out] = int32(i)
	}

	consumed := make([]bool, nInstr)
	matches := make([]match, nInstr)

	args := func(i int32) []int32 { return p.Args[p.ArgOff[i]:p.ArgOff[i+1]] }
	// fusible returns the instruction producing net, when it is an
	// unconsumed single-use gate of the wanted kind and arity.
	fusible := func(net int32, kind Kind, arity int) (int32, bool) {
		pi := producerOf[net]
		if pi < 0 || consumed[pi] || useCount[net] != 1 {
			return -1, false
		}
		if p.Kinds[pi] != kind || int(p.ArgOff[pi+1]-p.ArgOff[pi]) != arity {
			return -1, false
		}
		return pi, true
	}

	// matchRoot applies the fixed precedence to one 2-input root: the
	// 22-shape (two absorbed producers) first, then the longest same-op
	// chain (4 before 3), then the 21-shape, then NOT absorption, then
	// the singleton. Positions probe arg0 before arg1, so matching is
	// deterministic.
	matchRoot := func(a []int32, s rootShapes) match {
		if s.pair22 != FConst0 {
			if p1, ok1 := fusible(a[0], s.pair, 2); ok1 {
				if p2, ok2 := fusible(a[1], s.pair, 2); ok2 {
					return match{op: s.pair22, p1: p1, p2: p2}
				}
			}
		}
		if s.chain3 != FConst0 {
			for _, k := range [2]int{0, 1} {
				p1, ok := fusible(a[k], s.chain, 2)
				if !ok {
					continue
				}
				// Try to extend to the 4-input chain through one of
				// p1's arguments. p1 itself is not yet marked consumed,
				// but it cannot match the probe: probing is by net, and
				// p1's args are distinct nets produced before p1.
				for _, pa := range args(p1) {
					if p2, ok2 := fusible(pa, s.chain, 2); ok2 {
						return match{op: s.chain4, p1: p1, p2: p2}
					}
				}
				return match{op: s.chain3, p1: p1, p2: -1}
			}
		}
		if s.pair21 != FConst0 {
			for _, k := range [2]int{0, 1} {
				if p1, ok := fusible(a[k], s.pair, 2); ok {
					return match{op: s.pair21, p1: p1, p2: -1}
				}
			}
		}
		if s.notOp != FConst0 {
			for _, k := range [2]int{0, 1} {
				if p1, ok := fusible(a[k], Not, 1); ok {
					return match{op: s.notOp, p1: p1, p2: -1}
				}
			}
		}
		return match{op: s.fallback, p1: -1, p2: -1}
	}

	// Matching pass, descending so consumers claim producers before the
	// producers' own turn.
	for i := int32(nInstr) - 1; i >= 0; i-- {
		if consumed[i] {
			continue
		}
		a := args(i)
		m := match{op: singletonOp(p.Kinds[i], len(a)), p1: -1, p2: -1}
		if len(a) == 2 {
			switch p.Kinds[i] {
			case And:
				m = matchRoot(a, rootShapes{
					pair: Or, pair22: FOA22, pair21: FOA21,
					chain: And, chain3: FAnd3, chain4: FAnd4,
					notOp: FAndNot, fallback: FAnd2,
				})
			case Or:
				m = matchRoot(a, rootShapes{
					pair: And, pair22: FAO22, pair21: FAO21,
					chain: Or, chain3: FOr3, chain4: FOr4,
					notOp: FOrNot, fallback: FOr2,
				})
			case Xor:
				m = matchRoot(a, rootShapes{
					chain: Xor, chain3: FXor3, chain4: FXor4,
					notOp: FXorNot, fallback: FXor2,
				})
			case Nor:
				m = matchRoot(a, rootShapes{
					pair: And, pair22: FAOI22, pair21: FAOI21, fallback: FNor2,
				})
			case Nand:
				m = matchRoot(a, rootShapes{
					pair: Or, pair22: FOAI22, pair21: FOAI21, fallback: FNand2,
				})
			}
			if m.p1 >= 0 {
				consumed[m.p1] = true
			}
			if m.p2 >= 0 {
				consumed[m.p2] = true
			}
		}
		matches[i] = m
	}

	// Emission pass, ascending over surviving roots. Sizes first.
	fp := &FusedProgram{nGates: p.nGates, nInstrs: nInstr}
	nOps, nArgs, nOuts := 0, 0, 0
	for i := 0; i < nInstr; i++ {
		if consumed[i] {
			continue
		}
		nOps++
		nArgs += fusedArity(p, matches[i], int32(i))
		nOuts += 1 + b2i(matches[i].p1 >= 0) + b2i(matches[i].p2 >= 0)
	}
	fp.Ops = make([]FusedOp, 0, nOps)
	fp.ArgOff = make([]int32, 1, nOps+1)
	fp.Args = make([]int32, 0, nArgs)
	fp.OutOff = make([]int32, 1, nOps+1)
	fp.Outs = make([]int32, 0, nOuts)
	for i := int32(0); i < int32(nInstr); i++ {
		if consumed[i] {
			continue
		}
		emit(fp, p, matches[i], i)
	}
	return fp
}

// rootShapes parameterizes matchRoot over the root kind's fusion
// vocabulary. Zero-valued fields (pair22 == FConst0 etc.) disable the
// corresponding shape — FConst0 can never be a superinstruction, so the
// sentinel is unambiguous.
type rootShapes struct {
	pair           Kind // producer kind of the 22-/21-shapes
	pair22, pair21 FusedOp
	chain          Kind // producer kind of the same-op chain
	chain3, chain4 FusedOp
	notOp          FusedOp
	fallback       FusedOp
}

// fusedArity returns the argument count of a root's fused instruction.
func fusedArity(p *Program, m match, root int32) int {
	n := int(p.ArgOff[root+1] - p.ArgOff[root])
	if m.p1 >= 0 {
		n += int(p.ArgOff[m.p1+1]-p.ArgOff[m.p1]) - 1
	}
	if m.p2 >= 0 {
		n += int(p.ArgOff[m.p2+1]-p.ArgOff[m.p2]) - 1
	}
	return n
}

// emit appends one root's fused instruction. Argument and output
// conventions (documented on the opcode constants): a chain op lists
// the innermost producer's args first, then each absorber's remaining
// argument; a 22-shape lists producer 1's args then producer 2's; outs
// list absorbed producers in evaluation order, root last.
func emit(fp *FusedProgram, p *Program, m match, root int32) {
	args := func(i int32) []int32 { return p.Args[p.ArgOff[i]:p.ArgOff[i+1]] }
	ra := args(root)
	fp.Ops = append(fp.Ops, m.op)
	fp.mix[m.op]++
	switch {
	case m.p1 < 0: // singleton
		fp.Args = append(fp.Args, ra...)
		fp.Outs = append(fp.Outs, p.Outs[root])
	case m.op == FAO22 || m.op == FOA22 || m.op == FAOI22 || m.op == FOAI22:
		fp.Args = append(fp.Args, args(m.p1)...)
		fp.Args = append(fp.Args, args(m.p2)...)
		fp.Outs = append(fp.Outs, p.Outs[m.p1], p.Outs[m.p2], p.Outs[root])
	case m.op == FAndNot || m.op == FOrNot || m.op == FXorNot:
		other := ra[0]
		if p.Outs[m.p1] == ra[0] {
			other = ra[1]
		}
		fp.Args = append(fp.Args, args(m.p1)[0], other)
		fp.Outs = append(fp.Outs, p.Outs[m.p1], p.Outs[root])
	case m.p2 >= 0: // 4-chain: p2 inside p1 inside root
		p1a, p2a := args(m.p1), args(m.p2)
		mid := p1a[0]
		if p.Outs[m.p2] == p1a[0] {
			mid = p1a[1]
		}
		other := ra[0]
		if p.Outs[m.p1] == ra[0] {
			other = ra[1]
		}
		fp.Args = append(fp.Args, p2a[0], p2a[1], mid, other)
		fp.Outs = append(fp.Outs, p.Outs[m.p2], p.Outs[m.p1], p.Outs[root])
	default: // 3-chain or 21-shape: one absorbed 2-input producer
		other := ra[0]
		if p.Outs[m.p1] == ra[0] {
			other = ra[1]
		}
		fp.Args = append(fp.Args, args(m.p1)[0], args(m.p1)[1], other)
		fp.Outs = append(fp.Outs, p.Outs[m.p1], p.Outs[root])
	}
	fp.ArgOff = append(fp.ArgOff, int32(len(fp.Args)))
	fp.OutOff = append(fp.OutOff, int32(len(fp.Outs)))
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
