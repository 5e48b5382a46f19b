// Code-generated (specialized) settle for the 64-lane packed kernel.
// The fused interpreter pays one switch dispatch per fused group per
// settle; this tier removes the switch entirely by building, once per
// netlist, a block-threaded evaluator: fused groups are re-sorted by
// dependency level, bucketed into (level, opcode) runs, and each run
// becomes one specialized flat loop over contiguous operand slabs — the
// opcode dispatch is resolved at build time, the arities are constant-
// folded into the loop strides (logic.FusedOp.Shape). The evaluator is
// the whole tier: a promoted run executes runShardPacked, the fused
// tier's shard, with this settle in place of execFused, so the gather,
// the extraction and the budget charges are the fused tier's.
//
// Bit-identity: re-sorting groups by level is sound because the fused
// stream is write-once dataflow within a settle and every externally
// read net is a group root (absorbed producers have a single consumer,
// inside their own group), so a group's fanins are always produced at a
// strictly lower level. Each group still computes exactly the words the
// interpreter computes — absorbed intermediates included — so every net
// receives the word execFused gives it. The result is Float64bits-
// identical to the fused and scalar engines, pinned by
// TestCodegenBitIdentity, TestCodegenBudgetBoundary, and
// FuzzCodegenEquivalence.
package sim

import (
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// KernelCodegen in Result.Kernel marks a run executed by the
// specialized (code-generated) evaluator of a promoted netlist.
const KernelCodegen = "codegen"

// codegenProgram is one netlist's specialized evaluator: the settle
// steps, one closure per (level, opcode) run, dispatch resolved at
// build time. Read-only after build; safe for concurrent use by shard
// workers.
type codegenProgram struct {
	steps  []func(words []uint64)
	runs   int // specialized loops (indirect calls per settle)
	levels int // dependency depth of the fused stream
}

// settle evaluates one 64-cycle block: every net's word is written
// exactly as execFused would write it, in level order.
func (cg *codegenProgram) settle(words []uint64) {
	for _, st := range cg.steps {
		st(words)
	}
}

// newCodegenProgram specializes the fused program. Deterministic: a
// fixed program always builds the identical evaluator.
func newCodegenProgram(fp *logic.FusedProgram) *codegenProgram {
	nOps := fp.NumGroups()
	// producer[net] is the fused group writing net, -1 for primary
	// inputs (written by the gather, level 0).
	producer := make([]int32, fp.NumGates())
	for i := range producer {
		producer[i] = -1
	}
	for g := 0; g < nOps; g++ {
		_, _, outs := fp.Instr(g)
		for _, o := range outs {
			producer[o] = int32(g)
		}
	}
	// Group levels in one ascending pass: fused groups are emitted in
	// levelized root order, and every externally read net is a group
	// root, so a group's producers always precede it in the stream.
	glevel := make([]int32, nOps)
	maxLevel := int32(0)
	for g := 0; g < nOps; g++ {
		_, args, _ := fp.Instr(g)
		lv := int32(0)
		for _, a := range args {
			if p := producer[a]; p >= 0 && glevel[p] > lv {
				lv = glevel[p]
			}
		}
		glevel[g] = lv + 1
		if glevel[g] > maxLevel {
			maxLevel = glevel[g]
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	for g := 0; g < nOps; g++ {
		byLevel[glevel[g]] = append(byLevel[glevel[g]], int32(g))
	}

	cg := &codegenProgram{levels: int(maxLevel)}
	// Bucket each level's groups by opcode (ascending opcode, original
	// group order within a bucket — both orders are free: groups at one
	// level never read each other) and emit one specialized run per
	// non-empty bucket, its operands packed into contiguous slabs.
	for lv := int32(1); lv <= maxLevel; lv++ {
		var byOp [logic.FusedOpCount][]int32
		for _, g := range byLevel[lv] {
			op := fp.Ops[g]
			byOp[op] = append(byOp[op], g)
		}
		for op := 0; op < int(logic.FusedOpCount); op++ {
			bucket := byOp[op]
			if len(bucket) == 0 {
				continue
			}
			cg.steps = append(cg.steps, packRun(fp, logic.FusedOp(op), bucket).step())
			cg.runs++
		}
	}
	return cg
}

// cgRun is one (level, opcode) bucket with its operand slabs. Fixed-
// shape opcodes walk args/outs with constant strides; variadic ones
// carry per-instruction offsets.
type cgRun struct {
	op     logic.FusedOp
	args   []int32
	outs   []int32
	argOff []int32 // variadic ops only: len(instrs)+1 offsets into args
}

// packRun copies the bucket's operands into fresh contiguous slabs, so
// the run's loop touches one dense region instead of hopping through
// the CSR program.
func packRun(fp *logic.FusedProgram, op logic.FusedOp, bucket []int32) *cgRun {
	_, _, fixed := op.Shape()
	r := &cgRun{op: op}
	if !fixed {
		r.argOff = append(r.argOff, 0)
	}
	for _, g := range bucket {
		_, a, o := fp.Instr(int(g))
		r.args = append(r.args, a...)
		r.outs = append(r.outs, o...)
		if !fixed {
			r.argOff = append(r.argOff, int32(len(r.args)))
		}
	}
	return r
}

// step builds the run's specialized evaluator loop. This is the build-
// time dispatch: the opcode switch runs once per netlist here, never
// per settle. Each loop body mirrors the corresponding execFused case
// exactly — same word expressions, same output order — so every net
// receives the identical word.
func (r *cgRun) step() func(words []uint64) {
	args, outs := r.args, r.outs
	switch r.op {
	case logic.FConst0:
		return func(words []uint64) {
			for _, o := range outs {
				words[o] = 0
			}
		}
	case logic.FConst1:
		return func(words []uint64) {
			for _, o := range outs {
				words[o] = ^uint64(0)
			}
		}
	case logic.FBuf:
		return func(words []uint64) {
			for i, o := range outs {
				words[o] = words[args[i]]
			}
		}
	case logic.FNot:
		return func(words []uint64) {
			for i, o := range outs {
				words[o] = ^words[args[i]]
			}
		}
	case logic.FAnd2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = words[args[j]] & words[args[j+1]]
				j += 2
			}
		}
	case logic.FOr2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = words[args[j]] | words[args[j+1]]
				j += 2
			}
		}
	case logic.FNand2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = ^(words[args[j]] & words[args[j+1]])
				j += 2
			}
		}
	case logic.FNor2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = ^(words[args[j]] | words[args[j+1]])
				j += 2
			}
		}
	case logic.FXor2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = words[args[j]] ^ words[args[j+1]]
				j += 2
			}
		}
	case logic.FXnor2:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				words[o] = ^(words[args[j]] ^ words[args[j+1]])
				j += 2
			}
		}
	case logic.FMux:
		return func(words []uint64) {
			j := 0
			for _, o := range outs {
				sel := words[args[j]]
				words[o] = (^sel & words[args[j+1]]) | (sel & words[args[j+2]])
				j += 3
			}
		}
	case logic.FAndN:
		argOff := r.argOff
		return func(words []uint64) {
			for i, o := range outs {
				a := args[argOff[i]:argOff[i+1]]
				w := words[a[0]] & words[a[1]]
				for _, f := range a[2:] {
					w &= words[f]
				}
				words[o] = w
			}
		}
	case logic.FOrN:
		argOff := r.argOff
		return func(words []uint64) {
			for i, o := range outs {
				a := args[argOff[i]:argOff[i+1]]
				w := words[a[0]] | words[a[1]]
				for _, f := range a[2:] {
					w |= words[f]
				}
				words[o] = w
			}
		}
	case logic.FNandN:
		argOff := r.argOff
		return func(words []uint64) {
			for i, o := range outs {
				a := args[argOff[i]:argOff[i+1]]
				w := words[a[0]] & words[a[1]]
				for _, f := range a[2:] {
					w &= words[f]
				}
				words[o] = ^w
			}
		}
	case logic.FNorN:
		argOff := r.argOff
		return func(words []uint64) {
			for i, o := range outs {
				a := args[argOff[i]:argOff[i+1]]
				w := words[a[0]] | words[a[1]]
				for _, f := range a[2:] {
					w |= words[f]
				}
				words[o] = ^w
			}
		}
	case logic.FAnd3:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] & words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = t & words[args[j+2]]
				k += 2
			}
		}
	case logic.FAnd4:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] & words[args[j+1]]
				words[outs[k]] = t
				u := t & words[args[j+2]]
				words[outs[k+1]] = u
				words[outs[k+2]] = u & words[args[j+3]]
				k += 3
			}
		}
	case logic.FOr3:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] | words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = t | words[args[j+2]]
				k += 2
			}
		}
	case logic.FOr4:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] | words[args[j+1]]
				words[outs[k]] = t
				u := t | words[args[j+2]]
				words[outs[k+1]] = u
				words[outs[k+2]] = u | words[args[j+3]]
				k += 3
			}
		}
	case logic.FXor3:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] ^ words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = t ^ words[args[j+2]]
				k += 2
			}
		}
	case logic.FXor4:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] ^ words[args[j+1]]
				words[outs[k]] = t
				u := t ^ words[args[j+2]]
				words[outs[k+1]] = u
				words[outs[k+2]] = u ^ words[args[j+3]]
				k += 3
			}
		}
	case logic.FAO21:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] & words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = t | words[args[j+2]]
				k += 2
			}
		}
	case logic.FAO22:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] & words[args[j+1]]
				u := words[args[j+2]] & words[args[j+3]]
				words[outs[k]] = t
				words[outs[k+1]] = u
				words[outs[k+2]] = t | u
				k += 3
			}
		}
	case logic.FOA21:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] | words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = t & words[args[j+2]]
				k += 2
			}
		}
	case logic.FOA22:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] | words[args[j+1]]
				u := words[args[j+2]] | words[args[j+3]]
				words[outs[k]] = t
				words[outs[k+1]] = u
				words[outs[k+2]] = t & u
				k += 3
			}
		}
	case logic.FAOI21:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] & words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = ^(t | words[args[j+2]])
				k += 2
			}
		}
	case logic.FAOI22:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] & words[args[j+1]]
				u := words[args[j+2]] & words[args[j+3]]
				words[outs[k]] = t
				words[outs[k+1]] = u
				words[outs[k+2]] = ^(t | u)
				k += 3
			}
		}
	case logic.FOAI21:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 3 {
				t := words[args[j]] | words[args[j+1]]
				words[outs[k]] = t
				words[outs[k+1]] = ^(t & words[args[j+2]])
				k += 2
			}
		}
	case logic.FOAI22:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 4 {
				t := words[args[j]] | words[args[j+1]]
				u := words[args[j+2]] | words[args[j+3]]
				words[outs[k]] = t
				words[outs[k+1]] = u
				words[outs[k+2]] = ^(t & u)
				k += 3
			}
		}
	case logic.FAndNot:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 2 {
				t := ^words[args[j]]
				words[outs[k]] = t
				words[outs[k+1]] = t & words[args[j+1]]
				k += 2
			}
		}
	case logic.FOrNot:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 2 {
				t := ^words[args[j]]
				words[outs[k]] = t
				words[outs[k+1]] = t | words[args[j+1]]
				k += 2
			}
		}
	case logic.FXorNot:
		return func(words []uint64) {
			k := 0
			for j := 0; j < len(args); j += 2 {
				t := ^words[args[j]]
				words[outs[k]] = t
				words[outs[k+1]] = t ^ words[args[j+1]]
				k += 2
			}
		}
	default:
		hlerr.Throwf("sim.Codegen", "unknown fused op %v", r.op)
		return nil
	}
}
