// Fused-superinstruction execution for the 64-lane packed kernel, the
// zero-delay settle every packed path runs — compiled artifacts, the
// one-shot RunPacked, Outputs and OutputWords — unless a promoted
// artifact's codegen evaluator stands in for it. execFused runs the
// logic.Fuse form of the levelized program, paying one dispatch per
// fused group (an AND4 chain, an AO22 carry cell, a NOT-absorbed pair)
// while still writing every intermediate net's word — per-net toggle
// counts and capacitive loads are observable results, so fusion
// removes dispatches, never nets. Because AND/OR/XOR words are
// bitwise-exact under regrouping, every net receives exactly the word
// its gate computes, which keeps fused runs Float64bits-identical to
// the serial engine (pinned by TestFusedBitIdentity and
// FuzzFusedEquivalence).
package sim

import (
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// KernelFused in Result.Kernel marks a run executed by the fused-
// superinstruction interpreter: every zero-delay 64-lane run that is
// not on the codegen tier (specialized evaluator of a promoted
// artifact).
const KernelFused = "fused"

// compileFused levelizes a combinational netlist along the
// environment's topological order and fuses the program.
func compileFused(e *env) (*logic.FusedProgram, error) {
	prog, err := logic.Compile(e.n, e.order)
	if err != nil {
		return nil, err
	}
	return logic.Fuse(prog), nil
}

// execFused runs the fused instruction stream over the packed value
// words, writing to every net the word its source gate computes. Lanes
// beyond the valid count compute garbage that every consumer masks off.
func execFused(fp *logic.FusedProgram, words []uint64) {
	ops, argOff, args, outOff, outs := fp.Ops, fp.ArgOff, fp.Args, fp.OutOff, fp.Outs
	// Hot-loop shape: fixed-arity opcodes index the CSR arrays directly
	// off the instruction's base offsets instead of materializing two
	// sub-slice headers per dispatch — at one instruction per fused
	// group the header construction and its bounds checks were a
	// measurable share of the interpreter.
	for i := range ops {
		ai, oi := int(argOff[i]), int(outOff[i])
		switch ops[i] {
		case logic.FConst0:
			words[outs[oi]] = 0
		case logic.FConst1:
			words[outs[oi]] = ^uint64(0)
		case logic.FBuf:
			words[outs[oi]] = words[args[ai]]
		case logic.FNot:
			words[outs[oi]] = ^words[args[ai]]
		case logic.FAnd2:
			words[outs[oi]] = words[args[ai]] & words[args[ai+1]]
		case logic.FOr2:
			words[outs[oi]] = words[args[ai]] | words[args[ai+1]]
		case logic.FNand2:
			words[outs[oi]] = ^(words[args[ai]] & words[args[ai+1]])
		case logic.FNor2:
			words[outs[oi]] = ^(words[args[ai]] | words[args[ai+1]])
		case logic.FXor2:
			words[outs[oi]] = words[args[ai]] ^ words[args[ai+1]]
		case logic.FXnor2:
			words[outs[oi]] = ^(words[args[ai]] ^ words[args[ai+1]])
		case logic.FMux:
			sel := words[args[ai]]
			words[outs[oi]] = (^sel & words[args[ai+1]]) | (sel & words[args[ai+2]])
		case logic.FAndN:
			a := args[ai:argOff[i+1]]
			w := words[args[ai]] & words[args[ai+1]]
			for _, f := range a[2:] {
				w &= words[f]
			}
			words[outs[oi]] = w
		case logic.FOrN:
			a := args[ai:argOff[i+1]]
			w := words[args[ai]] | words[args[ai+1]]
			for _, f := range a[2:] {
				w |= words[f]
			}
			words[outs[oi]] = w
		case logic.FNandN:
			a := args[ai:argOff[i+1]]
			w := words[args[ai]] & words[args[ai+1]]
			for _, f := range a[2:] {
				w &= words[f]
			}
			words[outs[oi]] = ^w
		case logic.FNorN:
			a := args[ai:argOff[i+1]]
			w := words[args[ai]] | words[args[ai+1]]
			for _, f := range a[2:] {
				w |= words[f]
			}
			words[outs[oi]] = ^w
		case logic.FAnd3:
			t := words[args[ai]] & words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t & words[args[ai+2]]
		case logic.FAnd4:
			t := words[args[ai]] & words[args[ai+1]]
			words[outs[oi]] = t
			u := t & words[args[ai+2]]
			words[outs[oi+1]] = u
			words[outs[oi+2]] = u & words[args[ai+3]]
		case logic.FOr3:
			t := words[args[ai]] | words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t | words[args[ai+2]]
		case logic.FOr4:
			t := words[args[ai]] | words[args[ai+1]]
			words[outs[oi]] = t
			u := t | words[args[ai+2]]
			words[outs[oi+1]] = u
			words[outs[oi+2]] = u | words[args[ai+3]]
		case logic.FXor3:
			t := words[args[ai]] ^ words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t ^ words[args[ai+2]]
		case logic.FXor4:
			t := words[args[ai]] ^ words[args[ai+1]]
			words[outs[oi]] = t
			u := t ^ words[args[ai+2]]
			words[outs[oi+1]] = u
			words[outs[oi+2]] = u ^ words[args[ai+3]]
		case logic.FAO21:
			t := words[args[ai]] & words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t | words[args[ai+2]]
		case logic.FAO22:
			t := words[args[ai]] & words[args[ai+1]]
			u := words[args[ai+2]] & words[args[ai+3]]
			words[outs[oi]] = t
			words[outs[oi+1]] = u
			words[outs[oi+2]] = t | u
		case logic.FOA21:
			t := words[args[ai]] | words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t & words[args[ai+2]]
		case logic.FOA22:
			t := words[args[ai]] | words[args[ai+1]]
			u := words[args[ai+2]] | words[args[ai+3]]
			words[outs[oi]] = t
			words[outs[oi+1]] = u
			words[outs[oi+2]] = t & u
		case logic.FAOI21:
			t := words[args[ai]] & words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = ^(t | words[args[ai+2]])
		case logic.FAOI22:
			t := words[args[ai]] & words[args[ai+1]]
			u := words[args[ai+2]] & words[args[ai+3]]
			words[outs[oi]] = t
			words[outs[oi+1]] = u
			words[outs[oi+2]] = ^(t | u)
		case logic.FOAI21:
			t := words[args[ai]] | words[args[ai+1]]
			words[outs[oi]] = t
			words[outs[oi+1]] = ^(t & words[args[ai+2]])
		case logic.FOAI22:
			t := words[args[ai]] | words[args[ai+1]]
			u := words[args[ai+2]] | words[args[ai+3]]
			words[outs[oi]] = t
			words[outs[oi+1]] = u
			words[outs[oi+2]] = ^(t & u)
		case logic.FAndNot:
			t := ^words[args[ai]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t & words[args[ai+1]]
		case logic.FOrNot:
			t := ^words[args[ai]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t | words[args[ai+1]]
		case logic.FXorNot:
			t := ^words[args[ai]]
			words[outs[oi]] = t
			words[outs[oi+1]] = t ^ words[args[ai+1]]
		default:
			hlerr.Throwf("sim.execFused", "unknown fused op %v", ops[i])
		}
	}
}
