// Package recipe turns the library's power transformations —
// internal/lopt guards/retiming/precomputation, internal/fsm state
// encodings and gated clocks, internal/bus codings, internal/cover
// re-minimization — into a uniform vocabulary of named passes over a
// design, the substrate the job engine's recipe search explores
// (§III-I/§III-J of the paper; the explore/exploit framing of logic
// optimization as search over rewrite sequences).
//
// A Design is a tagged union over the three design classes the service
// layer already exposes: an RT-library combinational circuit, a random
// Mealy controller, and an address bus. Each registered pass maps a
// Design (plus a seeded RNG for its free choices) to a transformed
// Design, and Apply verifies functional equivalence against the
// baseline after every application — a pass that changes behaviour is
// a typed verification error, never a silently wrong candidate.
package recipe

import (
	"fmt"
	"math/rand"

	"hlpower/internal/budget"
	"hlpower/internal/bus"
	"hlpower/internal/fsm"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
)

// Design kinds.
const (
	KindCircuit = "circuit"
	KindFSM     = "fsm"
	KindBus     = "bus"
)

// Limits on the design specs a job may name. They are deliberately
// tighter than the service-wide simulation limits: every search step
// re-simulates the design, so specs are sized for thousands of
// evaluations, not one.
const (
	MaxSpecWidth   = 16
	MaxSpecStates  = 12
	MaxSpecInputs  = 4
	MaxSpecOutputs = 8
)

// Spec names a baseline design by content: the raw fields fully
// determine the built Design and workload for a given seed, which
// makes (Spec, seed) a canonical content encoding for job identity and
// prefix-cache keys.
type Spec struct {
	Kind    string `json:"kind"`
	Circuit string `json:"circuit,omitempty"` // circuit: RT-library name
	Width   int    `json:"width,omitempty"`   // circuit operand / bus line width
	States  int    `json:"states,omitempty"`  // fsm
	Inputs  int    `json:"inputs,omitempty"`  // fsm input bits
	Outputs int    `json:"outputs,omitempty"` // fsm output bits
}

// Validate checks the spec against the search-time limits.
func (s Spec) Validate() error {
	switch s.Kind {
	case KindCircuit:
		if s.Width < 2 || s.Width > MaxSpecWidth {
			return hlerr.Errorf("recipe.spec", "width %d out of range [2,%d]", s.Width, MaxSpecWidth)
		}
		if _, ok := rtlib.Constructor(s.Circuit); !ok {
			return hlerr.Errorf("recipe.spec", "unknown circuit %q", s.Circuit)
		}
	case KindFSM:
		if s.States < 2 || s.States > MaxSpecStates {
			return hlerr.Errorf("recipe.spec", "states %d out of range [2,%d]", s.States, MaxSpecStates)
		}
		if s.Inputs < 1 || s.Inputs > MaxSpecInputs {
			return hlerr.Errorf("recipe.spec", "inputs %d out of range [1,%d]", s.Inputs, MaxSpecInputs)
		}
		if s.Outputs < 1 || s.Outputs > MaxSpecOutputs {
			return hlerr.Errorf("recipe.spec", "outputs %d out of range [1,%d]", s.Outputs, MaxSpecOutputs)
		}
	case KindBus:
		if s.Width < 2 || s.Width > MaxSpecWidth {
			return hlerr.Errorf("recipe.spec", "bus width %d out of range [2,%d]", s.Width, MaxSpecWidth)
		}
	default:
		return hlerr.Errorf("recipe.spec", "unknown design kind %q", s.Kind)
	}
	return nil
}

// EncodeTo appends the spec's canonical encoding, the content basis of
// job identity and checkpoint snapshots.
func (s Spec) EncodeTo(e *memo.Enc) {
	e.String(s.Kind)
	e.String(s.Circuit)
	e.Int(s.Width)
	e.Int(s.States)
	e.Int(s.Inputs)
	e.Int(s.Outputs)
}

// DecodeFrom reads the canonical encoding back. Errors stick to the
// decoder.
func (s *Spec) DecodeFrom(d *memo.Dec) {
	s.Kind = d.String()
	s.Circuit = d.String()
	s.Width = int(d.Int64())
	s.States = int(d.Int64())
	s.Inputs = int(d.Int64())
	s.Outputs = int(d.Int64())
}

// Design is one point in the search space: a concrete, simulatable
// artifact plus the bookkeeping equivalence checking needs. Designs
// are immutable by convention — passes build new ones — so they are
// safe to share through the prefix memo-cache.
type Design struct {
	Kind string

	// Circuit and FSM kinds carry a gate-level netlist. For FSM designs
	// it is the synthesized controller for the current encoding; the
	// abstract machine F stays the behavioural reference.
	Net     *logic.Netlist
	Latency int // output delay in cycles added relative to the baseline

	// art is Net compiled under Score's options when Build or Apply
	// made the design; Verify and Score both run it. A copy whose Net a
	// caller replaced no longer matches it and compiles on use.
	art *sim.Compiled

	F     *fsm.FSM
	Enc   *fsm.Encoding
	Gated bool

	// probs are F's state-transition probabilities under uniform inputs
	// and probsErr the error computing them reported. They depend on F
	// alone, so Build computes them once per job and passes carry them
	// through their copies.
	probs    [][]float64
	probsErr error

	// Bus designs are a coder choice over Width address lines.
	Width int
	Coder string
}

// SizeBytes estimates the design's resident size for cache accounting.
func (d *Design) SizeBytes() int64 {
	var sz int64 = 256
	if d.Net != nil { // Build and Apply compile every netlist they make
		sz += netBytes(d.Net) + artBytes*int64(len(d.Net.Gates))
	}
	if d.F != nil {
		sz += int64(d.F.NumStates*d.F.NumSymbols()) * 16
	}
	if d.Enc != nil {
		sz += int64(len(d.Enc.Codes)) * 8
	}
	return sz
}

// netBytes estimates a netlist's resident size for cache accounting.
func netBytes(n *logic.Netlist) int64 { return int64(len(n.Gates)) * 64 }

// artBytes is a compiled netlist's resident size per gate, a pooled
// scratch included: the benchmark's designs measured 100–195 bytes.
const artBytes = 160

// Workload is the fixed stimulus a job scores and verifies candidates
// against. It is derived deterministically from (Spec, seed) at build
// time and shared read-only across every candidate evaluation.
type Workload struct {
	Kind       string
	EvalVecs   [][]bool // per-cycle primary-input vectors for scoring
	VerifyVecs [][]bool // independent vectors for equivalence checks
	// The reference every design is verified against: the baseline
	// circuit's (fsm: the machine's) output word per VerifyVecs cycle.
	VerifyOut     []uint64
	VerifyOutputs int      // outputs per VerifyOut word
	Stream        []uint64 // bus: address trace (scored and verified)
}

// splitmix is the canonical seeded word stream used for all workload
// derivation: O(1) seeding and deterministic across architectures.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bitVecs draws cycles×width uniform bit vectors from the seed.
func bitVecs(seed uint64, cycles, width int) [][]bool {
	x := seed
	vecs := make([][]bool, cycles)
	for c := range vecs {
		w := splitmix(&x)
		v := make([]bool, width)
		for i := range v {
			v[i] = w>>uint(i%64)&1 == 1
		}
		vecs[c] = v
	}
	return vecs
}

// symStream draws a symbol trace with repeat bias: each cycle keeps
// the previous symbol with probability 1/2, so controllers dwell in
// states long enough for clock gating to matter (the idle-heavy
// workloads of §III-I).
func symStream(seed uint64, cycles, nsym int) []int {
	x := seed
	syms := make([]int, cycles)
	cur := int(splitmix(&x) % uint64(nsym))
	for c := range syms {
		w := splitmix(&x)
		if w&1 == 0 {
			cur = int(w >> 1 % uint64(nsym))
		}
		syms[c] = cur
	}
	return syms
}

// symVecs expands a symbol trace into primary-input vectors.
func symVecs(syms []int, width int) [][]bool {
	vecs := make([][]bool, len(syms))
	for c, s := range syms {
		v := make([]bool, width)
		for i := range v {
			v[i] = s>>uint(i)&1 == 1
		}
		vecs[c] = v
	}
	return vecs
}

// Build materializes the baseline design and its workload from a spec
// and seed. Deterministic: equal (spec, seed, evalCycles,
// verifyCycles) yield identical designs and stimuli, the property the
// checkpoint/resume bit-identity guarantee rests on.
func Build(spec Spec, seed int64, evalCycles, verifyCycles int) (*Design, *Workload, error) {
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	if evalCycles < 2 || verifyCycles < 2 {
		return nil, nil, hlerr.Errorf("recipe.build", "cycles %d/%d too small", evalCycles, verifyCycles)
	}
	evalSeed := uint64(seed)
	verifySeed := uint64(seed) ^ 0xd1b54a32d192ed03
	switch spec.Kind {
	case KindCircuit:
		build, _ := rtlib.Constructor(spec.Circuit) // Validate checked the name
		mod := build(spec.Width)
		nIn := len(mod.Net.Inputs)
		d := &Design{Kind: KindCircuit, Net: mod.Net}
		w := &Workload{
			Kind:          KindCircuit,
			EvalVecs:      bitVecs(evalSeed, evalCycles, nIn),
			VerifyVecs:    bitVecs(verifySeed, verifyCycles, nIn),
			VerifyOutputs: len(mod.Net.Outputs),
		}
		art, err := d.artifact()
		if err != nil {
			return nil, nil, err
		}
		d.art = art
		if w.VerifyOut, err = art.Outputs(nil, sim.VectorInputs(w.VerifyVecs), verifyCycles); err != nil {
			return nil, nil, err
		}
		return d, w, nil
	case KindFSM:
		f := fsm.Random(spec.States, spec.Inputs, spec.Outputs, 0.5, rand.New(rand.NewSource(seed)))
		enc := fsm.BinaryEncoding(spec.States)
		net, err := fsm.Synthesize(f, enc)
		if err != nil {
			return nil, nil, err
		}
		nsym := f.NumSymbols()
		verifySyms := symStream(verifySeed, verifyCycles, nsym)
		// Passes never replace the machine, so its outputs are every
		// controller's reference.
		_, verifyOut := f.Simulate(verifySyms)
		w := &Workload{
			Kind:          KindFSM,
			EvalVecs:      symVecs(symStream(evalSeed, evalCycles, nsym), spec.Inputs),
			VerifyVecs:    symVecs(verifySyms, spec.Inputs),
			VerifyOut:     verifyOut,
			VerifyOutputs: f.NumOutputs,
		}
		probs, probsErr := f.TransitionProbabilities(nil)
		d := &Design{Kind: KindFSM, Net: net, F: f, Enc: enc, probs: probs, probsErr: probsErr}
		if d.art, err = d.artifact(); err != nil {
			return nil, nil, err
		}
		return d, w, nil
	case KindBus:
		// Address traces interleave a few strided working zones — the
		// access pattern the coder family was designed for.
		x := evalSeed
		stream := make([]uint64, evalCycles)
		bases := [3]uint64{splitmix(&x), splitmix(&x), splitmix(&x)}
		ctrs := [3]uint64{}
		mask := uint64(1)<<uint(spec.Width) - 1
		for c := range stream {
			w := splitmix(&x)
			z := int(w % 3)
			if w>>2&7 == 0 { // occasional random jump
				stream[c] = splitmix(&x) & mask
				continue
			}
			ctrs[z]++
			stream[c] = (bases[z] + ctrs[z]) & mask
		}
		d := &Design{Kind: KindBus, Width: spec.Width, Coder: "binary"}
		return d, &Workload{Kind: KindBus, Stream: stream}, nil
	default:
		return nil, nil, hlerr.Errorf("recipe.build", "unknown design kind %q", spec.Kind)
	}
}

// Score evaluates a design's power figure of merit under the
// workload, lower is better. Deterministic for a fixed (design,
// workload) pair; the budget governs the underlying simulation and a
// trip surfaces as a typed budget error (degrading the candidate).
func Score(b *budget.Budget, d *Design, w *Workload) (float64, error) {
	switch d.Kind {
	case KindCircuit, KindFSM:
		c, err := d.artifact()
		if err != nil {
			return 0, err
		}
		res, err := c.Run(b, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), sim.RunOptions{Workers: 1, Lean: true})
		if err != nil {
			return 0, err
		}
		return res.SwitchedCap, nil
	case KindBus:
		enc, _, err := bus.NewCoder(d.Coder, d.Width)
		if err != nil {
			return 0, err
		}
		tr, err := bus.TransitionsBudget(b, enc, w.Stream)
		if err != nil {
			return 0, err
		}
		// Extra bus lines carry a per-cycle capacitance cost, so a coder
		// only wins when its transition savings beat its redundancy.
		extra := enc.BusWidth() - d.Width
		return float64(tr) + 0.05*float64(extra)*float64(len(w.Stream)), nil
	default:
		return 0, fmt.Errorf("recipe: score of unknown kind %q", d.Kind)
	}
}

// artifact returns the design's compiled netlist: the one Build or
// Apply kept, or a fresh one when Net is not the netlist it was
// compiled from. Score runs it lean and single-shard, which charges b
// exactly as sim.RunBudget charges it, with Float64bits-identical
// totals. Circuits run event-driven so glitch filtering (retiming,
// guards) is visible, which on unit-delay feed-forward netlists is the
// 64-lane unit-delay path; controllers run zero-delay, which for at
// most 6 state and input bits is the (state, input) table path. Clock
// tracking makes added registers pay their way.
func (d *Design) artifact() (*sim.Compiled, error) {
	if d.art != nil && d.art.Netlist() == d.Net {
		return d.art, nil
	}
	opts := sim.Options{TrackClock: true, GateClock: true}
	if d.Kind == KindCircuit {
		opts.Model = sim.EventDriven
	}
	return sim.Compile(d.Net, opts)
}

// EncodeScoreKey writes exactly the design fields Score reads: the
// netlist of a circuit or controller, the width and coder of a bus.
// Designs that encode equally score identically under one workload, so
// a caller may memoize Score on this encoding plus the workload's
// identity. It changes whenever Score starts reading another field.
func (d *Design) EncodeScoreKey(e *memo.Enc) {
	e.String(d.Kind)
	switch d.Kind {
	case KindCircuit, KindFSM:
		memo.HashNetlist(e, d.Net)
	case KindBus:
		e.Int(d.Width)
		e.String(d.Coder)
	}
}
