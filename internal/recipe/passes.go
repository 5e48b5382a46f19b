package recipe

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"hlpower/internal/budget"
	"hlpower/internal/bus"
	"hlpower/internal/cover"
	"hlpower/internal/fsm"
	"hlpower/internal/logic"
	"hlpower/internal/lopt"
	"hlpower/internal/memo"
)

// ErrNotApplicable marks a pass that cannot transform the given design
// (wrong structure, already applied, design too large). The search
// treats it as a degraded candidate, not a job failure.
var ErrNotApplicable = errors.New("recipe: pass not applicable to this design")

// ApplyFunc transforms a design. The budget governs the heavy lifting
// (cover minimization, truth-table extraction); c, when non-nil, is the
// memo cache the pass may keep artifacts in; rng feeds the pass's free
// choices (cut depth, predictor size, seeded encodings) so a recipe's
// outcome is a pure function of (design, pass name, seed).
type ApplyFunc func(b *budget.Budget, c *memo.Cache, d *Design, rng *rand.Rand) (*Design, error)

// Pass is one named rewrite in the vocabulary.
type Pass struct {
	Name  string
	Kind  string // design kind the pass applies to
	Apply ApplyFunc
}

var (
	regMu    sync.RWMutex
	registry = map[string]Pass{}
)

// Register adds a pass to the vocabulary. Registering a duplicate name
// or an incomplete pass panics: the vocabulary is program structure,
// not runtime data.
func Register(p Pass) {
	if p.Name == "" || p.Apply == nil {
		panic("recipe: Register needs a name and an apply func")
	}
	switch p.Kind {
	case KindCircuit, KindFSM, KindBus:
	default:
		panic(fmt.Sprintf("recipe: Register %q: unknown kind %q", p.Name, p.Kind))
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[p.Name]; dup {
		panic(fmt.Sprintf("recipe: duplicate pass %q", p.Name))
	}
	registry[p.Name] = p
}

// Lookup resolves a pass by name.
func Lookup(name string) (Pass, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	p, ok := registry[name]
	return p, ok
}

// Vocabulary lists the registered pass names for a design kind in
// sorted order — the deterministic index space candidate generation
// draws from.
func Vocabulary(kind string) []string {
	regMu.RLock()
	defer regMu.RUnlock()
	var names []string
	for n, p := range registry {
		if p.Kind == kind {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// maxResynthInputs bounds exhaustive truth-table extraction: 2^10 rows
// times the gate count is the largest table worth re-minimizing inside
// a per-candidate budget.
const maxResynthInputs = 10

func init() {
	// --- circuit passes (§III-I, §III-J) ---
	Register(Pass{Name: "guard", Kind: KindCircuit, Apply: passGuard})
	Register(Pass{Name: "retime", Kind: KindCircuit, Apply: passRetime})
	Register(Pass{Name: "resynth", Kind: KindCircuit, Apply: passResynth})
	Register(Pass{Name: "precompute", Kind: KindCircuit, Apply: passPrecompute})

	// --- controller passes (§III-H, §III-I) ---
	for _, enc := range []string{"binary", "gray", "one-hot", "random", "low-power"} {
		enc := enc
		Register(Pass{Name: "enc-" + enc, Kind: KindFSM,
			Apply: func(b *budget.Budget, c *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
				return passEncode(b, c, d, enc, rng)
			}})
	}
	Register(Pass{Name: "clock-gate", Kind: KindFSM, Apply: passClockGate})

	// --- bus coding passes (§III-G) ---
	for _, c := range bus.CoderNames() {
		c := c
		Register(Pass{Name: "bus-" + c, Kind: KindBus,
			Apply: func(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
				return passBusCoder(d, c)
			}})
	}
}

// passGuard inserts transparent-latch guards on exclusive mux cones.
// A design with no early-select mux has nothing to guard, which the
// predicate tells without cloning the netlist.
func passGuard(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
	if err := b.Step(int64(len(d.Net.Gates))); err != nil {
		return nil, err
	}
	if !lopt.HasEarlySelectMux(d.Net) {
		return nil, ErrNotApplicable
	}
	net, guarded := lopt.GuardEvaluation(d.Net)
	if guarded == 0 {
		return nil, ErrNotApplicable
	}
	out := *d
	out.Net = net
	return &out, nil
}

// passRetime pipelines the netlist at an rng-chosen cut depth,
// trading one cycle of latency for glitch filtering.
func passRetime(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
	if !lopt.IsCombinational(d.Net) {
		return nil, ErrNotApplicable
	}
	depth := d.Net.Depth()
	if depth <= 1 {
		return nil, ErrNotApplicable
	}
	if err := b.Step(int64(len(d.Net.Gates))); err != nil {
		return nil, err
	}
	cut := 1 + rng.Intn(depth-1)
	net, err := lopt.PipelineCut(d.Net, cut)
	if err != nil {
		return nil, err
	}
	out := *d
	out.Net = net
	out.Latency = d.Latency + 1
	return &out, nil
}

// passResynth extracts every output's truth table and rebuilds the
// netlist from freshly minimized covers.
func passResynth(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
	if !lopt.IsCombinational(d.Net) || len(d.Net.Inputs) > maxResynthInputs {
		return nil, ErrNotApplicable
	}
	tts, err := lopt.TruthTables(b, d.Net, maxResynthInputs)
	if err != nil {
		return nil, err
	}
	nIn := len(d.Net.Inputs)
	net := logic.New()
	net.InputCap = d.Net.InputCap
	net.WireCapPerFanout = d.Net.WireCapPerFanout
	net.OutputLoad = d.Net.OutputLoad
	net.ClockCap = d.Net.ClockCap
	in := net.AddInputBus("x", nIn)
	for _, tt := range tts {
		cv, _, err := cover.MinimizeTTBudget(b, tt, nIn)
		if err != nil {
			return nil, err
		}
		net.MarkOutput(logic.FromCover(net, cv, in, "resynth"))
	}
	if err := net.Err(); err != nil {
		return nil, err
	}
	out := *d
	out.Net = net
	return &out, nil
}

// passPrecompute applies the Fig. 6 precomputation architecture to a
// single-output function with an rng-chosen predictor subset size.
func passPrecompute(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
	nIn := len(d.Net.Inputs)
	if !lopt.IsCombinational(d.Net) || len(d.Net.Outputs) != 1 || nIn < 2 || nIn > 8 {
		return nil, ErrNotApplicable
	}
	tts, err := lopt.TruthTables(b, d.Net, 8)
	if err != nil {
		return nil, err
	}
	// The BDD subset sweep enumerates C(n,k) quantifications.
	if err := b.Step(int64(1) << uint(2*nIn)); err != nil {
		return nil, err
	}
	k := 1 + rng.Intn(nIn-1)
	res, err := lopt.Precompute(tts[0], nIn, k)
	if err != nil {
		return nil, err
	}
	out := *d
	out.Net = res.Precomputed
	out.Latency = d.Latency + 1 // both Fig. 6 forms register their inputs
	return &out, nil
}

// passEncode re-encodes the controller's states and re-synthesizes it.
func passEncode(b *budget.Budget, c *memo.Cache, d *Design, name string, rng *rand.Rand) (*Design, error) {
	enc, err := fsm.EncodingByName(d.F, name, d.probs, d.probsErr, rng)
	if err != nil {
		return nil, err
	}
	if sameEncoding(enc, d.Enc) {
		return nil, ErrNotApplicable
	}
	net, err := synthController(b, c, d.F, enc, d.Gated)
	if err != nil {
		return nil, err
	}
	out := *d
	out.Enc = enc
	out.Net = net
	return &out, nil
}

// passClockGate re-synthesizes the controller with a gated clock.
func passClockGate(b *budget.Budget, c *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
	if d.Gated {
		return nil, ErrNotApplicable
	}
	net, err := synthController(b, c, d.F, d.Enc, true)
	if err != nil {
		return nil, err
	}
	out := *d
	out.Net = net
	out.Gated = true
	return &out, nil
}

// synthController synthesizes the machine under an encoding and a
// gating mode (re-encoding a gated controller keeps its gate) through
// c, under the controller's content (controllerKey): each distinct
// controller is synthesized once per cache, with memo.Charged's replay
// rule, and every design built on it shares its netlist. The entry
// counts the netlist's full size, since it can outlive those designs.
func synthController(b *budget.Budget, c *memo.Cache, f *fsm.FSM, enc *fsm.Encoding, gated bool) (*logic.Netlist, error) {
	net, _, err := memo.Charged(c, b, func() memo.Key { return controllerKey(f, enc, gated) },
		func() (*logic.Netlist, int64, error) {
			net, err := synthesize(b, f, enc, gated)
			if err != nil {
				return nil, 0, err
			}
			return net, netBytes(net), nil
		})
	return net, err
}

// synthesize builds a controller netlist on b. A two-level synthesis
// whose budget trips degrades to larger covers and leaves the budget's
// sticky error behind; it fails with that error instead, which is what
// verifying the degraded controller would report, and so is never
// stored.
func synthesize(b *budget.Budget, f *fsm.FSM, enc *fsm.Encoding, gated bool) (*logic.Netlist, error) {
	if gated {
		if err := b.Step(int64(f.NumStates * f.NumSymbols())); err != nil {
			return nil, err
		}
		return lopt.GatedController(f, enc)
	}
	net, degraded, err := fsm.SynthesizeBudget(b, f, enc)
	if err == nil && degraded {
		return nil, b.Err()
	}
	return net, err
}

// controllerKey is the memo-cache key of a synthesized controller: the
// machine's tables, the encoding and the gating mode, everything
// synthesis reads. It names no recipe and no step limit, so every
// recipe that reaches one controller on one cache shares it.
func controllerKey(f *fsm.FSM, enc *fsm.Encoding, gated bool) memo.Key {
	return memo.KeyOf(func(e *memo.Enc) {
		e.String("recipe/controller/v1")
		e.Int(f.NumInputs)
		e.Int(f.NumOutputs)
		e.Int(f.NumStates)
		for s := range f.Next {
			for _, next := range f.Next[s] {
				e.Int(next)
			}
			e.Uint64s(f.Out[s])
		}
		e.Int(enc.Width)
		e.Uint64s(enc.Codes)
		e.Bool(gated)
	})
}

func sameEncoding(a, b *fsm.Encoding) bool {
	if a.Width != b.Width || len(a.Codes) != len(b.Codes) {
		return false
	}
	for i := range a.Codes {
		if a.Codes[i] != b.Codes[i] {
			return false
		}
	}
	return true
}

// passBusCoder switches the bus to a named coder.
func passBusCoder(d *Design, coder string) (*Design, error) {
	if d.Coder == coder {
		return nil, ErrNotApplicable
	}
	if _, _, err := bus.NewCoder(coder, d.Width); err != nil {
		return nil, err
	}
	out := *d
	out.Coder = coder
	return &out, nil
}
