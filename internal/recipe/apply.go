package recipe

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sync"

	"hlpower/internal/budget"
	"hlpower/internal/bus"
	"hlpower/internal/hlerr"
	"hlpower/internal/memo"
	"hlpower/internal/sim"
)

// PassError wraps whatever went wrong while applying or verifying one
// pass of a recipe, tagged with the pass name. It is the unit the job
// engine degrades on: a PassError fails the candidate, never the job.
type PassError struct {
	Pass string
	Err  error
}

func (e *PassError) Error() string { return fmt.Sprintf("recipe: pass %q: %v", e.Pass, e.Err) }
func (e *PassError) Unwrap() error { return e.Err }

// VerifyError reports a functional-equivalence violation introduced by
// a pass — the one error class that must never be degraded into a
// best-so-far result.
type VerifyError struct {
	Cycle  int
	Detail string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("recipe: equivalence violated at cycle %d: %s", e.Cycle, e.Detail)
}

// Apply runs one named pass over the design with a seeded RNG and
// verifies the result is functionally equivalent to its input under
// the workload's verification stimulus. c is the memo cache the pass
// may keep artifacts in (nil means none): the controller passes
// synthesize each distinct controller once per cache, and the designs
// built on it share its netlist. A panicking pass is contained via
// hlerr.FromPanic and surfaces as a *PassError like any other failure.
func Apply(b *budget.Budget, c *memo.Cache, d *Design, w *Workload, name string, seed uint64) (*Design, error) {
	p, ok := Lookup(name)
	if !ok {
		return nil, &PassError{Pass: name, Err: hlerr.Errorf("recipe.apply", "unknown pass %q", name)}
	}
	if p.Kind != d.Kind {
		return nil, &PassError{Pass: name, Err: ErrNotApplicable}
	}
	out, err := applySafe(p, b, c, d, seed)
	if err != nil {
		return nil, &PassError{Pass: name, Err: err}
	}
	if err := Verify(b, d, out, w); err != nil {
		return nil, &PassError{Pass: name, Err: err}
	}
	return out, nil
}

// applySafe contains pass panics: a poisoned pass degrades the
// candidate with a typed error instead of unwinding the search loop.
func applySafe(p Pass, b *budget.Budget, c *memo.Cache, d *Design, seed uint64) (out *Design, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, hlerr.FromPanic(r)
		}
	}()
	src := &lazySource{seed: int64(seed)}
	defer src.release()
	return p.Apply(b, c, d, rand.New(src))
}

// sources recycles the generators lazySource seeds. Seed resets a
// generator's whole state, so a recycled one yields exactly the stream
// a fresh rand.NewSource would.
var sources sync.Pool

// lazySource is a rand.Source64 that seeds math/rand's generator on
// the first draw. Seeding costs about 600 rounds over a 4.9 KB table,
// and most passes never draw; those that do see exactly the stream
// rand.NewSource(seed) produces, through the same methods, on a
// generator recycled from earlier passes when one is free.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		if src, ok := sources.Get().(rand.Source64); ok {
			src.Seed(s.seed)
			s.src = src
		} else {
			s.src = rand.NewSource(s.seed).(rand.Source64)
		}
	}
	return s.src
}

// release hands the generator, if a draw seeded one, back for reuse.
// Nothing may draw from s afterwards.
func (s *lazySource) release() {
	if s.src != nil {
		sources.Put(s.src)
		s.src = nil
	}
}

func (s *lazySource) Int63() int64    { return s.get().Int63() }
func (s *lazySource) Uint64() uint64  { return s.get().Uint64() }
func (s *lazySource) Seed(seed int64) { s.release(); s.seed = seed }

// Verify checks that next preserves prev's observable behaviour on the
// workload's verification stimulus.
//
//   - circuit: lockstep zero-delay simulation of both netlists with
//     next's outputs read Δ = next.Latency − prev.Latency cycles later
//     (passes only ever add pipeline latency, so Δ ≥ 0); compared on
//     the region where both streams reflect real inputs.
//   - fsm: the synthesized controller is checked against the abstract
//     machine itself (its output words on the stimulus, which Build
//     computes once) — stronger than checking against prev, since
//     errors cannot accumulate along a recipe.
//   - bus: exact decode(encode(w)) round-trip over the address trace.
func Verify(b *budget.Budget, prev, next *Design, w *Workload) error {
	switch next.Kind {
	case KindCircuit:
		return verifyCircuit(b, prev, next, w)
	case KindFSM:
		return verifyFSM(b, next, w)
	case KindBus:
		return verifyBus(b, next, w)
	default:
		return fmt.Errorf("recipe: verify of unknown kind %q", next.Kind)
	}
}

func verifyCircuit(b *budget.Budget, prev, next *Design, w *Workload) error {
	if len(prev.Net.Outputs) != len(next.Net.Outputs) {
		return &VerifyError{Detail: fmt.Sprintf("output count %d -> %d", len(prev.Net.Outputs), len(next.Net.Outputs))}
	}
	delta := next.Latency - prev.Latency
	if delta < 0 {
		return &VerifyError{Detail: fmt.Sprintf("latency decreased %d -> %d", prev.Latency, next.Latency)}
	}
	cycles := len(w.VerifyVecs)
	inputs := sim.VectorInputs(w.VerifyVecs)
	ref, err := sim.Outputs(b, prev.Net, inputs, cycles)
	if err != nil {
		return err
	}
	got, err := sim.Outputs(b, next.Net, inputs, cycles)
	if err != nil {
		return err
	}
	// prev's output at cycle c reflects input c−prev.Latency; next's at
	// c+Δ reflects the same input. Both are defined for c ≥ prev.Latency.
	for c := prev.Latency; c+delta < cycles; c++ {
		if diff := ref[c] ^ got[c+delta]; diff != 0 {
			return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs", bits.TrailingZeros64(diff))}
		}
	}
	return nil
}

func verifyFSM(b *budget.Budget, next *Design, w *Workload) error {
	if err := b.Step(int64(len(w.VerifySyms))); err != nil {
		return err
	}
	got, err := sim.Outputs(b, next.Net, sim.VectorInputs(w.VerifyVecs), len(w.VerifyVecs))
	if err != nil {
		return err
	}
	nOut := next.F.NumOutputs
	if width := len(next.Net.Outputs); width != nOut {
		return &VerifyError{Detail: fmt.Sprintf("output width %d, want %d", width, nOut)}
	}
	mask := uint64(1)<<uint(nOut) - 1
	for c, want := range w.VerifyOut {
		if diff := (got[c] ^ want) & mask; diff != 0 {
			return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs from machine", bits.TrailingZeros64(diff))}
		}
	}
	return nil
}

func verifyBus(b *budget.Budget, next *Design, w *Workload) error {
	enc, dec, err := bus.NewCoder(next.Coder, next.Width)
	if err != nil {
		return err
	}
	if err := b.Step(int64(len(w.Stream))); err != nil {
		return err
	}
	enc.Reset()
	dec.Reset()
	mask := uint64(1)<<uint(next.Width) - 1
	for c, word := range w.Stream {
		if got := dec.Decode(enc.Encode(word)); got != word&mask {
			return &VerifyError{Cycle: c, Detail: fmt.Sprintf("round-trip %#x -> %#x", word&mask, got)}
		}
	}
	return nil
}
