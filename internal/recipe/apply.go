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

// Apply runs one named pass over the design with a seeded RNG,
// compiles the result's netlist for Verify and Score, and verifies
// that it computes what the baseline computes under the workload's
// verification stimulus. c is the memo cache the pass may keep
// artifacts in (nil means none): the controller passes synthesize each
// distinct controller once per cache, and the designs built on it
// share its netlist. A panicking pass is contained via hlerr.FromPanic
// and surfaces as a *PassError like any other failure.
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
	if out.Kind != KindBus {
		if out.art, err = out.artifact(); err != nil {
			return nil, &PassError{Pass: name, Err: err}
		}
	}
	if err := Verify(b, out, w); err != nil {
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

// Verify checks that next computes what the baseline computes on the
// workload's verification stimulus.
//
//   - circuit, fsm: next's zero-delay output words, read next.Latency
//     cycles late, must equal the reference Build computed once
//     (Workload.VerifyOut: the baseline circuit's outputs, or the
//     abstract machine's), on every cycle c with c + next.Latency
//     inside the stimulus; a latency that leaves no such cycle fails.
//     A pass only ever starts from a design that passed this check, so
//     checking against the baseline accepts exactly the designs that
//     checking against the pass's input would.
//   - bus: exact decode(encode(w)) round-trip over the address trace.
func Verify(b *budget.Budget, next *Design, w *Workload) error {
	switch next.Kind {
	case KindCircuit, KindFSM:
		return verifyNet(b, next, w)
	case KindBus:
		return verifyBus(b, next, w)
	default:
		return fmt.Errorf("recipe: verify of unknown kind %q", next.Kind)
	}
}

func verifyNet(b *budget.Budget, next *Design, w *Workload) error {
	if width := len(next.Net.Outputs); width != w.VerifyOutputs {
		return &VerifyError{Detail: fmt.Sprintf("output count %d, want %d", width, w.VerifyOutputs)}
	}
	cycles, lat := len(w.VerifyOut), next.Latency
	if lat < 0 || lat >= cycles {
		return &VerifyError{Detail: fmt.Sprintf("latency %d outside [0,%d)", lat, cycles)}
	}
	art, err := next.artifact()
	if err != nil {
		return err
	}
	got, err := art.Outputs(b, sim.VectorInputs(w.VerifyVecs), cycles)
	if err != nil {
		return err
	}
	for c := 0; c+lat < cycles; c++ {
		if diff := w.VerifyOut[c] ^ got[c+lat]; diff != 0 {
			return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs", bits.TrailingZeros64(diff))}
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
