package recipe

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/logic"
	"hlpower/internal/sim"
)

// refWords returns the baseline's reference words on the reference
// engine, uncharged: a circuit's sim.RunBudget output rows, or the
// abstract machine's outputs over the symbols VerifyVecs spells.
func refWords(t *testing.T, base *Design, w *Workload) []uint64 {
	t.Helper()
	if base.Kind == KindFSM {
		syms := make([]int, len(w.VerifyVecs))
		for c, vec := range w.VerifyVecs {
			syms[c] = int(bitutil.FromBits(vec))
		}
		_, out := base.F.Simulate(syms)
		return out
	}
	res, err := sim.RunBudget(nil, base.Net, sim.VectorInputs(w.VerifyVecs), len(w.VerifyVecs), sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]uint64, len(res.Outputs))
	for c, row := range res.Outputs {
		out[c] = bitutil.FromBits(row)
	}
	return out
}

// verifyRef is Verify on the reference engine: next runs on
// sim.RunBudget, power metering and all, and its output rows, read
// next.Latency cycles late, are compared output by output with the
// baseline's words ref. Verify must return exactly its errors and
// charge exactly its steps.
func verifyRef(b *budget.Budget, ref []uint64, nOut int, next *Design, w *Workload) error {
	if next.Kind == KindBus {
		return Verify(b, next, w)
	}
	if width := len(next.Net.Outputs); width != nOut {
		return &VerifyError{Detail: fmt.Sprintf("output count %d, want %d", width, nOut)}
	}
	cycles, lat := len(ref), next.Latency
	if lat < 0 || lat >= cycles {
		return &VerifyError{Detail: fmt.Sprintf("latency %d outside [0,%d)", lat, cycles)}
	}
	got, err := sim.RunBudget(b, next.Net, sim.VectorInputs(w.VerifyVecs), cycles, sim.Options{})
	if err != nil {
		return err
	}
	for c := 0; c+lat < cycles; c++ {
		for o, v := range got.Outputs[c+lat] {
			if v != (ref[c]>>uint(o)&1 == 1) {
				return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs", o)}
			}
		}
	}
	return nil
}

// verifyPrevRelative is the rule Verify replaced for circuits: next
// checked against the design its pass started from, both simulated,
// with next's outputs read next.Latency − prev.Latency cycles later on
// the cycles where both reflect real inputs.
func verifyPrevRelative(prev, next *Design, w *Workload) error {
	if len(prev.Net.Outputs) != len(next.Net.Outputs) {
		return &VerifyError{Detail: fmt.Sprintf("output count %d -> %d", len(prev.Net.Outputs), len(next.Net.Outputs))}
	}
	delta := next.Latency - prev.Latency
	if delta < 0 {
		return &VerifyError{Detail: fmt.Sprintf("latency decreased %d -> %d", prev.Latency, next.Latency)}
	}
	cycles := len(w.VerifyVecs)
	inputs := sim.VectorInputs(w.VerifyVecs)
	ref, err := sim.RunBudget(nil, prev.Net, inputs, cycles, sim.Options{})
	if err != nil {
		return err
	}
	got, err := sim.RunBudget(nil, next.Net, inputs, cycles, sim.Options{})
	if err != nil {
		return err
	}
	for c := prev.Latency; c+delta < cycles; c++ {
		for o := range ref.Outputs[c] {
			if ref.Outputs[c][o] != got.Outputs[c+delta][o] {
				return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs", o)}
			}
		}
	}
	return nil
}

// sameError reports whether two Verify outcomes are the same: both nil,
// equal VerifyErrors (cycle and detail), equal budget exhaustions, or
// the same message.
func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	var gv, wv *VerifyError
	if errors.As(want, &wv) {
		return errors.As(got, &gv) && *gv == *wv
	}
	var ge, we *budget.Exceeded
	if errors.As(want, &we) {
		return errors.As(got, &ge) && *ge == *we
	}
	return got.Error() == want.Error()
}

// sameVerify asserts Verify and verifyRef, against the baseline's
// words, agree on one candidate under an unlimited budget, a step
// limit that trips halfway and a fault plan swept over every check
// point: the same error and the same steps. It returns the unlimited
// outcome.
func sameVerify(t *testing.T, label string, base, next *Design, w *Workload) error {
	t.Helper()
	var ref []uint64
	var nOut int
	if base.Kind != KindBus {
		ref, nOut = refWords(t, base, w), len(base.Net.Outputs)
	}
	run := func(mk func() *budget.Budget) (gotErr, wantErr error, steps int64) {
		bg, bw := mk(), mk()
		gotErr, wantErr = Verify(bg, next, w), verifyRef(bw, ref, nOut, next, w)
		if !sameError(gotErr, wantErr) || bg.StepsUsed() != bw.StepsUsed() {
			t.Fatalf("%s: Verify (%v, %d steps), reference (%v, %d steps)", label, gotErr, bg.StepsUsed(), wantErr, bw.StepsUsed())
		}
		return gotErr, wantErr, bw.StepsUsed()
	}
	outcome, _, steps := run(func() *budget.Budget { return budget.New() })
	if steps >= 2 {
		run(func() *budget.Budget { return budget.New(budget.WithMaxSteps(steps / 2)) })
	}
	interval := max(1, steps/8)
	for k := int64(1); ; k++ {
		plan := budget.FaultPlan{FailAtCheck: k}
		_, wantErr, _ := run(func() *budget.Budget {
			return budget.New(budget.WithCheckInterval(interval), budget.WithFaultPlan(plan))
		})
		if !errors.Is(wantErr, budget.ErrExceeded) {
			break
		}
	}
	return outcome
}

// breakings derive broken candidates from a correct one: a flipped
// gate, a wrong latency, a dropped output, an extra output.
var breakings = []struct {
	name string
	mut  func(d *Design)
}{
	{"flipped gate", func(d *Design) {
		flip := map[logic.Kind]logic.Kind{
			logic.And: logic.Nand, logic.Nand: logic.And, logic.Or: logic.Nor, logic.Nor: logic.Or,
			logic.Xor: logic.Xnor, logic.Xnor: logic.Xor, logic.Buf: logic.Not, logic.Not: logic.Buf,
		}
		for id := len(d.Net.Gates) - 1; id >= 0; id-- {
			if k, ok := flip[d.Net.Gates[id].Kind]; ok {
				d.Net.Gates[id].Kind = k
				return
			}
		}
	}},
	{"latency +1", func(d *Design) { d.Latency++ }},
	{"latency -1", func(d *Design) { d.Latency-- }},
	{"dropped output", func(d *Design) { d.Net.Outputs = d.Net.Outputs[:len(d.Net.Outputs)-1] }},
	{"extra output", func(d *Design) { d.Net.MarkOutput(d.Net.Outputs[0]) }},
}

// TestVerifyMatchesRunBudgetReference: Verify on output words returns
// the reference's errors — VerifyError cycle and detail, budget
// exhaustion — and charges its steps, on every pass of every design
// kind that reaches a netlist and on broken candidates derived from
// each. The candidates cover every path of (*sim.Compiled).Outputs
// under Score's options: circuits and their retimed forms take the
// unit-delay program's feed-forward settle, 4-state controllers are
// tabulated, and the guarded circuit (latches) and 7-state one-hot
// controllers (9 state and input bits) run on RunBudget.
func TestVerifyMatchesRunBudgetReference(t *testing.T) {
	specs := []Spec{
		{Kind: KindCircuit, Circuit: "adder", Width: 8},
		{Kind: KindCircuit, Circuit: "carry-select", Width: 8},
		{Kind: KindCircuit, Circuit: "subtractor", Width: 4},
		{Kind: KindCircuit, Circuit: "comparator", Width: 3},
		{Kind: KindFSM, States: 4, Inputs: 1, Outputs: 2},
		{Kind: KindFSM, States: 7, Inputs: 2, Outputs: 3},
	}
	type cand struct {
		label      string
		base, next *Design
		w          *Workload
	}
	var cands []cand
	for _, spec := range specs {
		d, w, err := Build(spec, 3, 64, 70)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range Vocabulary(spec.Kind) {
			if strings.HasPrefix(name, "zz-test-") {
				continue // registered by other tests, broken on purpose
			}
			p, _ := Lookup(name)
			next, err := applySafe(p, budget.New(), nil, d, 5)
			if err != nil {
				continue
			}
			cands = append(cands, cand{fmt.Sprintf("%+v %s", spec, name), d, next, w})
		}
	}
	// A guarded circuit: latches keep it on RunBudget.
	guarded := &Design{Kind: KindCircuit, Net: earlyMuxNet()}
	gw := &Workload{Kind: KindCircuit, VerifyVecs: bitVecs(9, 100, len(guarded.Net.Inputs))}
	gw.VerifyOut, gw.VerifyOutputs = refWords(t, guarded, gw), len(guarded.Net.Outputs)
	next, err := passGuard(budget.New(), nil, guarded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, cand{"guarded mux", guarded, next, gw})

	caught := map[string]int{}
	for _, c := range cands {
		if err := sameVerify(t, c.label, c.base, c.next, c.w); err != nil {
			t.Fatalf("%s: correct pass failed verification: %v", c.label, err)
		}
		for _, br := range breakings {
			broken := *c.next
			broken.Net = c.next.Net.Clone()
			br.mut(&broken)
			var ve *VerifyError
			if errors.As(sameVerify(t, c.label+" "+br.name, c.base, &broken, c.w), &ve) {
				caught[br.name]++
			}
		}
	}
	for _, br := range breakings {
		if caught[br.name] == 0 {
			t.Errorf("no %s candidate failed verification", br.name)
		}
	}
}

// earlyMuxNet is a mux selected by a primary input over two exclusive
// cones, the shape guarded evaluation latches.
func earlyMuxNet() *logic.Netlist {
	n := logic.New()
	s, a, b, c := n.AddInput("s"), n.AddInput("a"), n.AddInput("b"), n.AddInput("c")
	x := n.Add(logic.Xor, n.Add(logic.And, a, b), c)
	y := n.Add(logic.Or, n.Add(logic.Nor, a, c), b)
	n.MarkOutput(n.Add(logic.Mux, s, x, y))
	n.MarkOutput(n.Add(logic.And, a, c))
	return n
}

// TestVerifyVerdictMatchesPrevRelative: checking a design against the
// baseline's words accepts exactly the designs that checking it
// against the design its pass started from accepts. Over every chain
// of up to three passes on the four benchmark circuits at width 4,
// both rules give each pass output and each breaking of it the same
// verdict, and chains grow only from accepted designs, as in a job.
func TestVerifyVerdictMatchesPrevRelative(t *testing.T) {
	var vocab []string
	for _, name := range Vocabulary(KindCircuit) {
		if !strings.HasPrefix(name, "zz-test-") {
			vocab = append(vocab, name)
		}
	}
	verdict := func(label string, err error) bool {
		t.Helper()
		var ve *VerifyError
		if err != nil && !errors.As(err, &ve) {
			t.Fatalf("%s: %v", label, err)
		}
		return err == nil
	}
	compared := 0
	for _, circuit := range []string{"adder", "carry-select", "subtractor", "comparator"} {
		base, w, err := Build(Spec{Kind: KindCircuit, Circuit: circuit, Width: 4}, 7, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		frontier := []*Design{base}
		for depth := 1; depth <= 3; depth++ {
			var grown []*Design
			for _, prev := range frontier {
				for i, name := range vocab {
					p, _ := Lookup(name)
					next, err := applySafe(p, budget.New(), nil, prev, uint64(depth*len(vocab)+i))
					if err != nil {
						continue
					}
					label := fmt.Sprintf("%s depth %d %s", circuit, depth, name)
					cands := []*Design{next}
					for _, br := range breakings {
						broken := *next
						broken.Net = next.Net.Clone()
						br.mut(&broken)
						cands = append(cands, &broken)
					}
					for k, cand := range cands {
						got := verdict(label, Verify(nil, cand, w))
						if want := verdict(label, verifyPrevRelative(prev, cand, w)); got != want {
							t.Errorf("%s candidate %d: Verify accepts %v, the prev-relative rule %v", label, k, got, want)
						}
						compared++
					}
					if verdict(label, Verify(nil, next, w)) {
						grown = append(grown, next)
					}
				}
			}
			frontier = grown
		}
	}
	t.Logf("%d candidates compared", compared)
}
