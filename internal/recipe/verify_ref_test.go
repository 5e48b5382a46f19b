package recipe

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/logic"
	"hlpower/internal/sim"
)

// verifyRef is Verify on the reference engine: both netlists run on
// sim.RunBudget, power metering and all, and are compared output by
// output. Verify must return exactly its errors and charge exactly its
// steps.
func verifyRef(b *budget.Budget, prev, next *Design, w *Workload) error {
	switch next.Kind {
	case KindCircuit:
		return verifyCircuitRef(b, prev, next, w)
	case KindFSM:
		return verifyFSMRef(b, next, w)
	default:
		return Verify(b, prev, next, w)
	}
}

func verifyCircuitRef(b *budget.Budget, prev, next *Design, w *Workload) error {
	if len(prev.Net.Outputs) != len(next.Net.Outputs) {
		return &VerifyError{Detail: fmt.Sprintf("output count %d -> %d", len(prev.Net.Outputs), len(next.Net.Outputs))}
	}
	delta := next.Latency - prev.Latency
	if delta < 0 {
		return &VerifyError{Detail: fmt.Sprintf("latency decreased %d -> %d", prev.Latency, next.Latency)}
	}
	cycles := len(w.VerifyVecs)
	inputs := sim.VectorInputs(w.VerifyVecs)
	ref, err := sim.RunBudget(b, prev.Net, inputs, cycles, sim.Options{})
	if err != nil {
		return err
	}
	got, err := sim.RunBudget(b, next.Net, inputs, cycles, sim.Options{})
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

func verifyFSMRef(b *budget.Budget, next *Design, w *Workload) error {
	if err := b.Step(int64(len(w.VerifySyms))); err != nil {
		return err
	}
	_, refOut := next.F.Simulate(w.VerifySyms)
	got, err := sim.RunBudget(b, next.Net, sim.VectorInputs(w.VerifyVecs), len(w.VerifyVecs), sim.Options{})
	if err != nil {
		return err
	}
	nOut := next.F.NumOutputs
	for c := range refOut {
		if len(got.Outputs[c]) != nOut {
			return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output width %d, want %d", len(got.Outputs[c]), nOut)}
		}
		for o := 0; o < nOut; o++ {
			if got.Outputs[c][o] != (refOut[c]>>uint(o)&1 == 1) {
				return &VerifyError{Cycle: c, Detail: fmt.Sprintf("output %d differs from machine", o)}
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

// sameVerify asserts Verify and verifyRef agree on one candidate under
// an unlimited budget, a step limit that trips halfway and a fault plan
// swept over every check point: the same error and the same steps.
// It returns the unlimited outcome.
func sameVerify(t *testing.T, label string, prev, next *Design, w *Workload) error {
	t.Helper()
	run := func(mk func() *budget.Budget) (gotErr, wantErr error, steps int64) {
		bg, bw := mk(), mk()
		gotErr, wantErr = Verify(bg, prev, next, w), verifyRef(bw, prev, next, w)
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
// each. The candidates cover every path of sim.Outputs: circuits and
// their retimed forms are feed-forward, 4-state controllers are
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
		prev, next *Design
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
	next, err := passGuard(budget.New(), nil, guarded, nil)
	if err != nil {
		t.Fatal(err)
	}
	cands = append(cands, cand{"guarded mux", guarded, next, gw})

	caught := map[string]int{}
	for _, c := range cands {
		if err := sameVerify(t, c.label, c.prev, c.next, c.w); err != nil {
			t.Fatalf("%s: correct pass failed verification: %v", c.label, err)
		}
		for _, br := range breakings {
			broken := *c.next
			broken.Net = c.next.Net.Clone()
			br.mut(&broken)
			var ve *VerifyError
			if errors.As(sameVerify(t, c.label+" "+br.name, c.prev, &broken, c.w), &ve) {
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
