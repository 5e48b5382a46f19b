package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// randEventNetlist builds a random netlist for the event-driven engine:
// inputs, both constants, Not/Buf/Xor/Xnor/Mux and multi-input gates,
// DFF/EnDFF flip-flops (about half fed back from logic built after
// them) and latches, with every delay drawn from 0-4, over three
// accounting groups.
func randEventNetlist(rng *rand.Rand, nInputs, nGates int) *logic.Netlist {
	n := logic.New()
	var sigs []int
	for i := 0; i < nInputs; i++ {
		sigs = append(sigs, n.AddInput("x"))
	}
	sigs = append(sigs, n.Add(logic.Const0), n.Add(logic.Const1))
	groups := []string{"exec", "ctrl", "misc"}
	multi := []logic.Kind{logic.And, logic.Or, logic.Nand, logic.Nor}
	pick := func() int { return sigs[rng.Intn(len(sigs))] }
	var ffs []int
	for g := 0; g < nGates; g++ {
		grp := groups[rng.Intn(len(groups))]
		var id int
		switch rng.Intn(11) {
		case 0:
			id = n.AddG(logic.Not, grp, pick())
		case 1:
			id = n.AddG(logic.Buf, grp, pick())
		case 2:
			id = n.AddG(logic.Xor, grp, pick(), pick())
		case 3:
			id = n.AddG(logic.Xnor, grp, pick(), pick())
		case 4:
			id = n.AddG(logic.Mux, grp, pick(), pick(), pick())
		case 5:
			fanin := []int{pick(), pick(), pick()}
			if rng.Intn(2) == 0 {
				fanin = append(fanin, pick())
			}
			id = n.AddG(multi[rng.Intn(len(multi))], grp, fanin...)
		case 6:
			id = n.AddG(logic.DFF, grp, pick())
			n.SetInit(id, rng.Intn(2) == 1)
			ffs = append(ffs, id)
		case 7:
			id = n.AddG(logic.EnDFF, grp, pick(), pick())
			n.SetInit(id, rng.Intn(2) == 1)
			ffs = append(ffs, id)
		case 8:
			id = n.AddG(logic.Latch, grp, pick(), pick())
			n.SetInit(id, rng.Intn(2) == 1)
		default:
			id = n.AddG(multi[rng.Intn(len(multi))], grp, pick(), pick())
		}
		sigs = append(sigs, id)
	}
	// Close sequential loops: a flip-flop's D may come from any signal,
	// including logic it feeds.
	for _, id := range ffs {
		if rng.Intn(2) == 0 {
			fanin := n.Gates[id].Fanin
			fanin[len(fanin)-1] = pick()
		}
	}
	for id := range n.Gates {
		n.Gates[id].Delay = rng.Intn(5)
	}
	n.MarkOutput(sigs[len(sigs)-1])
	n.MarkOutput(sigs[len(sigs)/2])
	n.MarkOutput(pick())
	return n
}

// eventOptions are the option sets the differential suite runs: the
// bare event-driven model, with the clock tree charged, with disabled
// EnDFFs' clock gated, and gating requested without clock tracking.
var eventOptions = []Options{
	{Model: EventDriven},
	{Model: EventDriven, TrackClock: true},
	{Model: EventDriven, TrackClock: true, GateClock: true},
	{Model: EventDriven, GateClock: true},
}

// runFunc is one engine's run of a fixed workload under a budget.
type runFunc func(b *budget.Budget) (*Result, error)

// sameBudgetOutcomes asserts two engines behave identically under the
// budget: with an unlimited budget both succeed and charge the same
// steps (their results are returned for the caller to compare), and
// they fail with the same typed exhaustion after the same steps under a
// step limit that trips halfway and under a fault plan swept over every
// slow check point of the run.
func sameBudgetOutcomes(t *testing.T, label string, got, want runFunc) (gotRes, wantRes *Result) {
	t.Helper()
	run := func(mk func() *budget.Budget) (gotRes, wantRes *Result, gotErr, wantErr error, gotSteps, wantSteps int64) {
		bg, bw := mk(), mk()
		gotRes, gotErr = got(bg)
		wantRes, wantErr = want(bw)
		return gotRes, wantRes, gotErr, wantErr, bg.StepsUsed(), bw.StepsUsed()
	}
	gotRes, wantRes, gotErr, wantErr, gotSteps, wantSteps := run(func() *budget.Budget { return budget.New() })
	if gotErr != nil || wantErr != nil {
		t.Fatalf("%s: errors: got %v, want %v", label, gotErr, wantErr)
	}
	if gotSteps != wantSteps {
		t.Fatalf("%s: StepsUsed %d, want %d", label, gotSteps, wantSteps)
	}

	sameFailure := func(kind string, mk func() *budget.Budget) bool {
		t.Helper()
		_, _, gotErr, wantErr, gotSteps, wantSteps := run(mk)
		if (gotErr == nil) != (wantErr == nil) || gotSteps != wantSteps {
			t.Fatalf("%s %s: got (%v, %d steps), want (%v, %d steps)", label, kind, gotErr, gotSteps, wantErr, wantSteps)
		}
		if wantErr == nil {
			return false
		}
		var ge, we *budget.Exceeded
		if !errors.As(gotErr, &ge) || !errors.As(wantErr, &we) || *ge != *we {
			t.Fatalf("%s %s: got error %v, want %v", label, kind, gotErr, wantErr)
		}
		return true
	}
	if wantSteps >= 2 {
		limit := wantSteps / 2
		if !sameFailure("step limit", func() *budget.Budget { return budget.New(budget.WithMaxSteps(limit)) }) {
			t.Fatalf("%s: limit %d of %d steps did not trip", label, limit, wantSteps)
		}
	}
	// A check point every interval steps gives about eight per run;
	// trip at each in turn until the run completes.
	interval := max(1, wantSteps/8)
	for k := int64(1); ; k++ {
		plan := budget.FaultPlan{FailAtCheck: k}
		tripped := sameFailure("fault plan", func() *budget.Budget {
			return budget.New(budget.WithCheckInterval(interval), budget.WithFaultPlan(plan))
		})
		if !tripped {
			break
		}
	}
	return gotRes, wantRes
}

// checkEventDrivenEquivalence asserts the timing-wheel engine matches
// the reference on one workload: Float64bits-identical totals and every
// other result field with an unlimited budget, and the same budget
// behaviour (sameBudgetOutcomes).
func checkEventDrivenEquivalence(t *testing.T, n *logic.Netlist, inputs InputProvider, cycles int, opts Options, label string) {
	t.Helper()
	got, want := sameBudgetOutcomes(t, label,
		func(b *budget.Budget) (*Result, error) { return RunBudget(b, n, inputs, cycles, opts) },
		func(b *budget.Budget) (*Result, error) { return refRunBudget(b, n, inputs, cycles, opts) })
	sameResult(t, want, got, label)
	if len(got.Outputs) != len(want.Outputs) {
		t.Fatalf("%s: %d output rows, reference %d", label, len(got.Outputs), len(want.Outputs))
	}
}

// TestEventDrivenMatchesReference is the timing wheel's differential
// property: over random sequential netlists with delays 0-4, every
// option set yields results, budget charges and exhaustion outcomes
// identical to the map-scheduled reference engine.
func TestEventDrivenMatchesReference(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := randEventNetlist(rng, 1+rng.Intn(6), 1+rng.Intn(40))
		cycles := 1 + rng.Intn(48)
		inputs := randVectors(rng, cycles, len(n.Inputs))
		for oi, opts := range eventOptions {
			checkEventDrivenEquivalence(t, n, inputs, cycles, opts, fmt.Sprintf("trial %d opts %d", trial, oi))
		}
	}
}

// TestEventDrivenDelayBounds: delays outside [0, MaxGateDelay] are
// rejected as typed input errors before an event-driven run starts,
// while both ends of the range, Delay 0 included, simulate like the
// reference. Zero-delay runs never read delays and ignore them.
func TestEventDrivenDelayBounds(t *testing.T) {
	build := func(delay int) *logic.Netlist {
		n := logic.New()
		a, b := n.AddInput("a"), n.AddInput("b")
		x := n.Add(logic.Xor, a, b)
		y := n.Add(logic.And, x, a)
		n.Gates[x].Delay = delay
		n.MarkOutput(y)
		return n
	}
	rng := rand.New(rand.NewSource(5))
	inputs := randVectors(rng, 16, 2)
	for _, delay := range []int{0, 1, MaxGateDelay} {
		checkEventDrivenEquivalence(t, build(delay), inputs, 16, Options{Model: EventDriven}, fmt.Sprintf("delay %d", delay))
	}
	for _, delay := range []int{-1, MaxGateDelay + 1} {
		n := build(delay)
		for _, run := range []func() error{
			func() error { _, err := Run(n, inputs, 16, Options{Model: EventDriven}); return err },
			func() error { _, err := Compile(n, Options{Model: EventDriven}); return err },
		} {
			if err := run(); !hlerr.IsInput(err) {
				t.Fatalf("delay %d: err %v, want a typed input error", delay, err)
			}
		}
		if _, err := Run(n, inputs, 16, Options{}); err != nil {
			t.Fatalf("delay %d, zero-delay model: %v", delay, err)
		}
	}
}

// FuzzEventDrivenEquivalence drives the differential property with
// fuzzed netlist shapes, run lengths and option sets.
func FuzzEventDrivenEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(20), uint8(30), uint8(0))
	f.Add(int64(2), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(3), uint8(6), uint8(60), uint8(64), uint8(2))
	f.Add(int64(42), uint8(4), uint8(35), uint8(17), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates, cyc, opt uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := randEventNetlist(rng, 1+int(nIn)%8, 1+int(nGates)%64)
		cycles := 1 + int(cyc)%64
		inputs := randVectors(rng, cycles, len(n.Inputs))
		opts := eventOptions[int(opt)%len(eventOptions)]
		checkEventDrivenEquivalence(t, n, inputs, cycles, opts, "fuzz")
	})
}
