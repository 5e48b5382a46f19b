package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// TestOutputWordsMatchSerialOutputs: the settle-only evaluator returns,
// for every cycle, exactly the primary outputs the serial engine
// records — across multipliers with up to 16 outputs and random
// netlists exercising every opcode, at cycle counts straddling the
// 64-lane block boundary — and charges the budget the step total a run
// of the same workload charges.
func TestOutputWordsMatchSerialOutputs(t *testing.T) {
	type workload struct {
		name string
		net  *logic.Netlist
	}
	var wls []workload
	for _, w := range []int{2, 5, 8} {
		n, _ := buildMul(w)
		wls = append(wls, workload{name: "mul", net: n})
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		wls = append(wls, workload{name: "rand", net: randComb(rng, 3+rng.Intn(12), 20+rng.Intn(60))})
	}
	for _, wl := range wls {
		c, err := Compile(wl.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nIn := len(wl.net.Inputs)
		for _, cycles := range []int{1, 2, 63, 64, 65, 200} {
			words := make([]uint64, cycles)
			for i := range words {
				words[i] = rng.Uint64() & bitutil.Mask(nIn)
			}
			wordIn := func(c int) uint64 { return words[c] }
			vecIn := func(c int) []bool { return bitutil.ToBits(words[c], nIn) }
			want, err := Run(wl.net, vecIn, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b := budget.New()
			got, err := c.OutputWords(b, wordIn, cycles)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != cycles {
				t.Fatalf("%s/%d: %d output words, want %d", wl.name, cycles, len(got), cycles)
			}
			for i, row := range want.Outputs {
				if w := bitutil.FromBits(row); got[i] != w {
					t.Fatalf("%s/%d: cycle %d outputs %#x, want %#x", wl.name, cycles, i, got[i], w)
				}
			}
			ref := budget.New()
			if _, err := c.Run(ref, vecIn, cycles, RunOptions{Workers: 1, Words: wordIn, Lean: true}); err != nil {
				t.Fatal(err)
			}
			if b.StepsUsed() != ref.StepsUsed() {
				t.Fatalf("%s/%d: charged %d steps, a run charges %d", wl.name, cycles, b.StepsUsed(), ref.StepsUsed())
			}
		}
	}
}

// TestOutputWordsScratchReuse: a recycled scratch — left holding
// another workload's planes — cannot leak into a later evaluation.
func TestOutputWordsScratchReuse(t *testing.T) {
	n, _, wordsA := mulWorkload(6, 150, 1)
	_, _, wordsB := mulWorkload(6, 77, 2)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.OutputWords(nil, wordsA, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OutputWords(nil, wordsB, 77); err != nil {
		t.Fatal(err)
	}
	again, err := c.OutputWords(nil, wordsA, 150)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("cycle %d: %#x after reuse, %#x fresh", i, again[i], first[i])
		}
	}
	// One pooled acquisition per evaluation; how many the pool had to
	// allocate depends on what it dropped (the race detector drops Puts
	// at random), so only the bound is pinned.
	if gets, news := c.ScratchStats(); gets != 3 || news > gets {
		t.Fatalf("scratch gets/news = %d/%d, want 3 gets", gets, news)
	}
}

// TestOutputWordsErrors: exhaustion unwinds to the typed budget error;
// artifacts without the packed program, oversized interfaces and bad
// run shapes are typed input errors.
func TestOutputWordsErrors(t *testing.T) {
	n, _, words := mulWorkload(8, 640, 3)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OutputWords(budget.New(budget.WithMaxSteps(1000)), words, 640); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if _, err := c.OutputWords(nil, nil, 10); !hlerr.IsInput(err) {
		t.Fatalf("nil inputs: want input error, got %v", err)
	}
	if _, err := c.OutputWords(nil, words, 0); !hlerr.IsInput(err) {
		t.Fatalf("zero cycles: want input error, got %v", err)
	}

	ed, err := Compile(n, Options{Model: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.OutputWords(nil, words, 10); !hlerr.IsInput(err) {
		t.Fatalf("event-driven artifact: want input error, got %v", err)
	}

	wide := logic.New()
	var ins []int
	for i := 0; i < 65; i++ {
		ins = append(ins, wide.AddInput("x"))
	}
	wide.MarkOutput(wide.Add(logic.And, ins[0], ins[64]))
	wc, err := Compile(wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.OutputWords(nil, func(int) uint64 { return 0 }, 10); !hlerr.IsInput(err) {
		t.Fatalf("65-input netlist: want input error, got %v", err)
	}
}

// outputsOptions are the option sets the Outputs suites compile each
// netlist under: none, and the ones recipe.Score compiles circuits
// and controllers under. Outputs must return RunBudget's words,
// charges and errors under Options{} on every one of them.
var outputsOptions = []Options{
	{},
	{Model: EventDriven, TrackClock: true, GateClock: true},
	{TrackClock: true, GateClock: true},
}

// wantOutputsPath classifies a netlist compiled under opts for Outputs
// without Compile's own planning: logic.TopoOrder, with every DFF read
// as a buffer, finds cycles through a DFF.
func wantOutputsPath(n *logic.Netlist, opts Options) string {
	bits, latch, endff, unit := len(n.Inputs), false, false, true
	for _, g := range n.Gates {
		switch g.Kind {
		case logic.Latch:
			latch = true
		case logic.EnDFF:
			endff = true
			bits++
		case logic.DFF:
			bits++
		}
		if len(g.Fanin) > 0 && g.Delay != 1 {
			unit = false
		}
	}
	if opts.Model == EventDriven {
		if latch || endff || !unit {
			return PathRun
		}
		buf := n.Clone()
		for id := range buf.Gates {
			if buf.Gates[id].Kind == logic.DFF {
				buf.Gates[id].Kind = logic.Buf
			}
		}
		if _, err := buf.TopoOrder(); err != nil {
			return PathRun
		}
		return PathFeedForward
	}
	switch {
	case !latch && bits == len(n.Inputs):
		return PathFused
	case !latch && bits <= 6:
		return PathTable
	}
	return PathRun
}

// checkOutputs compiles n under each of outputsOptions and compares
// the artifact's Outputs with RunBudget's output rows under Options{}
// on one workload under sameBudgetOutcomes' three budget regimes. It
// asserts the path the netlist's shape and the options pick and
// returns the paths taken.
func checkOutputs(t *testing.T, n *logic.Netlist, inputs InputProvider, cycles int, label string) []string {
	t.Helper()
	nOut := len(n.Outputs)
	run := func(b *budget.Budget) (*Result, error) { return RunBudget(b, n, inputs, cycles, Options{}) }
	var paths []string
	for _, opts := range outputsOptions {
		c, err := Compile(n, opts)
		if err != nil {
			t.Fatalf("%s: compile under %+v: %v", label, opts, err)
		}
		path := OutputsPath(c)
		if want := wantOutputsPath(n, opts); path != want {
			t.Fatalf("%s under %+v: path %q, want %q", label, opts, path, want)
		}
		words := func(b *budget.Budget) (*Result, error) {
			out, err := c.Outputs(b, inputs, cycles)
			if err != nil {
				return nil, err
			}
			res := &Result{Outputs: make([][]bool, len(out))}
			for c, w := range out {
				if w>>uint(nOut) != 0 {
					t.Fatalf("%s: cycle %d word %#x has bits above output %d", label, c, w, nOut-1)
				}
				res.Outputs[c] = bitutil.ToBits(w, nOut)
			}
			return res, nil
		}
		got, want := sameBudgetOutcomes(t, label+" "+path, words, run)
		if len(got.Outputs) != len(want.Outputs) {
			t.Fatalf("%s: %d output words, want %d", label, len(got.Outputs), len(want.Outputs))
		}
		for c, row := range want.Outputs {
			if g, w := bitutil.FromBits(got.Outputs[c]), bitutil.FromBits(row); g != w {
				t.Fatalf("%s (%s): cycle %d outputs %#x, RunBudget %#x", label, path, c, g, w)
			}
		}
		paths = append(paths, path)
	}
	return paths
}

// wantLeanKernel classifies a netlist for a lean zero-delay run without
// Compile's own tabulation: combinational netlists take the fused
// kernel, and sequential ones with no Latch, no combinational cycle
// and at most 6 flip-flop and input bits the state table.
func wantLeanKernel(n *logic.Netlist) string {
	bits, seq := len(n.Inputs), false
	for _, g := range n.Gates {
		switch {
		case g.Kind == logic.Latch:
			return ""
		case g.Kind.IsSequential():
			seq = true
			bits++
		}
	}
	switch _, err := n.TopoOrder(); {
	case !seq:
		return KernelFused
	case err == nil && bits <= 6:
		return KernelTable
	}
	return ""
}

// checkLeanRuns compiles n with a clock tree, gated and not, and
// compares its lean runs with RunBudget on one workload under
// sameBudgetOutcomes' three budget regimes: switched and per-cycle
// capacitance Float64bits-identical, the same toggles, steps and
// errors, on the kernel the netlist's shape picks. It returns the
// kernel.
func checkLeanRuns(t *testing.T, n *logic.Netlist, inputs InputProvider, cycles int, label string) string {
	t.Helper()
	kernel := wantLeanKernel(n)
	for _, gated := range []bool{false, true} {
		opts := Options{TrackClock: true, GateClock: gated}
		c, err := Compile(n, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", label, err)
		}
		lbl := fmt.Sprintf("%s lean gated=%v", label, gated)
		lean := func(b *budget.Budget) (*Result, error) {
			return c.Run(b, inputs, cycles, RunOptions{Workers: 1, Lean: true})
		}
		ref := func(b *budget.Budget) (*Result, error) { return RunBudget(b, n, inputs, cycles, opts) }
		var got, want *Result
		if kernel == KernelFused {
			// The fused kernel charges a 64-cycle block at a time, so
			// only its figures are RunBudget's.
			got, err = lean(nil)
			if err != nil {
				t.Fatalf("%s: %v", lbl, err)
			}
			if want, err = ref(nil); err != nil {
				t.Fatalf("%s: reference: %v", lbl, err)
			}
		} else {
			got, want = sameBudgetOutcomes(t, lbl, lean, ref)
		}
		if got.Kernel != kernel {
			t.Fatalf("%s: kernel %q, want %q", lbl, got.Kernel, kernel)
		}
		if !slices.Equal(got.Toggles, want.Toggles) || len(got.PerCycleCap) != len(want.PerCycleCap) {
			t.Fatalf("%s (%s): toggles %v over %d cycles, RunBudget %v over %d", lbl, kernel,
				got.Toggles, len(got.PerCycleCap), want.Toggles, len(want.PerCycleCap))
		}
		if math.Float64bits(got.SwitchedCap) != math.Float64bits(want.SwitchedCap) {
			t.Fatalf("%s (%s): switched cap %v, RunBudget %v", lbl, kernel, got.SwitchedCap, want.SwitchedCap)
		}
		for i, w := range want.PerCycleCap {
			if math.Float64bits(got.PerCycleCap[i]) != math.Float64bits(w) {
				t.Fatalf("%s (%s): cycle %d cap %v, RunBudget %v", lbl, kernel, i, got.PerCycleCap[i], w)
			}
		}
	}
	return kernel
}

// outCycles straddle the 64-lane block edges.
var outCycles = []int{1, 63, 64, 65, 128, 130}

// randOutputsNetlist draws a netlist for the Outputs suite: a
// unit-delay shape (feed-forward, pipelined, feedback, latch, enabled
// flip-flop, odd delay) or a random event-driven netlist with latches
// and flip-flop loops; small sizes make controllers whose flip-flop and
// input bits fit a state table.
func randOutputsNetlist(rng *rand.Rand, family, nIn, nGates int) *logic.Netlist {
	if family < udShapes {
		return randUnitDelayNetlist(rng, nIn, nGates, family)
	}
	return randEventNetlist(rng, nIn, nGates)
}

// TestOutputsMatchRunBudget is Outputs' differential property: over
// random netlists of every shape, small and large, compiled under each
// of outputsOptions, at cycle counts around block edges, the output
// words are RunBudget's output rows under Options{}, with its budget
// charges and exhaustion outcomes, on the path the artifact's plan
// picks — and every path runs. The same netlists'
// lean runs under a clock tree are RunBudget's power figures, on every
// kernel a zero-delay run can take. It runs once per lane kernel the
// host has.
func TestOutputsMatchRunBudget(t *testing.T) {
	forEachLaneKernel(t, func(kernel string) {
		t.Run(kernel, outputsMatchRunBudget)
	})
}

func outputsMatchRunBudget(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 10
	}
	ran, kernels := map[string]int{}, map[string]int{}
	for trial := 0; trial < trials; trial++ {
		for family := 0; family <= udShapes; family++ {
			rng := rand.New(rand.NewSource(int64(7000 + trial*(udShapes+1) + family)))
			nIn, nGates := 1+rng.Intn(3), 1+rng.Intn(12)
			if trial%2 == 1 {
				nIn, nGates = 1+rng.Intn(6), 1+rng.Intn(40)
			}
			n := randOutputsNetlist(rng, family, nIn, nGates)
			cycles := outCycles[rng.Intn(len(outCycles))]
			label := fmt.Sprintf("trial %d family %d cycles %d", trial, family, cycles)
			inputs := randVectors(rng, cycles, len(n.Inputs))
			for _, path := range checkOutputs(t, n, inputs, cycles, label) {
				ran[path]++
			}
			kernels[checkLeanRuns(t, n, inputs, cycles, label)]++
		}
	}
	for _, path := range []string{PathFeedForward, PathFused, PathTable, PathRun} {
		if ran[path] == 0 {
			t.Errorf("no netlist took the %s path: %v", path, ran)
		}
	}
	for _, kernel := range []string{KernelFused, KernelTable, ""} {
		if kernels[kernel] == 0 {
			t.Errorf("no lean run took the %q kernel: %v", kernel, kernels)
		}
	}
}

// FuzzOutputsEquivalence drives the differential properties of Outputs
// and of lean runs with fuzzed netlist families, sizes and run lengths.
func FuzzOutputsEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3), uint8(20), uint8(0))
	f.Add(int64(2), uint8(1), uint8(2), uint8(9), uint8(3))
	f.Add(int64(3), uint8(2), uint8(1), uint8(6), uint8(5))
	f.Add(int64(4), uint8(3), uint8(4), uint8(30), uint8(2))
	f.Add(int64(5), uint8(4), uint8(2), uint8(8), uint8(4))
	f.Add(int64(6), uint8(6), uint8(2), uint8(7), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, family, nIn, nGates, cyc uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := randOutputsNetlist(rng, int(family)%(udShapes+1), 1+int(nIn)%8, 1+int(nGates)%64)
		cycles := outCycles[int(cyc)%len(outCycles)]
		inputs := randVectors(rng, cycles, len(n.Inputs))
		checkOutputs(t, n, inputs, cycles, "fuzz")
		checkLeanRuns(t, n, inputs, cycles, "fuzz")
	})
}

// TestOutputsBadVector: on every path, under every option set of
// outputsOptions, a wrong-width vector fails with RunBudget's input
// error after RunBudget's charges — mid-block, at cycle 0 before any
// charge — and a step limit that trips first wins, as on RunBudget. A
// lean run on the table kernel fails the same way.
func TestOutputsBadVector(t *testing.T) {
	nets := []*logic.Netlist{
		randComb(rand.New(rand.NewSource(10)), 4, 30),
		randUnitDelayNetlist(rand.New(rand.NewSource(11)), 4, 30, udPipelined),
		randUnitDelayNetlist(rand.New(rand.NewSource(12)), 2, 6, udFeedback),
		randUnitDelayNetlist(rand.New(rand.NewSource(13)), 4, 30, udLatch),
	}
	const cycles = 130
	ran := map[string]bool{}
	for _, n := range nets {
		for _, opts := range outputsOptions {
			c, err := Compile(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			path := OutputsPath(c)
			ran[path] = true
			for _, bad := range []int{0, 100} {
				rng := rand.New(rand.NewSource(int64(bad)))
				vecs := make([][]bool, cycles)
				for c := range vecs {
					vecs[c] = bitutil.ToBits(rng.Uint64(), len(n.Inputs))
				}
				vecs[bad] = vecs[bad][:1]
				for _, limit := range []int64{0, 500, 3000} {
					bg, bw := budget.New(budget.WithMaxSteps(limit)), budget.New(budget.WithMaxSteps(limit))
					_, gotErr := c.Outputs(bg, VectorInputs(vecs), cycles)
					_, wantErr := RunBudget(bw, n, VectorInputs(vecs), cycles, Options{})
					if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || bg.StepsUsed() != bw.StepsUsed() {
						t.Fatalf("%s under %+v, bad vector %d, limit %d: got (%v, %d steps), RunBudget (%v, %d steps)",
							path, opts, bad, limit, gotErr, bg.StepsUsed(), wantErr, bw.StepsUsed())
					}
					if path != PathTable {
						continue
					}
					bg, bw = budget.New(budget.WithMaxSteps(limit)), budget.New(budget.WithMaxSteps(limit))
					res, gotErr := c.Run(bg, VectorInputs(vecs), cycles, RunOptions{Lean: true})
					_, wantErr = RunBudget(bw, n, VectorInputs(vecs), cycles, opts)
					if res != nil || gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || bg.StepsUsed() != bw.StepsUsed() {
						t.Fatalf("table kernel under %+v, bad vector %d, limit %d: got (%v, %d steps), RunBudget (%v, %d steps)",
							opts, bad, limit, gotErr, bg.StepsUsed(), wantErr, bw.StepsUsed())
					}
				}
			}
		}
	}
	for _, path := range []string{PathFeedForward, PathFused, PathTable, PathRun} {
		if !ran[path] {
			t.Errorf("no artifact took the %s path: %v", path, ran)
		}
	}
}

// TestOutputsErrors: argument errors are RunBudget's own under every
// option set of outputsOptions, and a netlist RunBudget rejects does
// not compile, with RunBudget's error; more than 64 outputs is a typed
// input error.
func TestOutputsErrors(t *testing.T) {
	ok := randUnitDelayNetlist(rand.New(rand.NewSource(1)), 2, 5, udFeedForward)
	loop := logic.New()
	x := loop.AddInput("x")
	a := loop.Add(logic.And, x, x)
	b := loop.Add(logic.Or, a, x)
	loop.Gates[a].Fanin[1] = b
	loop.MarkOutput(b)
	vecs := VectorInputs([][]bool{{true, false}, {false, true}})
	for _, opts := range outputsOptions {
		c, err := Compile(ok, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			inputs InputProvider
			cycles int
		}{
			{"zero cycles", vecs, 0},
			{"nil inputs", nil, 2},
		} {
			_, gotErr := c.Outputs(nil, tc.inputs, tc.cycles)
			_, wantErr := RunBudget(nil, ok, tc.inputs, tc.cycles, Options{})
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s under %+v: got %v, RunBudget %v", tc.name, opts, gotErr, wantErr)
			}
		}
		for _, tc := range []struct {
			name string
			n    *logic.Netlist
		}{
			{"nil netlist", nil},
			{"combinational cycle", loop},
		} {
			_, gotErr := Compile(tc.n, opts)
			_, wantErr := RunBudget(nil, tc.n, VectorInputs([][]bool{{true}}), 1, Options{})
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Errorf("%s under %+v: compile %v, RunBudget %v", tc.name, opts, gotErr, wantErr)
			}
		}
	}
	wide := logic.New()
	in := wide.AddInput("x")
	for i := 0; i < 65; i++ {
		wide.MarkOutput(wide.Add(logic.Not, in))
	}
	for _, opts := range outputsOptions {
		c, err := Compile(wide, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Outputs(nil, VectorInputs([][]bool{{true}}), 1); !hlerr.IsInput(err) {
			t.Fatalf("65 outputs under %+v: want input error, got %v", opts, err)
		}
	}
}
