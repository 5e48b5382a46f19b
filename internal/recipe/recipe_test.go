package recipe

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
	"hlpower/internal/memo"
	"hlpower/internal/sim"
)

func testBudget() *budget.Budget {
	return budget.New(budget.WithMaxSteps(50_000_000), budget.WithCheckInterval(256))
}

func specs() []Spec {
	return []Spec{
		{Kind: KindCircuit, Circuit: "adder", Width: 4},
		{Kind: KindCircuit, Circuit: "comparator", Width: 4},
		{Kind: KindFSM, States: 5, Inputs: 2, Outputs: 2},
		{Kind: KindBus, Width: 8},
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Kind: "netlist"},
		{Kind: KindCircuit, Circuit: "adder", Width: 1},
		{Kind: KindCircuit, Circuit: "alu", Width: 4},
		{Kind: KindFSM, States: 1, Inputs: 1, Outputs: 1},
		{Kind: KindFSM, States: 4, Inputs: 9, Outputs: 1},
		{Kind: KindBus, Width: 64},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v: want error", s)
		} else if !hlerr.IsInput(err) {
			t.Errorf("spec %+v: error %v not typed input", s, err)
		}
	}
	for _, s := range specs() {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %+v: unexpected %v", s, err)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, s := range specs() {
		d1, w1, err := Build(s, 7, 128, 64)
		if err != nil {
			t.Fatalf("build %+v: %v", s, err)
		}
		d2, w2, err := Build(s, 7, 128, 64)
		if err != nil {
			t.Fatalf("rebuild %+v: %v", s, err)
		}
		s1, err := Score(testBudget(), d1, w1)
		if err != nil {
			t.Fatalf("score %+v: %v", s, err)
		}
		s2, err := Score(testBudget(), d2, w2)
		if err != nil {
			t.Fatalf("rescore %+v: %v", s, err)
		}
		if math.Float64bits(s1) != math.Float64bits(s2) {
			t.Errorf("spec %+v: baseline score %v != %v", s, s1, s2)
		}
		if s1 <= 0 {
			t.Errorf("spec %+v: suspicious baseline score %v", s, s1)
		}
	}
}

// TestScorePaths pins where Score's simulations run: the benchmark's
// four optimize-job circuits at width 8, baseline and retimed, on the
// unit-delay path (a silent fallback to the timing wheel would
// otherwise show only as a slower benchmark), and an FSM controller
// (5 state and input bits) on its (state, input) table. Each scores
// Float64bits-identically to sim.RunBudget and charges the same steps.
func TestScorePaths(t *testing.T) {
	check := func(label string, d *Design, w *Workload, kernel string, opts sim.Options) {
		t.Helper()
		bg, bw := testBudget(), testBudget()
		got, err := simulate(bg, d, w)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := sim.RunBudget(bw, d.Net, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if got.Kernel != kernel {
			t.Errorf("%s: kernel %q, want %q", label, got.Kernel, kernel)
		}
		if math.Float64bits(got.SwitchedCap) != math.Float64bits(want.SwitchedCap) || bg.StepsUsed() != bw.StepsUsed() {
			t.Errorf("%s: score %v in %d steps, sim.RunBudget %v in %d", label, got.SwitchedCap, bg.StepsUsed(), want.SwitchedCap, bw.StepsUsed())
		}
		if got.Outputs != nil || got.ByGroup != nil || got.Final != nil {
			t.Errorf("%s: lean run materialized outputs, groups or final values", label)
		}
	}
	ed := sim.Options{Model: sim.EventDriven, TrackClock: true, GateClock: true}
	for _, circuit := range []string{"adder", "carry-select", "subtractor", "comparator"} {
		d, w, err := Build(Spec{Kind: KindCircuit, Circuit: circuit, Width: 8}, 3, 256, 64)
		if err != nil {
			t.Fatal(err)
		}
		check(circuit, d, w, sim.KernelUnitDelay, ed)
		for seed := uint64(0); seed < 3; seed++ {
			rt, err := Apply(testBudget(), nil, d, w, "retime", seed)
			if err != nil {
				t.Fatalf("%s: retime: %v", circuit, err)
			}
			check(circuit+" retimed", rt, w, sim.KernelUnitDelay, ed)
		}
	}
	d, w, err := Build(Spec{Kind: KindFSM, States: 5, Inputs: 2, Outputs: 2}, 3, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	check("fsm", d, w, sim.KernelTable, sim.Options{TrackClock: true, GateClock: true})
}

// TestApplyAllPassesVerified applies every registered pass of each
// kind to its baseline design across several seeds: a pass either
// succeeds (with equivalence verified inside Apply, and the result
// scorable) or reports a typed not-applicable/pass error — it never
// panics and never silently corrupts behaviour.
func TestApplyAllPassesVerified(t *testing.T) {
	for _, s := range specs() {
		d, w, err := Build(s, 11, 96, 64)
		if err != nil {
			t.Fatalf("build %+v: %v", s, err)
		}
		applied := 0
		for _, name := range Vocabulary(s.Kind) {
			for seed := uint64(0); seed < 3; seed++ {
				out, err := Apply(testBudget(), nil, d, w, name, seed)
				if err != nil {
					var pe *PassError
					if !errors.As(err, &pe) {
						t.Errorf("%s on %+v: untyped error %v", name, s, err)
					}
					continue
				}
				applied++
				if _, err := Score(testBudget(), out, w); err != nil {
					t.Errorf("%s on %+v: result unscorable: %v", name, s, err)
				}
			}
		}
		if applied == 0 {
			t.Errorf("spec %+v: no pass applicable", s)
		}
	}
}

// TestApplySecondLevel chains a pass onto an already-transformed
// design (including latency-adding passes), exercising the shifted
// lockstep equivalence check.
func TestApplySecondLevel(t *testing.T) {
	s := Spec{Kind: KindCircuit, Circuit: "adder", Width: 3}
	d, w, err := Build(s, 3, 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	retimed, err := Apply(testBudget(), nil, d, w, "retime", 5)
	if err != nil {
		t.Fatalf("retime: %v", err)
	}
	if retimed.Latency != 1 {
		t.Fatalf("retime latency = %d, want 1", retimed.Latency)
	}
	if _, err := Apply(testBudget(), nil, retimed, w, "guard", 6); err != nil {
		var pe *PassError
		if !errors.As(err, &pe) || !errors.Is(err, ErrNotApplicable) {
			t.Fatalf("guard on retimed: %v", err)
		}
	}
}

func TestApplyUnknownAndWrongKind(t *testing.T) {
	s := Spec{Kind: KindBus, Width: 8}
	d, w, err := Build(s, 1, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Apply(testBudget(), nil, d, w, "no-such-pass", 0); err == nil {
		t.Fatal("unknown pass: want error")
	}
	if _, err := Apply(testBudget(), nil, d, w, "retime", 0); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("kind mismatch: got %v, want ErrNotApplicable", err)
	}
}

// registerTestPass registers p for the rest of the test and removes it
// from the registry at cleanup, so the test can run again in the same
// process (go test -count=N).
func registerTestPass(t *testing.T, p Pass) {
	t.Helper()
	Register(p)
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registry, p.Name)
	})
}

func TestApplyPanicContained(t *testing.T) {
	registerTestPass(t, Pass{Name: "zz-test-panic", Kind: KindBus,
		Apply: func(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
			panic("poisoned pass")
		}})
	d, w, err := Build(Spec{Kind: KindBus, Width: 8}, 1, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(testBudget(), nil, d, w, "zz-test-panic", 0)
	var pe *PassError
	if !errors.As(err, &pe) {
		t.Fatalf("panic not converted to PassError: %v", err)
	}
}

// TestVerifyCatchesBrokenPass registers a pass that silently inverts
// an output and checks the built-in equivalence gate rejects it.
func TestVerifyCatchesBrokenPass(t *testing.T) {
	registerTestPass(t, Pass{Name: "zz-test-broken", Kind: KindCircuit,
		Apply: func(b *budget.Budget, _ *memo.Cache, d *Design, rng *rand.Rand) (*Design, error) {
			out := *d
			net := d.Net.Clone()
			net.Outputs[0] = net.Add(logic.Not, net.Outputs[0])
			out.Net = net
			return &out, nil
		}})
	d, w, err := Build(Spec{Kind: KindCircuit, Circuit: "adder", Width: 3}, 2, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Apply(testBudget(), nil, d, w, "zz-test-broken", 0)
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("broken pass not caught by verification: %v", err)
	}
}

func TestBudgetTripDegradesPass(t *testing.T) {
	d, w, err := Build(Spec{Kind: KindCircuit, Circuit: "adder", Width: 4}, 2, 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	b := budget.New(budget.WithMaxSteps(10), budget.WithCheckInterval(4))
	_, err = Apply(b, nil, d, w, "retime", 1)
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("tiny budget: got %v, want budget.ErrExceeded", err)
	}
}

// TestLazySourceMatchesEager: a pass sees the same random stream from
// the lazily seeded source as from rand.NewSource, across the Rand
// methods that go through Int63, Uint64 and both, after a reseed, and
// on a generator recycled from an earlier source that drew; a pass that
// never draws never seeds.
func TestLazySourceMatchesEager(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		src := &lazySource{seed: seed}
		lazy := rand.New(src)
		eager := rand.New(rand.NewSource(seed))
		for round := 0; round < 2; round++ {
			for i := 0; i < 50; i++ {
				if a, b := lazy.Intn(97), eager.Intn(97); a != b {
					t.Fatalf("seed %d Intn: %d != %d", seed, a, b)
				}
				if a, b := lazy.Uint64(), eager.Uint64(); a != b {
					t.Fatalf("seed %d Uint64: %d != %d", seed, a, b)
				}
				if a, b := lazy.Float64(), eager.Float64(); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("seed %d Float64: %v != %v", seed, a, b)
				}
			}
			if a, b := lazy.Perm(9), eager.Perm(9); !slices.Equal(a, b) {
				t.Fatalf("seed %d Perm: %v != %v", seed, a, b)
			}
			lazy.Seed(seed + 1)
			eager.Seed(seed + 1)
		}
		src.release()
	}
	src := &lazySource{seed: 3}
	_ = rand.New(src)
	if src.src != nil {
		t.Fatal("constructing the Rand seeded the generator")
	}
}
