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

// TestScorePaths pins where Score's simulations run: the artifact a
// design keeps takes, for the benchmark's four optimize-job circuits
// at width 8, baseline and retimed, the unit-delay path (a silent
// fallback to the timing wheel would otherwise show only as a slower
// benchmark), and for an FSM controller (5 state and input bits) its
// (state, input) table. Each scores Float64bits-identically to
// sim.RunBudget and charges the same steps.
func TestScorePaths(t *testing.T) {
	check := func(label string, d *Design, w *Workload, kernel string, opts sim.Options) {
		t.Helper()
		if d.art == nil {
			t.Fatalf("%s: no kept artifact", label)
		}
		run, err := d.art.Run(nil, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), sim.RunOptions{Workers: 1, Lean: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if run.Kernel != kernel {
			t.Errorf("%s: kernel %q, want %q", label, run.Kernel, kernel)
		}
		if run.Outputs != nil || run.ByGroup != nil || run.Final != nil {
			t.Errorf("%s: lean run materialized outputs, groups or final values", label)
		}
		bg, bw := testBudget(), testBudget()
		got, err := Score(bg, d, w)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		want, err := sim.RunBudget(bw, d.Net, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		if math.Float64bits(got) != math.Float64bits(want.SwitchedCap) || bg.StepsUsed() != bw.StepsUsed() {
			t.Errorf("%s: score %v in %d steps, sim.RunBudget %v in %d", label, got, bg.StepsUsed(), want.SwitchedCap, bw.StepsUsed())
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

// TestDesignKeepsItsArtifact: a design Build or Apply makes keeps its
// netlist compiled under Score's options, and Verify and Score run
// that artifact without compiling again; a copy whose Net was
// replaced never runs on the old artifact.
func TestDesignKeepsItsArtifact(t *testing.T) {
	cd, cw, err := Build(Spec{Kind: KindCircuit, Circuit: "adder", Width: 4}, 3, 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	retimed, err := Apply(testBudget(), nil, cd, cw, "retime", 1)
	if err != nil {
		t.Fatal(err)
	}
	fd, fw, err := Build(Spec{Kind: KindFSM, States: 4, Inputs: 1, Outputs: 2}, 3, 96, 64)
	if err != nil {
		t.Fatal(err)
	}
	gray, err := Apply(testBudget(), nil, fd, fw, "enc-gray", 1)
	if err != nil {
		t.Fatal(err)
	}
	score := func(label string, d *Design, w *Workload) float64 {
		t.Helper()
		s, err := Score(testBudget(), d, w)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return s
	}
	for _, tc := range []struct {
		label string
		d     *Design
		w     *Workload
	}{
		{"adder", cd, cw}, {"adder retimed", retimed, cw},
		{"fsm", fd, fw}, {"fsm enc-gray", gray, fw},
	} {
		d, w := tc.d, tc.w
		if d.art == nil || d.art.Netlist() != d.Net {
			t.Fatalf("%s: no artifact of its netlist kept", tc.label)
		}
		if art, err := d.artifact(); err != nil || art != d.art {
			t.Fatalf("%s: compiled again (%v)", tc.label, err)
		}
		// Circuit artifacts take the unit-delay program on both paths,
		// which draw one pooled scratch each.
		gets, _ := d.art.ScratchStats()
		if err := Verify(testBudget(), d, w); err != nil {
			t.Fatalf("%s: %v", tc.label, err)
		}
		want := score(tc.label, d, w)
		if after, _ := d.art.ScratchStats(); d.Kind == KindCircuit && after != gets+2 {
			t.Fatalf("%s: Verify and Score drew %d scratches from the kept artifact, want 2", tc.label, after-gets)
		}
		// Score reads whatever artifact of its Net the design keeps.
		swapped := *d
		if swapped.art, err = sim.Compile(d.Net, sim.Options{}); err != nil {
			t.Fatal(err)
		}
		res, err := swapped.art.Run(nil, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), sim.RunOptions{Workers: 1, Lean: true})
		if err != nil {
			t.Fatal(err)
		}
		if got := score(tc.label, &swapped, w); math.Float64bits(got) != math.Float64bits(res.SwitchedCap) || got == want {
			t.Fatalf("%s: score %v on a swapped artifact, its run %v, the kept one's %v", tc.label, got, res.SwitchedCap, want)
		}
		// A copy with an equal but replaced netlist scores and verifies
		// alike on a fresh artifact; one with a flipped gate fails.
		gets, _ = d.art.ScratchStats()
		same := *d
		same.Net = d.Net.Clone()
		if err := Verify(testBudget(), &same, w); err != nil {
			t.Fatalf("%s copy: %v", tc.label, err)
		}
		if got := score(tc.label+" copy", &same, w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s copy: score %v, want %v", tc.label, got, want)
		}
		broken := *d
		broken.Net = d.Net.Clone()
		breakings[0].mut(&broken)
		var ve *VerifyError
		if err := Verify(testBudget(), &broken, w); !errors.As(err, &ve) {
			t.Fatalf("%s with a flipped gate: got %v, want a VerifyError", tc.label, err)
		}
		if after, _ := d.art.ScratchStats(); after != gets {
			t.Fatalf("%s: copies drew %d scratches from the old artifact", tc.label, after-gets)
		}
	}
}

// TestVerifyRejectsUncheckedLatency: a design whose latency leaves no
// verification cycle to compare fails, however wrong its netlist. An
// adder whose XOR gates all became ANDs fails at latency 0 and used to
// pass unchecked at latency 2 over 2 verification cycles.
func TestVerifyRejectsUncheckedLatency(t *testing.T) {
	d, w, err := Build(Spec{Kind: KindCircuit, Circuit: "adder", Width: 4}, 1, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	broken := *d
	broken.Net = d.Net.Clone()
	for id := range broken.Net.Gates {
		if broken.Net.Gates[id].Kind == logic.Xor {
			broken.Net.Gates[id].Kind = logic.And
		}
	}
	var ve *VerifyError
	if err := Verify(testBudget(), &broken, w); !errors.As(err, &ve) || ve.Cycle != 0 {
		t.Fatalf("latency 0: got %v, want a VerifyError at cycle 0", err)
	}
	for _, lat := range []int{-1, 2, 3} {
		for _, cand := range []Design{broken, *d} {
			cand.Latency = lat
			if err := Verify(testBudget(), &cand, w); !errors.As(err, &ve) {
				t.Fatalf("latency %d over 2 cycles: got %v, want a VerifyError", lat, err)
			}
		}
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
