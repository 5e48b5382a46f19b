package sim_test

import (
	"errors"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/recipe"
	"hlpower/internal/sim"
)

// TestJobDesignsTakeWordPaths: every design the optimize-jobs
// benchmark verifies runs on a word path of sim.Outputs, never on the
// RunBudget fallback, and every controller it scores runs on the table
// kernel, never on the interpreted engine; either fallback would show
// only as a slower benchmark. The designs are the four width-8
// circuits, baseline and retimed, and the 4-state, 1-input, 2-output
// controller under every encoding, with and without a gated clock.
func TestJobDesignsTakeWordPaths(t *testing.T) {
	check := func(d *recipe.Design, label string) {
		t.Helper()
		if got := sim.OutputsPath(d.Net); got == sim.PathRun {
			t.Errorf("%s: Outputs takes the %s path", label, got)
		}
	}
	// recipe.Score's controller run (TestScorePaths pins its options).
	checkScore := func(d *recipe.Design, w *recipe.Workload, label string) {
		t.Helper()
		c, err := sim.Compile(d.Net, sim.Options{TrackClock: true, GateClock: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		res, err := c.Run(nil, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), sim.RunOptions{Workers: 1, Lean: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Kernel != sim.KernelTable {
			t.Errorf("%s: scores on the %q kernel, want %q", label, res.Kernel, sim.KernelTable)
		}
	}
	apply := func(d *recipe.Design, w *recipe.Workload, pass string, seed uint64) *recipe.Design {
		t.Helper()
		next, err := recipe.Apply(budget.New(), nil, d, w, pass, seed)
		if errors.Is(err, recipe.ErrNotApplicable) {
			return nil
		}
		if err != nil {
			t.Fatalf("%s: %v", pass, err)
		}
		return next
	}
	for _, circuit := range []string{"adder", "carry-select", "subtractor", "comparator"} {
		d, w, err := recipe.Build(recipe.Spec{Kind: recipe.KindCircuit, Circuit: circuit, Width: 8}, 1, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		check(d, circuit)
		for seed := uint64(0); seed < 4; seed++ {
			check(apply(d, w, "retime", seed), circuit+" retime")
		}
	}
	encodings := []string{"enc-binary", "enc-gray", "enc-one-hot", "enc-random", "enc-low-power"}
	for seed := int64(1); seed <= 8; seed++ {
		d, w, err := recipe.Build(recipe.Spec{Kind: recipe.KindFSM, States: 4, Inputs: 1, Outputs: 2}, seed, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		gated := apply(d, w, "clock-gate", 0)
		for _, base := range []*recipe.Design{d, gated} {
			check(base, "fsm")
			checkScore(base, w, "fsm")
			for _, enc := range encodings {
				if next := apply(base, w, enc, uint64(seed)); next != nil {
					check(next, "fsm "+enc)
					checkScore(next, w, "fsm "+enc)
				}
			}
		}
	}
}
