package sim_test

import (
	"errors"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/recipe"
	"hlpower/internal/sim"
)

// TestJobDesignsTakeWordPaths: every design the optimize-jobs
// benchmark verifies and scores is compiled, under recipe.Score's
// options, into an artifact whose Outputs take a word path and whose
// lean runs take a packed kernel: circuits the unit-delay program's
// feed-forward settle and the unit-delay kernel, controllers the
// (state, input) table. A fallback to RunBudget or to the interpreted
// engines would show only as a slower benchmark. The designs are the
// four width-8 circuits, baseline and retimed, and the 4-state,
// 1-input, 2-output controller under every encoding, with and without
// a gated clock.
func TestJobDesignsTakeWordPaths(t *testing.T) {
	// recipe.Score's options (TestScorePaths pins the kernels its kept
	// artifacts run on).
	circuit := sim.Options{Model: sim.EventDriven, TrackClock: true, GateClock: true}
	controller := sim.Options{TrackClock: true, GateClock: true}
	check := func(d *recipe.Design, w *recipe.Workload, opts sim.Options, path, kernel, label string) {
		t.Helper()
		c, err := sim.Compile(d.Net, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got := sim.OutputsPath(c); got != path {
			t.Errorf("%s: Outputs takes the %s path, want %s", label, got, path)
		}
		res, err := c.Run(nil, sim.VectorInputs(w.EvalVecs), len(w.EvalVecs), sim.RunOptions{Workers: 1, Lean: true})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if res.Kernel != kernel {
			t.Errorf("%s: scores on the %q kernel, want %q", label, res.Kernel, kernel)
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
	for _, name := range []string{"adder", "carry-select", "subtractor", "comparator"} {
		d, w, err := recipe.Build(recipe.Spec{Kind: recipe.KindCircuit, Circuit: name, Width: 8}, 1, 64, 64)
		if err != nil {
			t.Fatal(err)
		}
		check(d, w, circuit, sim.PathFeedForward, sim.KernelUnitDelay, name)
		for seed := uint64(0); seed < 4; seed++ {
			check(apply(d, w, "retime", seed), w, circuit, sim.PathFeedForward, sim.KernelUnitDelay, name+" retime")
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
			check(base, w, controller, sim.PathTable, sim.KernelTable, "fsm")
			for _, enc := range encodings {
				if next := apply(base, w, enc, uint64(seed)); next != nil {
					check(next, w, controller, sim.PathTable, sim.KernelTable, "fsm "+enc)
				}
			}
		}
	}
}
