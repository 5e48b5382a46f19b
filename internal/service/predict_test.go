package service

import (
	"errors"
	"math"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/memo"
)

// gateSteps is the budget charge of one simulated cycle of a circuit:
// a single-shard run of n cycles charges n times it.
func gateSteps(t *testing.T, svc *Local, circuit string, width int) int64 {
	t.Helper()
	b := budget.New()
	if _, err := svc.Simulate(ctxBG(), b, SimulateRequest{Circuit: circuit, Width: width, Cycles: 100, Seed: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	return b.StepsUsed() / 100
}

// TestPredictChargesEveryStage: predict charges the request budget for
// the training trace, the evaluation trace (a replay from the estimate
// cache charges what the run it replaces would) and the io model's
// functional-output evaluation of both streams — and a budget that
// covers the traces but not the io evaluation fails typed.
func TestPredictChargesEveryStage(t *testing.T) {
	var plain Local
	cache := memo.New(memo.Options{})
	cached := Local{Cache: func() *memo.Cache { return cache }}
	per := gateSteps(t, &plain, "carry-select", 9)
	req := PredictRequest{Circuit: "carry-select", Width: 9, Train: 300, Eval: 200, Seed: 4}
	traces := int64(req.Train+req.Eval) * per
	for _, tc := range []struct {
		svc   *Local
		model string
		want  int64
	}{
		{&plain, "pfa", traces},
		{&plain, "io", 2 * traces},
		{&cached, "dbt", traces},     // evaluation trace computed and stored
		{&cached, "bitwise", traces}, // … then replayed with its charge
		{&cached, "io", 2 * traces},  // replayed, plus both output evaluations
	} {
		req.Model = tc.model
		b := budget.New()
		if _, err := tc.svc.Predict(ctxBG(), b, req); err != nil {
			t.Fatal(err)
		}
		if got := b.StepsUsed(); got != tc.want {
			t.Errorf("%s: charged %d steps, want %d", tc.model, got, tc.want)
		}
	}

	req.Model = "pfa"
	if _, err := plain.Predict(ctxBG(), budget.New(budget.WithMaxSteps(traces)), req); err != nil {
		t.Fatalf("pfa within a traces-only budget: %v", err)
	}
	req.Model = "io"
	_, err := plain.Predict(ctxBG(), budget.New(budget.WithMaxSteps(traces)), req)
	var ex *budget.Exceeded
	if !errors.As(err, &ex) || ex.Resource != "steps" {
		t.Fatalf("io over a traces-only budget: got %v, want a typed steps error", err)
	}
}

// TestPredictTrainingHonorsDeadline is the regression test for training
// work that ignored the request budget: a huge io training stream under
// a short deadline fails with the typed deadline error at the first
// check after the deadline (plus scheduling slack), instead of running
// the whole training characterization first.
func TestPredictTrainingHonorsDeadline(t *testing.T) {
	var svc Local
	req := PredictRequest{Circuit: "multiplier", Width: 16, Model: "io", Train: MaxCycles, Eval: 2, Seed: 1}
	if _, err := svc.artifactFor(req.Circuit, req.Width); err != nil {
		t.Fatal(err) // compile outside the timed region
	}
	const deadline = 50 * time.Millisecond
	start := time.Now()
	_, err := svc.Predict(ctxBG(), budget.New(budget.WithTimeout(deadline)), req)
	elapsed := time.Since(start)
	var ex *budget.Exceeded
	if !errors.As(err, &ex) || ex.Resource != "deadline" {
		t.Fatalf("got %v, want a typed deadline error", err)
	}
	if elapsed > deadline+250*time.Millisecond {
		t.Fatalf("returned after %v, want within the %v deadline plus one check", elapsed, deadline)
	}
}

// TestFaultArmedPredictBypassesMemoAndCodegen: a predict under an armed
// fault plan never reads or writes the estimate cache, runs both
// ground-truth traces on the fused tier of a promoted artifact, and
// still answers bit-identically to a healthy request.
func TestFaultArmedPredictBypassesMemoAndCodegen(t *testing.T) {
	cache := memo.New(memo.Options{})
	svc := Local{CodegenAfter: 1, Cache: func() *memo.Cache { return cache }}
	if _, err := svc.Simulate(ctxBG(), nil, SimulateRequest{Circuit: "adder", Width: 7, Cycles: 100, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion", func() bool { return svc.KernelStats().Promotions == 1 })

	req := PredictRequest{Circuit: "adder", Width: 7, Model: "io", Train: 130, Eval: 70, Seed: 5}
	armed := budget.New(budget.WithFaultPlan(budget.FaultPlan{FailAtCheck: 1 << 40}))
	before, memoBefore := svc.KernelStats(), cache.Stats()
	faulted, err := svc.Predict(ctxBG(), armed, req)
	if err != nil {
		t.Fatal(err)
	}
	after := svc.KernelStats()
	if got := cache.Stats(); got != memoBefore {
		t.Fatalf("fault-armed predict touched the memo: %+v -> %+v", memoBefore, got)
	}
	if after.Tiers["codegen"] != before.Tiers["codegen"] || after.Tiers["fused"] != before.Tiers["fused"]+2 {
		t.Fatalf("fault-armed predict tiers %v -> %v, want two more fused runs and no codegen", before.Tiers, after.Tiers)
	}
	if after.Hotness["adder/7"] != before.Hotness["adder/7"] {
		t.Fatalf("fault-armed predict advanced hotness: %v -> %v", before.Hotness, after.Hotness)
	}

	healthy, err := svc.Predict(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if svc.KernelStats().Tiers["codegen"] != after.Tiers["codegen"]+2 {
		t.Fatalf("healthy predict did not run on the promoted tier: %v", svc.KernelStats().Tiers)
	}
	if math.Float64bits(faulted.Predicted) != math.Float64bits(healthy.Predicted) ||
		math.Float64bits(faulted.Measured) != math.Float64bits(healthy.Measured) {
		t.Fatalf("tier changed the numbers: %+v vs %+v", faulted, healthy)
	}
}

// TestTruthTableMatchesNaive compares every function against its
// per-bit definition for every supported variable count, and checks
// the input errors.
func TestTruthTableMatchesNaive(t *testing.T) {
	naive := map[string]func(ones, n int) bool{
		"parity":   func(ones, n int) bool { return ones%2 == 1 },
		"majority": func(ones, n int) bool { return 2*ones > n },
		"and":      func(ones, n int) bool { return ones == n },
	}
	for fn, def := range naive {
		for n := 1; n <= MaxBDDVars; n++ {
			tt, err := TruthTable(fn, n)
			if err != nil {
				t.Fatal(err)
			}
			if len(tt) != 1<<n {
				t.Fatalf("%s/%d: %d entries, want %d", fn, n, len(tt), 1<<n)
			}
			for i, got := range tt {
				ones := 0
				for b := 0; b < n; b++ {
					if i>>b&1 == 1 {
						ones++
					}
				}
				if want := def(ones, n); got != want {
					t.Fatalf("%s/%d: entry %d (%d ones) = %v, want %v", fn, n, i, ones, got, want)
				}
			}
		}
	}
	for _, tc := range []struct {
		fn string
		n  int
	}{{"parity", 0}, {"majority", MaxBDDVars + 1}, {"and", -1}, {"xor", 4}, {"", 1}} {
		if _, err := TruthTable(tc.fn, tc.n); !hlerr.IsInput(err) {
			t.Errorf("TruthTable(%q, %d): got %v, want an input error", tc.fn, tc.n, err)
		}
	}
}
