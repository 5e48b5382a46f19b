package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/memo"
	"hlpower/internal/sim"
)

func ctxBG() context.Context { return context.Background() }

// Two calls with equal requests must be bit-identical — the property
// cluster mode's whole-request forwarding relies on.
func TestSimulateDeterministic(t *testing.T) {
	var svc Local
	req := SimulateRequest{Circuit: "adder", Width: 6, Cycles: 200, Seed: 11}
	a, err := svc.Simulate(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Simulate(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a.Power()) != math.Float64bits(b.Power()) {
		t.Fatalf("repeat simulate diverged: %v vs %v", a.Power(), b.Power())
	}
	if a.Power() <= 0 {
		t.Fatalf("power %v, want > 0", a.Power())
	}
}

// Every simulate runs on one shard, whatever Workers says: the result
// bits, the execution metadata and the content key are those of a
// one-worker request, and a request naming many workers allocates no
// more than a one-worker one (no per-shard scratch, budget forks or
// shard goroutines). Sharded at 1,000 workers, this multiplier/16
// 20,000-cycle request would cut 625 shards.
func TestSimulateIgnoresWorkers(t *testing.T) {
	svc := Local{CodegenAfter: -1} // no background promotion builds
	var k Keys
	base := SimulateRequest{Circuit: "multiplier", Width: 16, Cycles: 20_000, Seed: 7, Workers: 1}
	ref, err := svc.Simulate(ctxBG(), nil, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 3, 1000} {
		req := base
		req.Workers = w
		res, err := svc.Simulate(ctxBG(), nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if d := resultBitsDiff(ref, res); d != "" {
			t.Errorf("workers=%d: %s", w, d)
		}
		if k.Simulate(req) != k.Simulate(base) {
			t.Errorf("workers=%d changed the simulate key", w)
		}
	}

	// Each measured run starts from an empty scratch pool (two GCs drop
	// sync.Pool contents), so both sides pay the same refill and no GC
	// runs inside the measurement. The 1.5x slack absorbs run-to-run
	// noise; a 625-shard split allocates over 40x the bytes.
	many := base
	many.Workers = 1000
	cost := func(req SimulateRequest) (bytes, objs uint64) {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := svc.Simulate(ctxBG(), nil, req); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	oneB, oneO := cost(base)
	manyB, manyO := cost(many)
	if manyB > oneB*3/2 || manyO > oneO*3/2 {
		t.Errorf("1000 workers allocated %d B in %d objects, 1 worker %d B in %d objects", manyB, manyO, oneB, oneO)
	}
}

// resultBitsDiff describes the first difference between two results'
// figures (compared as Float64bits) and execution metadata, or returns
// "" when they are identical.
func resultBitsDiff(a, b *sim.Result) string {
	switch {
	case a.Cycles != b.Cycles || a.Shards != b.Shards || a.Fallback != b.Fallback || a.Kernel != b.Kernel:
		return fmt.Sprintf("metadata %d/%d/%q/%q, want %d/%d/%q/%q",
			b.Cycles, b.Shards, b.Fallback, b.Kernel, a.Cycles, a.Shards, a.Fallback, a.Kernel)
	case math.Float64bits(a.SwitchedCap) != math.Float64bits(b.SwitchedCap),
		math.Float64bits(a.Power()) != math.Float64bits(b.Power()):
		return fmt.Sprintf("power %v, want %v", b.Power(), a.Power())
	case !slices.Equal(a.Toggles, b.Toggles):
		return "toggle counts differ"
	case len(a.PerCycleCap) != len(b.PerCycleCap):
		return "per-cycle capacitance lengths differ"
	}
	for i := range a.PerCycleCap {
		if math.Float64bits(a.PerCycleCap[i]) != math.Float64bits(b.PerCycleCap[i]) {
			return fmt.Sprintf("per-cycle capacitance differs at cycle %d", i)
		}
	}
	return ""
}

// Malformed requests surface as hlerr input errors from every
// operation, so each transport maps them to its 400-equivalent the
// same way.
func TestInputErrors(t *testing.T) {
	var svc Local
	cases := []struct {
		name string
		call func() error
	}{
		{"unknown circuit", func() error {
			_, err := svc.Simulate(ctxBG(), nil, SimulateRequest{Circuit: "nand-farm", Width: 4, Cycles: 16})
			return err
		}},
		{"width too small", func() error {
			_, err := svc.Simulate(ctxBG(), nil, SimulateRequest{Circuit: "adder", Width: 1, Cycles: 16})
			return err
		}},
		{"width too large", func() error {
			_, err := svc.Simulate(ctxBG(), nil, SimulateRequest{Circuit: "adder", Width: MaxWidth + 1, Cycles: 16})
			return err
		}},
		{"cycles out of range", func() error {
			_, err := svc.Simulate(ctxBG(), nil, SimulateRequest{Circuit: "adder", Width: 4, Cycles: MaxCycles + 1})
			return err
		}},
		{"rank cycles", func() error {
			_, err := svc.Rank(ctxBG(), nil, RankRequest{Width: 4, Cycles: 0})
			return err
		}},
		{"bdd unknown function", func() error {
			_, err := svc.BDD(ctxBG(), nil, BDDRequest{Function: "xor3", Vars: 3}, nil)
			return err
		}},
		{"bdd vars out of range", func() error {
			_, err := svc.BDD(ctxBG(), nil, BDDRequest{Function: "parity", Vars: MaxBDDVars + 1}, nil)
			return err
		}},
		{"predict unknown model", func() error {
			_, err := svc.Predict(ctxBG(), nil, PredictRequest{Circuit: "adder", Width: 4, Model: "oracle", Train: 16, Eval: 16})
			return err
		}},
		{"predict bad circuit", func() error {
			_, err := svc.Predict(ctxBG(), nil, PredictRequest{Circuit: "flux", Width: 4, Model: "pfa", Train: 16, Eval: 16})
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		var ie *hlerr.InputError
		if !errors.As(err, &ie) {
			t.Errorf("%s: %v is not an input error", tc.name, err)
		}
	}
}

// Rank evaluates the fixed candidate set, picks the lowest power, and
// is deterministic across calls.
func TestRankDeterministicAndOrdered(t *testing.T) {
	var svc Local
	req := RankRequest{Width: 5, Cycles: 120, Seed: 3}
	a, err := svc.Rank(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Ranking) != 3 {
		t.Fatalf("ranking has %d entries, want 3", len(a.Ranking))
	}
	for i := 1; i < len(a.Ranking); i++ {
		if a.Ranking[i].Power < a.Ranking[i-1].Power {
			t.Fatalf("ranking not sorted: %v", a.Ranking)
		}
	}
	if a.Best != a.Ranking[0].Name {
		t.Fatalf("best %q != first-ranked %q", a.Best, a.Ranking[0].Name)
	}
	b, err := svc.Rank(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Ranking {
		if math.Float64bits(a.Ranking[i].Power) != math.Float64bits(b.Ranking[i].Power) {
			t.Fatalf("repeat rank diverged at %s", a.Ranking[i].Name)
		}
	}
}

// BDD returns the exact node count when the budget allows, a sampled
// degraded estimate when the request permits it, and a budget error
// otherwise. Degraded outcomes are flagged so callers never cache them.
func TestBDDDegradedContract(t *testing.T) {
	var svc Local
	req := BDDRequest{Function: "majority", Vars: 9}
	exact, err := svc.BDD(ctxBG(), nil, req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Degraded || exact.Nodes <= 0 {
		t.Fatalf("exact build: %+v", exact)
	}

	tight := func() *budget.Budget {
		return budget.New(budget.WithMaxNodes(4), budget.WithCheckInterval(1))
	}
	if _, err := svc.BDD(ctxBG(), tight(), req, nil); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("strict request under tight budget: %v, want ErrExceeded", err)
	}
	req.AllowDegraded = true
	deg, err := svc.BDD(ctxBG(), tight(), req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || deg.Nodes <= 0 {
		t.Fatalf("degraded build: %+v", deg)
	}
}

// Predict's error metric is consistent: AbsErrPct recomputes from the
// predicted and measured figures it reports.
func TestPredictSelfConsistent(t *testing.T) {
	var svc Local
	resp, err := svc.Predict(ctxBG(), nil, PredictRequest{
		Circuit: "adder", Width: 4, Model: "pfa", Train: 64, Eval: 64, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Measured <= 0 {
		t.Fatalf("measured %v, want > 0", resp.Measured)
	}
	want := 100 * math.Abs(resp.Predicted-resp.Measured) / resp.Measured
	if math.Abs(resp.AbsErrPct-want) > 1e-9 {
		t.Fatalf("abs_err_pct %v inconsistent with predicted/measured (want %v)", resp.AbsErrPct, want)
	}
}

// Content keys separate everything budget- or result-relevant: every
// request field the service reads, the endpoint, and the server's step
// allowance.
func TestKeysSensitivity(t *testing.T) {
	k := Keys{MaxSteps: 1000}
	base := SimulateRequest{Circuit: "adder", Width: 4, Cycles: 64, Seed: 1, Workers: 2}
	keys := map[memo.Key]string{k.Simulate(base): "base"}
	add := func(name string, key memo.Key) {
		if prev, dup := keys[key]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		keys[key] = name
	}
	for _, m := range []struct {
		name string
		req  SimulateRequest
	}{
		{"circuit", SimulateRequest{Circuit: "subtractor", Width: 4, Cycles: 64, Seed: 1, Workers: 2}},
		{"width", SimulateRequest{Circuit: "adder", Width: 5, Cycles: 64, Seed: 1, Workers: 2}},
		{"cycles", SimulateRequest{Circuit: "adder", Width: 4, Cycles: 65, Seed: 1, Workers: 2}},
		{"seed", SimulateRequest{Circuit: "adder", Width: 4, Cycles: 64, Seed: 2, Workers: 2}},
	} {
		add("simulate/"+m.name, k.Simulate(m.req))
	}
	// Workers is ignored by the service, so it is not keyed.
	if k.Simulate(SimulateRequest{Circuit: "adder", Width: 4, Cycles: 64, Seed: 1, Workers: 3}) != k.Simulate(base) {
		t.Error("workers changed the simulate key")
	}
	// A reconfigured server is a different service: MaxSteps is keyed.
	add("maxsteps", Keys{MaxSteps: 2000}.Simulate(base))

	rr := RankRequest{Width: 4, Cycles: 64, Seed: 1}
	add("rank", k.Rank(rr))

	// Same (tt, vars) → same key regardless of the function name that
	// produced it; different vars → different key.
	ttMaj, err := TruthTable("majority", 1)
	if err != nil {
		t.Fatal(err)
	}
	ttAnd, err := TruthTable("and", 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.BDD(ttMaj, 1) != k.BDD(ttAnd, 1) {
		t.Error("equivalent truth tables keyed differently")
	}
	add("bdd", k.BDD(ttMaj, 1))

	add("predict", k.Predict(PredictRequest{Circuit: "adder", Width: 4, Model: "pfa", Train: 16, Eval: 16, Seed: 1}))
	add("predict/model", k.Predict(PredictRequest{Circuit: "adder", Width: 4, Model: "dbt", Train: 16, Eval: 16, Seed: 1}))
}
