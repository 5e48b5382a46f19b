package jobs

import (
	"math"
	"reflect"
	"testing"

	"hlpower/internal/memo"
	"hlpower/internal/recipe"
)

// jobOutcome is the part of a finished job's status that candidate
// scoring determines: the search's best recipe and score, the baseline
// score, the budget accounting and the degradation count.
type jobOutcome struct {
	BestRecipe []string
	BestScore  uint64 // math.Float64bits
	BaseScore  uint64 // math.Float64bits
	StepsUsed  int64
	Evaluated  int64
	Degraded   int64
}

// pinnedJobs are the optimize-jobs benchmark's job designs (four
// circuits at width 8, a 4-state controller, 8- and 16-bit buses) plus
// the width-4 multiplier, at powerd's job defaults. Each circuit runs
// at a seed whose search scores at least one transformed candidate.
// limit, when set, replaces the 50M-step per-candidate allowance with
// one that lets the baseline finish but trips inside the scoring (or,
// for the controller and buses, the pass) work of some candidates.
// This binary's init adds two fault-injection passes to the circuit
// vocabulary, so the circuit rows pin a six-pass search, not the
// four-pass one powerd runs; TestPinnedJobOutcomesProduction in
// internal/powerd pins the same designs on the production vocabulary.
//
// The want values were recorded from the map-scheduled event-driven
// engine and the eagerly seeded pass RNG that preceded the timing
// wheel and the lazy source. A job's scores are sums of
// floating-point loads taken in the engine's event order, so any
// drift in that order, in the budget's check sequence or in a pass's
// random draws shows up here as a changed bit.
var pinnedJobs = []pinnedJob{
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "adder", Width: 8}, seed: 41, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40d3ee3999999996, BaseScore: 0x40d3ee3999999996,
		StepsUsed: 80066, Evaluated: 32, Degraded: 31}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "adder", Width: 8}, seed: 41, limit: 26000, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40d3ee3999999996, BaseScore: 0x40d3ee3999999996,
		StepsUsed: 78121, Evaluated: 32, Degraded: 32}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "carry-select", Width: 8}, seed: 45, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40ddb6f999999997, BaseScore: 0x40ddb6f999999997,
		StepsUsed: 116069, Evaluated: 32, Degraded: 31}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "carry-select", Width: 8}, seed: 45, limit: 37000, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40ddb6f999999997, BaseScore: 0x40ddb6f999999997,
		StepsUsed: 112853, Evaluated: 32, Degraded: 32}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "subtractor", Width: 8}, seed: 49, want: jobOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40dcdfacccccccd1, BaseScore: 0x40dec2b999999995,
		StepsUsed: 212862, Evaluated: 32, Degraded: 28}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "subtractor", Width: 8}, seed: 49, limit: 30000, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40dec2b999999995, BaseScore: 0x40dec2b999999995,
		StepsUsed: 91305, Evaluated: 32, Degraded: 32}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "comparator", Width: 8}, seed: 51, want: jobOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40d6c62cccccccc8, BaseScore: 0x40d6c8e000000000,
		StepsUsed: 196244, Evaluated: 32, Degraded: 28}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "comparator", Width: 8}, seed: 51, limit: 27000, want: jobOutcome{
		BestRecipe: nil, BestScore: 0x40d6c8e000000000, BaseScore: 0x40d6c8e000000000,
		StepsUsed: 82492, Evaluated: 32, Degraded: 32}},
	{spec: recipe.Spec{Kind: recipe.KindFSM, States: 4, Inputs: 1, Outputs: 2}, seed: 52, want: jobOutcome{
		BestRecipe: []string{"enc-random"}, BestScore: 0x40a5630000000000, BaseScore: 0x40a679333333333d,
		StepsUsed: 273084, Evaluated: 32, Degraded: 15}},
	{spec: recipe.Spec{Kind: recipe.KindFSM, States: 4, Inputs: 1, Outputs: 2}, seed: 52, limit: 12000, want: jobOutcome{
		BestRecipe: []string{"enc-random"}, BestScore: 0x40a5630000000000, BaseScore: 0x40a679333333333d,
		StepsUsed: 218676, Evaluated: 32, Degraded: 21}},
	{spec: recipe.Spec{Kind: recipe.KindBus, Width: 8}, seed: 53, want: jobOutcome{
		BestRecipe: []string{"bus-bus-invert", "bus-t0", "bus-binary", "bus-t0-bi"}, BestScore: 0x408614cccccccccd, BaseScore: 0x408b180000000000,
		StepsUsed: 25344, Evaluated: 32, Degraded: 9}},
	{spec: recipe.Spec{Kind: recipe.KindBus, Width: 8}, seed: 53, limit: 800, want: jobOutcome{
		BestRecipe: []string{"bus-t0-bi"}, BestScore: 0x408614cccccccccd, BaseScore: 0x408b180000000000,
		StepsUsed: 17408, Evaluated: 32, Degraded: 17}},
	{spec: recipe.Spec{Kind: recipe.KindBus, Width: 16}, seed: 54, want: jobOutcome{
		BestRecipe: []string{"bus-gray", "bus-t0-bi"}, BestScore: 0x40975a6666666666, BaseScore: 0x409aac0000000000,
		StepsUsed: 20992, Evaluated: 32, Degraded: 9}},
	{spec: recipe.Spec{Kind: recipe.KindBus, Width: 16}, seed: 54, limit: 800, want: jobOutcome{
		BestRecipe: []string{"bus-gray", "bus-t0-bi"}, BestScore: 0x40975a6666666666, BaseScore: 0x409aac0000000000,
		StepsUsed: 18464, Evaluated: 32, Degraded: 18}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "multiplier", Width: 4}, seed: 35, want: jobOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40e11ccffffffffc, BaseScore: 0x40e2849333333336,
		StepsUsed: 1517073, Evaluated: 32, Degraded: 25}},
	{spec: recipe.Spec{Kind: recipe.KindCircuit, Circuit: "multiplier", Width: 4}, seed: 35, limit: 175000, want: jobOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40e11ccffffffffc, BaseScore: 0x40e2849333333336,
		StepsUsed: 1385570, Evaluated: 32, Degraded: 30}},
}

type pinnedJob struct {
	spec  recipe.Spec
	seed  int64
	limit int64
	want  jobOutcome
}

func (pj pinnedJob) params() Params {
	steps := int64(50_000_000)
	if pj.limit > 0 {
		steps = pj.limit
	}
	return Params{
		Spec:          pj.spec,
		Seed:          pj.seed,
		Candidates:    32,
		EvalCycles:    256,
		VerifyCycles:  128,
		MaxRecipeLen:  4,
		EvalSteps:     steps,
		CheckInterval: 1024,
	}
}

// runJobOutcome runs one job to completion on a fresh manager, with or
// without a prefix cache, and returns its outcome.
func runJobOutcome(t *testing.T, p Params, cached bool) jobOutcome {
	t.Helper()
	cfg := Config{Workers: 1}
	if cached {
		c := memo.New(memo.Options{MaxBytes: 8 << 20})
		cfg.Cache = func() *memo.Cache { return c }
	}
	m := New(cfg)
	defer drainManager(t, m)
	st, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	st = waitDone(t, m, st.ID)
	if st.Phase != PhaseDone {
		t.Fatalf("%+v: phase %s (err %q)", p.Spec, st.Phase, st.Err)
	}
	out := jobOutcome{
		BestScore: math.Float64bits(st.BestScore),
		BaseScore: math.Float64bits(st.BaseScore),
		StepsUsed: st.StepsUsed,
		Evaluated: st.Evaluated,
		Degraded:  st.Degraded,
	}
	if len(st.BestRecipe) > 0 {
		out.BestRecipe = st.BestRecipe
	}
	return out
}

// TestPinnedJobOutcomes pins job outcomes across engine changes. The
// benchmark's oracle re-runs sampled jobs on the code under test, so it
// cannot see a score that drifted between versions; this table can.
// Cache warmth must not matter either, so each job runs both ways.
func TestPinnedJobOutcomes(t *testing.T) {
	for _, pj := range pinnedJobs {
		for _, cached := range []bool{false, true} {
			got := runJobOutcome(t, pj.params(), cached)
			if !reflect.DeepEqual(got, pj.want) {
				t.Errorf("%+v seed %d limit %d cached %v:\n got %+v\nwant %+v",
					pj.spec, pj.seed, pj.limit, cached, got, pj.want)
			}
		}
	}
}

// TestStepLimitTripIsReproducible runs a job whose step limit trips
// inside cover minimization twenty times without a cache: every run
// must report the same last error, trip point included. A charge made
// in map order would move the step at which the limit trips.
func TestStepLimitTripIsReproducible(t *testing.T) {
	p := pinnedJob{spec: recipe.Spec{Kind: recipe.KindFSM, States: 4, Inputs: 1, Outputs: 2}, seed: 31, limit: 8000}.params()
	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		m := New(Config{Workers: 1})
		st, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		st = waitDone(t, m, st.ID)
		drainManager(t, m)
		seen[st.LastError] = true
	}
	if len(seen) != 1 {
		t.Fatalf("%d distinct last errors over 20 runs: %v", len(seen), seen)
	}
}

// TestSharedCacheConcurrentJobs runs jobs that share every prefix and
// score key concurrently over one cache: a job may replay a value
// another is still computing, or share its failure. Each must still
// end exactly as it does without a cache.
func TestSharedCacheConcurrentJobs(t *testing.T) {
	var ps []Params
	for _, pj := range []pinnedJob{pinnedJobs[1], pinnedJobs[9], pinnedJobs[11]} {
		for n := 29; n <= 32; n++ {
			p := pj.params()
			p.Candidates = n // a distinct job id over the same keys
			ps = append(ps, p)
		}
	}
	want := map[string]*Status{}
	for _, p := range ps {
		st := runStatus(t, Config{Workers: 1}, p)
		st.CacheHits = 0
		want[st.ID] = st
	}

	c := memo.New(memo.Options{MaxBytes: 8 << 20})
	m := New(Config{Workers: 4, QueueDepth: len(ps), Cache: func() *memo.Cache { return c }})
	defer drainManager(t, m)
	var ids []string
	for _, p := range ps {
		st, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		got := waitDone(t, m, id)
		got.CacheHits = 0
		if !reflect.DeepEqual(got, want[id]) {
			t.Errorf("job %s over a shared cache:\n got %+v\nwant %+v", id, got, want[id])
		}
	}
}
