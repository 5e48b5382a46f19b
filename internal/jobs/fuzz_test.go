package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"hlpower/internal/memo"
	"hlpower/internal/recipe"
	"hlpower/internal/service"
)

// FuzzRecipeWire fuzzes the two wire formats of the job engine: the
// /v1/optimize request body and the checkpoint-snapshot envelope.
// Invariants: neither decoder ever panics; a corrupt or truncated
// snapshot fails closed with a typed *SnapshotError; anything
// DecodeState does accept survives an encode/decode round trip
// byte-identically (the canonical encoding admits exactly one
// representation per state, so a resumed node can never "almost"
// agree with the checkpoint it wrote).
func FuzzRecipeWire(f *testing.F) {
	p := testParams(11, 9)
	running := &State{ID: p.Key().String(), Params: p, Phase: PhaseRunning,
		BaselineDone: true, BaseScore: 12.5, BestScore: 11, BestRecipe: []string{"guard", "retime"},
		Step: 4, Evaluated: 4, StepsUsed: 5000}
	f.Add(EncodeState(running))
	f.Add(EncodeState(&State{ID: p.Key().String(), Params: p, Phase: PhaseDone}))
	f.Add([]byte(snapMagic))
	f.Add([]byte(`{"kind":"circuit","circuit":"adder","width":4,"seed":1}`))
	f.Add([]byte(`{"kind":"fsm","states":6,"inputs":2,"outputs":2,"seed":-3,"candidates":10}`))
	f.Add([]byte(`{"kind":"bus","width":12,"token":"abc"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(data)
		if err != nil {
			var se *SnapshotError
			if !errors.As(err, &se) {
				t.Fatalf("snapshot decode failure not typed: %v", err)
			}
		} else {
			re := EncodeState(st)
			if !bytes.Equal(re, data) {
				t.Fatalf("accepted snapshot is not canonical:\n in %x\nout %x", data, re)
			}
			st2, err := DecodeState(re)
			if err != nil {
				t.Fatalf("round trip rejected: %v", err)
			}
			if !reflect.DeepEqual(st, st2) {
				t.Fatalf("round trip changed state: %+v vs %+v", st, st2)
			}
		}

		var req service.OptimizeRequest
		if json.Unmarshal(data, &req) != nil {
			return
		}
		req.Normalize()
		if req.Validate() != nil {
			return
		}
		// A valid request must map onto params the engine accepts, with a
		// stable content identity.
		pr := Params{
			Spec: req.Spec(), Token: req.Token, Seed: req.Seed,
			Candidates: req.Candidates, EvalCycles: req.EvalCycles,
			VerifyCycles: req.VerifyCycles, MaxRecipeLen: req.MaxRecipeLen,
			EvalSteps: 1 << 20, CheckInterval: 256,
		}
		if err := pr.Spec.Validate(); err != nil {
			t.Fatalf("validated request has invalid spec: %v", err)
		}
		if pr.Key() != pr.Key() {
			t.Fatal("params key not deterministic")
		}
	})
}

// FuzzJobCacheEquivalence runs each job three ways: without a cache,
// over a cold cache, and on a second manager whose Cache func hands the
// job that same cache, now warm. The memo cache must be invisible in
// the job's status: every field but the id and the prefix-hit count
// agrees, including the last error a step-limit trip reports.
func FuzzJobCacheEquivalence(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(0), uint8(1), int64(52), uint8(31), uint32(12000))
	f.Add(uint8(1), uint8(2), uint8(0), uint8(1), int64(31), uint8(31), uint32(8000))
	f.Add(uint8(0), uint8(0), uint8(6), uint8(0), int64(41), uint8(31), uint32(26000))
	f.Add(uint8(0), uint8(2), uint8(6), uint8(0), int64(35), uint8(31), uint32(175_000))
	// Without the replay trip guard, the last candidate to degrade here
	// would trip at the end of a replayed score charge.
	f.Add(uint8(2), uint8(6), uint8(0), uint8(0), int64(53), uint8(29), uint32(800))
	// An FSM job (5 states, 1 input, 2 outputs) whose controller
	// syntheses trip the step limit: storing a degraded synthesis in
	// the controller memo would move the last trip's count.
	f.Add(uint8(1), uint8(3), uint8(0), uint8(1), int64(-154), uint8(15), uint32(11913))

	f.Fuzz(func(t *testing.T, kind, a, b, c uint8, seed int64, cands uint8, steps uint32) {
		p := Params{
			Spec:          fuzzSpec(kind, a, b, c),
			Seed:          seed,
			Candidates:    1 + int(cands%32),
			EvalCycles:    256,
			VerifyCycles:  128,
			MaxRecipeLen:  4,
			EvalSteps:     max(1, int64(steps)),
			CheckInterval: 1024,
		}
		ref := runStatus(t, Config{Workers: 1}, p)
		cache := memo.New(memo.Options{MaxBytes: 8 << 20})
		for _, warmth := range []string{"cold", "warm"} {
			got := runStatus(t, Config{Workers: 1, Cache: func() *memo.Cache { return cache }}, p)
			if math.Float64bits(got.BestScore) != math.Float64bits(ref.BestScore) ||
				math.Float64bits(got.BaseScore) != math.Float64bits(ref.BaseScore) {
				t.Fatalf("%s cache: scores %v/%v, uncached %v/%v", warmth, got.BestScore, got.BaseScore, ref.BestScore, ref.BaseScore)
			}
			got.ID, got.CacheHits = ref.ID, ref.CacheHits
			if !reflect.DeepEqual(got, ref) {
				t.Fatalf("over the %s cache:\n got %+v\nwant %+v", warmth, got, ref)
			}
		}
	})
}

// fuzzSpec maps fuzz bytes onto a valid spec small enough to search
// quickly.
func fuzzSpec(kind, a, b, c uint8) recipe.Spec {
	switch kind % 3 {
	case 0:
		circuits := []string{"adder", "carry-select", "multiplier", "subtractor", "comparator"}
		s := recipe.Spec{Kind: recipe.KindCircuit, Circuit: circuits[int(a)%len(circuits)], Width: 2 + int(b)%7}
		if s.Circuit == "multiplier" && s.Width > 4 {
			s.Width = 4
		}
		return s
	case 1:
		return recipe.Spec{Kind: recipe.KindFSM, States: 2 + int(a)%5, Inputs: 1 + int(b)%2, Outputs: 1 + int(c)%3}
	default:
		return recipe.Spec{Kind: recipe.KindBus, Width: 2 + int(a)%15}
	}
}

// runStatus runs one job to completion on a fresh manager.
func runStatus(t *testing.T, cfg Config, p Params) *Status {
	t.Helper()
	m := New(cfg)
	defer drainManager(t, m)
	st, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	return waitDone(t, m, st.ID)
}
