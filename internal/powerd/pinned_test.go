package powerd

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"hlpower/internal/jobs"
	"hlpower/internal/recipe"
	"hlpower/internal/service"
)

// productionVocabulary is the pass vocabulary powerd searches. This test
// binary registers no passes of its own, so the pins below cover the
// searches powerd actually runs (internal/jobs' binary adds two
// fault-injection passes to the circuit vocabulary).
var productionVocabulary = map[string][]string{
	recipe.KindCircuit: {"guard", "precompute", "resynth", "retime"},
	recipe.KindFSM:     {"clock-gate", "enc-binary", "enc-gray", "enc-low-power", "enc-one-hot", "enc-random"},
	recipe.KindBus:     {"bus-binary", "bus-bus-invert", "bus-gray", "bus-t0", "bus-t0-bi", "bus-working-zone"},
}

// servedOutcome is the part of a finished job's status that candidate
// scoring determines.
type servedOutcome struct {
	BestRecipe []string
	BestScore  uint64 // math.Float64bits
	BaseScore  uint64 // math.Float64bits
	StepsUsed  int64
	Evaluated  int64
	Degraded   int64
}

// productionPins are the optimize-jobs benchmark's job specs plus the
// width-4 multiplier, submitted through /v1/optimize at powerd's job
// defaults. limit, when set, replaces the 50M-step per-candidate
// allowance with one that lets the baseline finish but trips inside
// some candidates. The want values were recorded with every candidate
// scored afresh; a score memo or shared job statistics that changed a
// search, a score bit or the budget accounting would show up here.
var productionPins = []struct {
	req   service.OptimizeRequest
	limit int64
	want  servedOutcome
}{
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 8, Seed: 41}, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40d3ee3999999996, BaseScore: 0x40d3ee3999999996, StepsUsed: 90489, Evaluated: 32, Degraded: 30}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "adder", Width: 8, Seed: 41}, limit: 26000, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40d3ee3999999996, BaseScore: 0x40d3ee3999999996, StepsUsed: 86599, Evaluated: 32, Degraded: 32}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "carry-select", Width: 8, Seed: 45}, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40ddb6f999999997, BaseScore: 0x40ddb6f999999997, StepsUsed: 130517, Evaluated: 32, Degraded: 30}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "carry-select", Width: 8, Seed: 45}, limit: 37000, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40ddb6f999999997, BaseScore: 0x40ddb6f999999997, StepsUsed: 124085, Evaluated: 32, Degraded: 32}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "subtractor", Width: 8, Seed: 49}, want: servedOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40dcdfacccccccd1, BaseScore: 0x40dec2b999999995, StepsUsed: 137231, Evaluated: 32, Degraded: 30}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "subtractor", Width: 8, Seed: 49}, limit: 30000, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40dec2b999999995, BaseScore: 0x40dec2b999999995, StepsUsed: 100439, Evaluated: 32, Degraded: 32}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "comparator", Width: 8, Seed: 51}, want: servedOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40d6c62cccccccc8, BaseScore: 0x40d6c8e000000000, StepsUsed: 121516, Evaluated: 32, Degraded: 30}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "comparator", Width: 8, Seed: 51}, limit: 27000, want: servedOutcome{
		BestRecipe: nil, BestScore: 0x40d6c8e000000000, BaseScore: 0x40d6c8e000000000, StepsUsed: 91696, Evaluated: 32, Degraded: 32}},
	{req: service.OptimizeRequest{Kind: "fsm", States: 4, Inputs: 1, Outputs: 2, Seed: 52}, want: servedOutcome{
		BestRecipe: []string{"enc-random"}, BestScore: 0x40a5630000000000, BaseScore: 0x40a679333333333d, StepsUsed: 273084, Evaluated: 32, Degraded: 15}},
	{req: service.OptimizeRequest{Kind: "fsm", States: 4, Inputs: 1, Outputs: 2, Seed: 52}, limit: 12000, want: servedOutcome{
		BestRecipe: []string{"enc-random"}, BestScore: 0x40a5630000000000, BaseScore: 0x40a679333333333d, StepsUsed: 218676, Evaluated: 32, Degraded: 21}},
	{req: service.OptimizeRequest{Kind: "bus", Width: 8, Seed: 53}, want: servedOutcome{
		BestRecipe: []string{"bus-bus-invert", "bus-t0", "bus-binary", "bus-t0-bi"}, BestScore: 0x408614cccccccccd, BaseScore: 0x408b180000000000, StepsUsed: 25344, Evaluated: 32, Degraded: 9}},
	{req: service.OptimizeRequest{Kind: "bus", Width: 8, Seed: 53}, limit: 800, want: servedOutcome{
		BestRecipe: []string{"bus-t0-bi"}, BestScore: 0x408614cccccccccd, BaseScore: 0x408b180000000000, StepsUsed: 17408, Evaluated: 32, Degraded: 17}},
	{req: service.OptimizeRequest{Kind: "bus", Width: 16, Seed: 54}, want: servedOutcome{
		BestRecipe: []string{"bus-gray", "bus-t0-bi"}, BestScore: 0x40975a6666666666, BaseScore: 0x409aac0000000000, StepsUsed: 20992, Evaluated: 32, Degraded: 9}},
	{req: service.OptimizeRequest{Kind: "bus", Width: 16, Seed: 54}, limit: 800, want: servedOutcome{
		BestRecipe: []string{"bus-gray", "bus-t0-bi"}, BestScore: 0x40975a6666666666, BaseScore: 0x409aac0000000000, StepsUsed: 18464, Evaluated: 32, Degraded: 18}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "multiplier", Width: 4, Seed: 35}, want: servedOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40e11ccffffffffc, BaseScore: 0x40e2849333333336, StepsUsed: 1752003, Evaluated: 32, Degraded: 26}},
	{req: service.OptimizeRequest{Kind: "circuit", Circuit: "multiplier", Width: 4, Seed: 35}, limit: 175000, want: servedOutcome{
		BestRecipe: []string{"retime"}, BestScore: 0x40e11ccffffffffc, BaseScore: 0x40e2849333333336, StepsUsed: 1540626, Evaluated: 32, Degraded: 31}},
}

// TestPinnedJobOutcomesProduction pins job outcomes on the production
// vocabulary, with the memo cache on and off.
func TestPinnedJobOutcomesProduction(t *testing.T) {
	for kind, want := range productionVocabulary {
		if got := recipe.Vocabulary(kind); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s vocabulary %v, want %v", kind, got, want)
		}
	}
	for _, pin := range productionPins {
		for _, cached := range []bool{false, true} {
			got := servedJobOutcome(t, pin.req, pin.limit, cached)
			if !reflect.DeepEqual(got, pin.want) {
				t.Errorf("%+v limit %d cached %v:\n got %#v\nwant %#v",
					pin.req, pin.limit, cached, got, pin.want)
			}
		}
	}
}

// servedJobOutcome runs one job to completion on a fresh server and
// returns its outcome.
func servedJobOutcome(t *testing.T, req service.OptimizeRequest, limit int64, cached bool) servedOutcome {
	t.Helper()
	cfg := DefaultConfig()
	cfg.JobEvalSteps = limit
	if !cached {
		cfg.MemoMaxBytes = -1
	}
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer drainServer(t, s)
	resp, out := post(t, ts, "/v1/optimize", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("optimize %+v: %d %v", req, resp.StatusCode, out)
	}
	id := out["id"].(string)
	pollJob(t, ts, id, terminal)

	r, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st jobs.Status
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Phase != jobs.PhaseDone {
		t.Fatalf("%+v: phase %s (err %q)", req, st.Phase, st.Err)
	}
	o := servedOutcome{
		BestScore: math.Float64bits(st.BestScore),
		BaseScore: math.Float64bits(st.BaseScore),
		StepsUsed: st.StepsUsed,
		Evaluated: st.Evaluated,
		Degraded:  st.Degraded,
	}
	if len(st.BestRecipe) > 0 {
		o.BestRecipe = st.BestRecipe
	}
	return o
}
