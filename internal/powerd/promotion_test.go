package powerd

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hlpower/internal/budget"
)

// waitStats polls the server's stats snapshot until cond holds or the
// deadline lapses — codegen promotion builds run off the request path,
// so tests must wait for the swap-in rather than assume it.
func waitStats(t *testing.T, s *Server, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(s.Snapshot()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats: %+v", what, s.Snapshot().Kernel)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPromotionObservable drives one netlist shape past the hotness
// threshold through the HTTP surface and asserts the whole lifecycle
// is visible from outside: the response kernel field flips from fused
// to codegen, and /v1/stats reports the tier counters, the promotion,
// and the artifact's hotness.
func TestPromotionObservable(t *testing.T) {
	cfg := testConfig()
	cfg.CodegenAfter = 3
	cfg.MemoMaxBytes = -1 // every request must reach the artifact, not the estimate cache
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := simulateRequest{Circuit: "adder", Width: 8, Cycles: 200, Seed: 5}
	simulate := func(what string) (kernel string, power float64) {
		t.Helper()
		resp, out := post(t, ts, "/v1/simulate", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s simulate: %d %v", what, resp.StatusCode, out)
		}
		kernel, _ = out["kernel"].(string)
		return kernel, out["power"].(float64)
	}
	// Requests strictly below the threshold never start a build, so the
	// fused tier serves them.
	var fusedPower float64
	for i := 0; i < cfg.CodegenAfter-1; i++ {
		var kernel string
		if kernel, fusedPower = simulate("below-threshold"); kernel != "fused" {
			t.Fatalf("request %d below threshold served by %v, want fused", i, kernel)
		}
	}
	// The crossing request starts the build, which may land before its
	// own run loads the evaluator: either tier may serve it, with the
	// same power.
	kernel, power := simulate("crossing")
	if kernel != "fused" && kernel != "codegen" {
		t.Fatalf("crossing request served by %v, want fused or codegen", kernel)
	}
	if math.Float64bits(power) != math.Float64bits(fusedPower) {
		t.Fatalf("crossing request changed power: %v vs %v", power, fusedPower)
	}
	waitStats(t, s, "promotion", func(st Stats) bool { return st.Kernel.Promotions == 1 })

	if kernel, power = simulate("post-promotion"); kernel != "codegen" {
		t.Fatalf("post-promotion kernel = %v, want codegen", kernel)
	}
	if math.Float64bits(power) != math.Float64bits(fusedPower) {
		t.Fatalf("promotion changed power: %v vs %v", power, fusedPower)
	}

	// The same story over the wire.
	httpResp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var body struct {
		Kernel struct {
			Tiers            map[string]int64 `json:"tiers"`
			CodegenBuilds    int64            `json:"codegen_builds"`
			Promotions       int64            `json:"promotions"`
			CodegenArtifacts int              `json:"codegen_artifacts"`
			Hotness          map[string]int64 `json:"hotness"`
		} `json:"kernel"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	k := body.Kernel
	if k.Promotions != 1 || k.CodegenBuilds != 1 || k.CodegenArtifacts != 1 {
		t.Fatalf("/v1/stats kernel lifecycle: %+v", k)
	}
	if k.Tiers["fused"] < 2 || k.Tiers["codegen"] < 1 {
		t.Fatalf("/v1/stats tiers = %v, want ≥2 fused and ≥1 codegen", k.Tiers)
	}
	if k.Hotness["adder/8"] < 2 {
		t.Fatalf("/v1/stats hotness = %v, want adder/8 ≥ 2", k.Hotness)
	}
}

// TestPromotionChaosSoak extends the chaos story to the promotion
// ladder on a single node:
//
//	(a) promotion lands mid-flight under load and never changes a
//	    single bit of any answer — every successful response matches a
//	    codegen-disabled reference server exactly;
//	(b) while chaos is armed, requests are invisible to the ladder:
//	    they neither advance hotness nor trigger builds, and even an
//	    already-promoted artifact serves them from the fused tier;
//	(c) disarming chaos restores codegen serving, still bit-identical.
func TestPromotionChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("promotion soak skipped in -short mode")
	}
	cfg := testConfig()
	cfg.Workers = 4
	cfg.QueueDepth = 32
	cfg.MemoMaxBytes = -1 // the estimate cache would hide the tier ladder entirely
	cfg.CodegenAfter = 3

	refCfg := cfg
	refCfg.CodegenAfter = -1 // the reference never promotes: pure fused answers
	ref := NewServer(refCfg)
	refTS := httptest.NewServer(ref.Handler())
	defer refTS.Close()

	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	specs := []simulateRequest{
		{Circuit: "multiplier", Width: 6, Cycles: 300, Seed: 21}, // the hot shape
		{Circuit: "adder", Width: 8, Cycles: 250, Seed: 22},
		{Circuit: "carry-select", Width: 6, Cycles: 200, Seed: 23},
	}
	refPower := map[string]float64{}
	for _, spec := range specs {
		resp, out := post(t, refTS, "/v1/simulate", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %v: %d %v", spec, resp.StatusCode, out)
		}
		refPower[spec.Circuit] = out["power"].(float64)
	}
	check := func(phase string, spec simulateRequest, out map[string]any) {
		t.Helper()
		if math.Float64bits(out["power"].(float64)) != math.Float64bits(refPower[spec.Circuit]) {
			t.Fatalf("%s: %s power %v != reference %v (bit-identity violated)",
				phase, spec.Circuit, out["power"], refPower[spec.Circuit])
		}
	}

	// --- Phase 1: healthy load hot enough to promote the multiplier
	// mid-flight. Whatever tier serves each request, the bits match.
	for i := 0; i < 12; i++ {
		spec := specs[i%len(specs)]
		resp, out := post(t, ts, "/v1/simulate", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("phase 1 request %d: %d %v", i, resp.StatusCode, out)
		}
		check("phase 1", spec, out)
	}
	waitStats(t, s, "all shapes promoted", func(st Stats) bool { return st.Kernel.Promotions == 3 })
	resp, out := post(t, ts, "/v1/simulate", specs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promoted simulate: %d %v", resp.StatusCode, out)
	}
	if out["kernel"] != "codegen" {
		t.Fatalf("phase 1: promoted shape served by %v, want codegen", out["kernel"])
	}
	check("phase 1 promoted", specs[0], out)
	buildsAfterPhase1 := s.Snapshot().Kernel.CodegenBuilds

	// --- Phase 2: chaos armed but never tripping (FailAtCheck far past
	// any run). Every request succeeds, which pins the gating exactly:
	// armed requests are served from the fused tier even for promoted
	// artifacts, never advance hotness, and never trigger builds.
	s.SetFaultPlan(budget.FaultPlan{FailAtCheck: 1 << 40})
	cold := simulateRequest{Circuit: "comparator", Width: 7, Cycles: 200, Seed: 24}
	refResp, refOut := post(t, refTS, "/v1/simulate", cold)
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("reference cold: %d %v", refResp.StatusCode, refOut)
	}
	refPower[cold.Circuit] = refOut["power"].(float64)
	for i := 0; i < 12; i++ {
		spec := specs[i%2] // the promoted multiplier and adder
		if i%4 == 3 {
			spec = cold
		}
		resp, out := post(t, ts, "/v1/simulate", spec)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("phase 2 request %d: %d %v (plan never trips)", i, resp.StatusCode, out)
		}
		check("phase 2", spec, out)
		if out["kernel"] != "fused" {
			t.Fatalf("phase 2: fault-armed request served by %v, want fused", out["kernel"])
		}
	}
	st := s.Snapshot().Kernel
	if st.CodegenBuilds != buildsAfterPhase1 {
		t.Fatalf("phase 2: fault-armed traffic triggered builds: %d -> %d", buildsAfterPhase1, st.CodegenBuilds)
	}
	if _, hot := st.Hotness["comparator/7"]; hot {
		t.Fatalf("phase 2: fault-armed traffic advanced hotness: %v", st.Hotness)
	}

	// --- Phase 3: real probabilistic chaos. Some requests degrade to
	// errors — allowed — but every answer that does come back is still
	// bit-identical to the reference, whatever injected trips and tier
	// gating produced it.
	s.SetFaultPlan(budget.FaultPlan{Prob: 0.0002, Seed: 99})
	okCount := 0
	for i := 0; i < 20; i++ {
		spec := specs[i%len(specs)]
		resp, out := post(t, ts, "/v1/simulate", spec)
		if resp.StatusCode != http.StatusOK {
			continue
		}
		okCount++
		check("phase 3", spec, out)
		if out["kernel"] != "fused" {
			t.Fatalf("phase 3: chaos-armed request served by %v, want fused", out["kernel"])
		}
	}
	if okCount == 0 {
		t.Fatal("phase 3: every request degraded; soak exercised nothing")
	}

	// --- Phase 4: chaos disarmed; the promoted tier resumes serving.
	s.SetFaultPlan(budget.FaultPlan{})
	resp, out = post(t, ts, "/v1/simulate", specs[0])
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("phase 4: %d %v, want 200", resp.StatusCode, out)
	}
	if out["kernel"] != "codegen" {
		t.Fatalf("phase 4: kernel = %v, want codegen restored", out["kernel"])
	}
	check("phase 4", specs[0], out)
}
