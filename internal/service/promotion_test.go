package service

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/sim"
)

// waitFor polls until cond holds or the deadline lapses — promotion
// builds run on a background goroutine, so tests observing them must
// wait for the swap-in rather than assume it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestArtifactSingleflight: concurrent first requests for one shape
// must compile it exactly once — the losing racers block on the
// singleflight entry instead of duplicating construction+fusion work —
// and every caller gets the same artifact.
func TestArtifactSingleflight(t *testing.T) {
	var svc Local
	const racers = 16
	arts := make([]*artifact, racers)
	errs := make([]error, racers)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(racers)
	for i := 0; i < racers; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait()
			arts[i], errs[i] = svc.artifactFor("multiplier", 8)
		}(i)
	}
	start.Done()
	done.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if arts[i] != arts[0] {
			t.Fatalf("racer %d got a different artifact", i)
		}
	}
	if got := svc.artifactBuilds.Load(); got != 1 {
		t.Fatalf("%d concurrent cold requests compiled %d times, want exactly 1", racers, got)
	}
	// A different shape is a fresh build; repeating it is not.
	if _, err := svc.artifactFor("multiplier", 6); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.artifactFor("multiplier", 6); err != nil {
		t.Fatal(err)
	}
	if got := svc.artifactBuilds.Load(); got != 2 {
		t.Fatalf("artifactBuilds = %d, want 2", got)
	}
	// Malformed requests never leave entries behind.
	if _, err := svc.artifactFor("no-such-circuit", 8); err == nil {
		t.Fatal("unknown circuit accepted")
	}
	if _, err := svc.artifactFor("adder", MaxWidth+1); err == nil {
		t.Fatal("oversized width accepted")
	}
	svc.artMu.RLock()
	n := len(svc.artifacts)
	svc.artMu.RUnlock()
	if n != 2 {
		t.Fatalf("cache holds %d entries, want 2 (invalid requests must not insert)", n)
	}
}

// TestKernelStatsDuringColdBuild reads KernelStats, as /v1/stats does,
// while a cold shape's first request builds its artifact: the stats
// read must synchronize with the build, which the race detector checks.
// Polling stops only after a poll has begun after the simulate
// returned, so some read always follows the build.
func TestKernelStatsDuringColdBuild(t *testing.T) {
	svc := Local{CodegenAfter: -1}
	var polls atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			svc.KernelStats()
			polls.Add(1)
		}
	}()
	defer func() { close(stop); <-stopped }()
	waitFor(t, "the first poll", func() bool { return polls.Load() > 0 })
	req := SimulateRequest{Circuit: "multiplier", Width: 16, Cycles: 20_000, Seed: 1}
	if _, err := svc.Simulate(ctxBG(), nil, req); err != nil {
		t.Fatal(err)
	}
	after := polls.Load()
	waitFor(t, "a poll after the build", func() bool { return polls.Load() > after+1 })
	if st := svc.KernelStats(); st.Artifacts != 1 || st.ArtifactBuilds != 1 {
		t.Fatalf("after the build: %d artifacts, %d builds, want 1 and 1", st.Artifacts, st.ArtifactBuilds)
	}
}

// TestPromotionLifecycle drives an artifact across the hotness
// threshold and pins the whole ladder: fused serves until the
// background build lands, the swap-in changes only the kernel tag —
// the power figures stay Float64bits-identical — and the stats
// counters tell the story. The build waits until the threshold-crossing
// serve has finished, so that serve runs fused on any schedule.
func TestPromotionLifecycle(t *testing.T) {
	svc := Local{CodegenAfter: 3}
	crossed := make(chan struct{})
	svc.buildCodegen = func(c *sim.Compiled) error {
		<-crossed
		return c.BuildCodegen()
	}
	req := SimulateRequest{Circuit: "multiplier", Width: 6, Cycles: 400, Seed: 7}

	var fusedPower, fusedCap float64
	for i := 0; i < 3; i++ {
		res, err := svc.Simulate(ctxBG(), nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != sim.KernelFused {
			t.Fatalf("run %d: Kernel=%q, want fused before the build lands", i, res.Kernel)
		}
		fusedPower, fusedCap = res.Power(), res.SwitchedCap
	}
	// The third serve crossed the threshold; the build is asynchronous.
	st := svc.KernelStats()
	if st.Hotness["multiplier/6"] != 3 {
		t.Fatalf("Hotness = %v, want multiplier/6: 3", st.Hotness)
	}
	if st.Promotions != 0 || st.CodegenArtifacts != 0 {
		t.Fatalf("premature promotion: %+v", st)
	}
	close(crossed)
	waitFor(t, "promotion", func() bool { return svc.KernelStats().Promotions == 1 })

	res, err := svc.Simulate(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != sim.KernelCodegen {
		t.Fatalf("post-promotion Kernel=%q, want codegen", res.Kernel)
	}
	if math.Float64bits(res.Power()) != math.Float64bits(fusedPower) ||
		math.Float64bits(res.SwitchedCap) != math.Float64bits(fusedCap) {
		t.Fatalf("promotion changed the numbers: %v/%v vs %v/%v",
			res.Power(), res.SwitchedCap, fusedPower, fusedCap)
	}

	st = svc.KernelStats()
	if st.CodegenBuilds != 1 || st.CodegenFailures != 0 || st.CodegenArtifacts != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
	if st.Tiers["fused"] < 3 || st.Tiers["codegen"] < 1 {
		t.Fatalf("tier counters %v, want ≥3 fused and ≥1 codegen", st.Tiers)
	}
}

// TestPromotionDisabled: a negative threshold turns the ladder off —
// no hotness accounting, no builds, fused forever.
func TestPromotionDisabled(t *testing.T) {
	svc := Local{CodegenAfter: -1}
	req := SimulateRequest{Circuit: "adder", Width: 6, Cycles: 300, Seed: 1}
	for i := 0; i < DefaultCodegenAfter+4; i++ {
		res, err := svc.Simulate(ctxBG(), nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != sim.KernelFused {
			t.Fatalf("Kernel=%q with promotion disabled", res.Kernel)
		}
	}
	st := svc.KernelStats()
	if st.CodegenBuilds != 0 || len(st.Hotness) != 0 {
		t.Fatalf("disabled promotion still accounted: %+v", st)
	}
}

// TestPromotionBuildFailure: a failed background build must degrade
// the artifact to the fused tier permanently and silently — requests
// keep succeeding, the build is never retried, and only the failure
// counter records it.
func TestPromotionBuildFailure(t *testing.T) {
	svc := Local{CodegenAfter: 1}
	svc.buildCodegen = func(*sim.Compiled) error { return errors.New("injected build failure") }
	req := SimulateRequest{Circuit: "subtractor", Width: 5, Cycles: 250, Seed: 3}

	if _, err := svc.Simulate(ctxBG(), nil, req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failed build", func() bool { return svc.KernelStats().CodegenFailures == 1 })

	for i := 0; i < 5; i++ {
		res, err := svc.Simulate(ctxBG(), nil, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != sim.KernelFused {
			t.Fatalf("Kernel=%q after failed build, want permanent fused fallback", res.Kernel)
		}
	}
	st := svc.KernelStats()
	if st.CodegenBuilds != 1 {
		t.Fatalf("failed build retried: builds=%d", st.CodegenBuilds)
	}
	if st.Promotions != 0 || st.CodegenArtifacts != 0 {
		t.Fatalf("failed build counted as promotion: %+v", st)
	}
}

// TestFaultArmedNeverPromotes: chaos-degraded requests are invisible
// to the promotion ladder — they advance no hotness, trigger no build,
// and after a healthy promotion they are still served by the fused
// tier, so injected faults always exercise the unpromoted path.
func TestFaultArmedNeverPromotes(t *testing.T) {
	svc := Local{CodegenAfter: 1}
	req := SimulateRequest{Circuit: "comparator", Width: 6, Cycles: 300, Seed: 9}
	// Armed but never tripping: FailAtCheck far beyond the run's checks.
	armed := func() *budget.Budget {
		return budget.New(budget.WithFaultPlan(budget.FaultPlan{FailAtCheck: 1 << 40}))
	}

	for i := 0; i < 4; i++ {
		res, err := svc.Simulate(ctxBG(), armed(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Kernel != sim.KernelFused {
			t.Fatalf("fault-armed Kernel=%q, want fused", res.Kernel)
		}
	}
	st := svc.KernelStats()
	if st.CodegenBuilds != 0 || len(st.Hotness) != 0 {
		t.Fatalf("fault-armed requests advanced promotion: %+v", st)
	}

	// One healthy request promotes (threshold 1) …
	if _, err := svc.Simulate(ctxBG(), nil, req); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "promotion", func() bool { return svc.KernelStats().Promotions == 1 })
	res, err := svc.Simulate(ctxBG(), nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kernel != sim.KernelCodegen {
		t.Fatalf("healthy Kernel=%q, want codegen", res.Kernel)
	}
	// … and a fault-armed request still refuses the promoted tier.
	faulted, err := svc.Simulate(ctxBG(), armed(), req)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Kernel != sim.KernelFused {
		t.Fatalf("fault-armed post-promotion Kernel=%q, want fused", faulted.Kernel)
	}
	if math.Float64bits(faulted.Power()) != math.Float64bits(res.Power()) {
		t.Fatalf("tier changed the numbers: %v vs %v", faulted.Power(), res.Power())
	}
}
