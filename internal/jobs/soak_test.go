package jobs

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/recipe"
)

// TestJobsSoak is the acceptance harness for the durable job engine:
// a fleet of 100 jobs runs under probabilistic fault injection, the
// engine is drained mid-fleet (the SIGTERM path), and a fresh manager
// over the same store recovers the survivors. Asserted end to end:
//
//	(a) zero lost jobs — every submission reaches a terminal snapshot,
//	(b) zero duplicated jobs — each job completes exactly once across
//	    both manager lifetimes, and post-restart resubmissions attach
//	    instead of re-running,
//	(c) checkpoint-resume bit-identity — every job's terminal state is
//	    reflect.DeepEqual (hence Float64bits-identical scores) to an
//	    uninterrupted reference run with the same seeds and fault plan,
//	(d) draining leaves no goroutines behind.
func TestJobsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	baseline := runtime.NumGoroutine()

	// The same deterministic chaos plan arms both runs: the engine
	// re-seeds it per candidate step, so an interrupted-and-resumed
	// fleet sees exactly the faults the reference fleet saw.
	plan := func() *budget.FaultPlan { return &budget.FaultPlan{Prob: 0.01, Seed: 4242} }

	const njobs = 100
	specs := []recipe.Spec{
		{Kind: recipe.KindCircuit, Circuit: "adder", Width: 4},
		{Kind: recipe.KindCircuit, Circuit: "comparator", Width: 4},
		{Kind: recipe.KindFSM, States: 5, Inputs: 2, Outputs: 2},
		{Kind: recipe.KindBus, Width: 8},
	}
	params := make([]Params, njobs)
	for i := range params {
		params[i] = Params{
			Spec:          specs[i%len(specs)],
			Seed:          int64(i)*7 + 1,
			Candidates:    12,
			EvalCycles:    96,
			VerifyCycles:  48,
			MaxRecipeLen:  3,
			EvalSteps:     20_000_000,
			CheckInterval: 64,
		}
	}

	submitAll := func(m *Manager) {
		t.Helper()
		for i, p := range params {
			if _, err := m.Submit(p); err != nil {
				t.Fatalf("submit job %d: %v", i, err)
			}
		}
	}
	waitFleet := func(m *Manager, want int64, phase string) {
		t.Helper()
		deadline := time.Now().Add(120 * time.Second)
		for {
			c := m.Counters()
			if c.Completed+c.Failed+c.Canceled >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: fleet stuck at %+v, want %d terminal", phase, c, want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	loadState := func(s Store, id, phase string) *State {
		t.Helper()
		snap, ok, err := s.Load(id)
		if err != nil || !ok {
			t.Fatalf("%s: job %s has no snapshot (lost): ok=%v err=%v", phase, id, ok, err)
		}
		st, err := DecodeState(snap)
		if err != nil {
			t.Fatalf("%s: job %s snapshot undecodable: %v", phase, id, err)
		}
		return st
	}

	// --- Phase 1: uninterrupted reference fleet under the chaos plan.
	refStore := NewMemStore()
	mRef := New(Config{Workers: 4, QueueDepth: njobs + 8, CheckpointEvery: 4, Store: refStore, Plan: plan})
	submitAll(mRef)
	waitFleet(mRef, njobs, "reference")
	if c := mRef.Counters(); c.Completed != njobs || c.Failed != 0 || c.Canceled != 0 {
		t.Fatalf("reference fleet did not complete cleanly: %+v", c)
	}
	ref := make(map[string]*State, njobs)
	var refDegraded int64
	for _, p := range params {
		id := p.Key().String()
		st := loadState(refStore, id, "reference")
		if st.Phase != PhaseDone {
			t.Fatalf("reference job %s terminal phase %q, want done", id, st.Phase)
		}
		ref[id] = st
		refDegraded += st.Degraded
	}
	if refDegraded == 0 {
		t.Fatal("fault plan injected nothing: no candidate degraded across the reference fleet")
	}
	drainManager(t, mRef)

	// --- Phase 2: chaos fleet, drained mid-run. CheckpointEvery=1 so
	// every in-flight job hands off at a candidate boundary.
	store := NewMemStore()
	mA := New(Config{Workers: 4, QueueDepth: njobs + 8, CheckpointEvery: 1, Store: store, Plan: plan})
	submitAll(mA)
	// Drain once three jobs are done and some job is at most halfway
	// through its candidates: it checkpoints at its next step boundary,
	// long before it could finish, so the drain lands mid-search. A job
	// still in Build or its baseline would hand off at step 0.
	earlyMidSearch := func() bool {
		for _, p := range params {
			st, ok := mA.Get(p.Key().String())
			if ok && st.Phase == PhaseRunning && st.Step > 0 && st.Step <= st.Candidates/2 {
				return true
			}
		}
		return false
	}
	trigger := time.Now().Add(60 * time.Second)
	for mA.Counters().Completed < 3 || !earlyMidSearch() {
		if time.Now().After(trigger) {
			t.Fatalf("chaos fleet never had three jobs done and one early mid-search: %+v", mA.Counters())
		}
		time.Sleep(time.Millisecond)
	}
	drainManager(t, mA)
	ca := mA.Counters()
	if ca.Failed != 0 || ca.Canceled != 0 {
		t.Fatalf("chaos fleet failed/canceled before drain: %+v", ca)
	}
	doneA := ca.Completed
	if doneA >= njobs {
		t.Fatalf("drain landed after the whole fleet finished (%d/%d): no resume coverage", doneA, njobs)
	}

	// Nothing lost: every job has a decodable snapshot, and the drain
	// caught at least one job genuinely mid-search.
	var midSearch, interrupted int64
	for _, p := range params {
		st := loadState(store, p.Key().String(), "post-drain")
		switch st.Phase {
		case PhaseDone:
		case PhaseRunning:
			interrupted++
			if st.BaselineDone && st.Step > 0 && st.Step < st.Params.Candidates {
				midSearch++
			}
		default:
			t.Fatalf("post-drain job %s in unexpected phase %q", st.ID, st.Phase)
		}
	}
	if interrupted != njobs-doneA {
		t.Fatalf("post-drain snapshots: %d running, want %d (completed %d)", interrupted, njobs-doneA, doneA)
	}
	if midSearch == 0 {
		t.Fatalf("drain caught no job mid-search (%d interrupted, %d done)", interrupted, doneA)
	}
	t.Logf("drain interrupted %d jobs (%d mid-search), %d already done", interrupted, midSearch, doneA)

	// --- Phase 3: restart. A fresh manager over the same store recovers
	// the survivors; clients retrying every submission must attach, not
	// duplicate.
	mB := New(Config{Workers: 4, QueueDepth: njobs + 8, CheckpointEvery: 1, Store: store, Plan: plan})
	n, err := mB.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if int64(n) != interrupted {
		t.Fatalf("recovered %d jobs, want %d", n, interrupted)
	}
	submitAll(mB)
	waitFleet(mB, interrupted, "resumed")
	cb := mB.Counters()
	if cb.Failed != 0 || cb.Canceled != 0 {
		t.Fatalf("resumed fleet failed/canceled: %+v", cb)
	}
	if cb.Replayed != interrupted {
		t.Fatalf("resubmitting %d recovered jobs replayed %d", interrupted, cb.Replayed)
	}
	if cb.Submitted != doneA {
		t.Fatalf("resubmitting %d finished jobs attached %d terminal snapshots", doneA, cb.Submitted)
	}

	// --- Phase 4: zero duplicates, and bit-identity against reference.
	if doneA+cb.Completed != njobs {
		t.Fatalf("fleet completed %d+%d times across restarts, want exactly %d", doneA, cb.Completed, njobs)
	}
	for id, want := range ref {
		got := loadState(store, id, "final")
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("job %s diverged from uninterrupted reference:\n got %+v\nwant %+v", id, got, want)
		}
	}
	drainManager(t, mB)

	// --- Phase 5: no goroutines left behind.
	leakDeadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			w := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:w])
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Logf("soak complete: %d jobs, %d interrupted/resumed, ref degraded %d, counters %+v",
		njobs, interrupted, refDegraded, cb)
}
