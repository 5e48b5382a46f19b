package jobs

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/memo"
	"hlpower/internal/recipe"
)

// Fault-injection passes shared by the whole test binary. They are
// flag-gated so they act as deterministic degraded no-ops except in
// the tests that arm them; either way their presence in the circuit
// vocabulary is identical for every run of this binary, which keeps
// the bit-identity tests honest.
var (
	stallArmed atomic.Bool
	panicArmed atomic.Bool
	// stallHang, when set, makes the armed stall pass ignore its budget
	// until the channel closes.
	stallHang atomic.Pointer[chan struct{}]
)

func init() {
	recipe.Register(recipe.Pass{Name: "zz-inject-panic", Kind: recipe.KindCircuit,
		Apply: func(b *budget.Budget, _ *memo.Cache, d *recipe.Design, rng *rand.Rand) (*recipe.Design, error) {
			if !panicArmed.Load() {
				return nil, recipe.ErrNotApplicable
			}
			panic("injected pass fault")
		}})
	recipe.Register(recipe.Pass{Name: "zz-inject-stall", Kind: recipe.KindCircuit,
		Apply: func(b *budget.Budget, _ *memo.Cache, d *recipe.Design, rng *rand.Rand) (*recipe.Design, error) {
			if !stallArmed.Load() {
				return nil, recipe.ErrNotApplicable
			}
			if hang := stallHang.Load(); hang != nil {
				<-*hang
				return nil, recipe.ErrNotApplicable
			}
			for b.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			return nil, b.Err()
		}})
}

func testParams(seed int64, candidates int) Params {
	return Params{
		Spec:          recipe.Spec{Kind: recipe.KindCircuit, Circuit: "adder", Width: 4},
		Seed:          seed,
		Candidates:    candidates,
		EvalCycles:    96,
		VerifyCycles:  64,
		MaxRecipeLen:  3,
		EvalSteps:     20_000_000,
		CheckInterval: 256,
	}
}

func drainManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func waitDone(t *testing.T, m *Manager, id string) *Status {
	t.Helper()
	ch, ok := m.Done(id)
	if !ok {
		t.Fatalf("job %s not attached", id)
	}
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	st, ok := m.Get(id)
	if !ok {
		t.Fatalf("job %s vanished", id)
	}
	return st
}

func TestSnapshotRoundTrip(t *testing.T) {
	p := testParams(3, 17)
	st := &State{
		ID:           p.Key().String(),
		Params:       p,
		Step:         9,
		BaselineDone: true,
		BaseScore:    123.5,
		BestScore:    101.25,
		BestRecipe:   []string{"guard", "retime"},
		Evaluated:    9,
		Degraded:     2,
		CacheHits:    4,
		StepsUsed:    123456,
		Phase:        PhaseRunning,
		LastError:    "recipe pass x: not applicable",
	}
	got, err := DecodeState(EncodeState(st))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

func TestSnapshotFailsClosed(t *testing.T) {
	p := testParams(4, 5)
	good := EncodeState(&State{ID: p.Key().String(), Params: p, Phase: PhaseDone, BaselineDone: true})
	cases := map[string][]byte{
		"empty":        {},
		"short":        good[:10],
		"truncated":    good[:len(good)-3],
		"badmagic":     append([]byte("NOTMAGIC"), good[8:]...),
		"bitflip":      append(append([]byte(nil), good[:20]...), append([]byte{good[20] ^ 0x40}, good[21:]...)...),
		"trailing":     append(append([]byte(nil), good...), 0xFF),
		"crcgarbage":   append(append([]byte(nil), good[:8]...), append(make([]byte, 8), good[16:]...)...),
		"payloadempty": good[:16],
	}
	for name, snap := range cases {
		_, err := DecodeState(snap)
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v, want *SnapshotError", name, err)
		}
	}

	// Structurally valid encodings with inconsistent content must fail
	// closed too: mismatched id, out-of-range cursor, unknown phase.
	for name, st := range map[string]*State{
		"idmismatch": {ID: "deadbeef", Params: p, Phase: PhaseDone},
		"cursor":     {ID: p.Key().String(), Params: p, Phase: PhaseRunning, Step: p.Candidates + 1},
		"phase":      {ID: p.Key().String(), Params: p, Phase: "paused"},
		"nan":        {ID: p.Key().String(), Params: p, Phase: PhaseRunning, BestScore: math.NaN()},
	} {
		_, err := DecodeState(EncodeState(st))
		var se *SnapshotError
		if !errors.As(err, &se) {
			t.Errorf("%s: got %v, want *SnapshotError", name, err)
		}
	}
}

func TestFileStore(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(filepath.Join(dir, "jobs"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Load("missing0000"); err != nil || ok {
		t.Fatalf("missing id: ok=%v err=%v", ok, err)
	}
	if err := s.Save("../evil", []byte("x")); err == nil {
		t.Fatal("path traversal id accepted")
	}
	if err := s.Save("job-1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("job-1", []byte("hello2")); err != nil {
		t.Fatal(err)
	}
	snap, ok, err := s.Load("job-1")
	if err != nil || !ok || string(snap) != "hello2" {
		t.Fatalf("load: %q ok=%v err=%v", snap, ok, err)
	}
	ids, err := s.List()
	if err != nil || !reflect.DeepEqual(ids, []string{"job-1"}) {
		t.Fatalf("list: %v err=%v", ids, err)
	}
	// Stray files are not listed as snapshots.
	os.WriteFile(filepath.Join(s.Dir, "readme.txt"), []byte("x"), 0o644)
	ids, _ = s.List()
	if !reflect.DeepEqual(ids, []string{"job-1"}) {
		t.Fatalf("list with stray file: %v", ids)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("job-1"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
}

func TestJobCompletes(t *testing.T) {
	m := New(Config{Workers: 2})
	defer drainManager(t, m)
	p := testParams(1, 12)
	st, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	fin := waitDone(t, m, st.ID)
	if fin.Phase != PhaseDone {
		t.Fatalf("phase = %s (err %q), want done", fin.Phase, fin.Err)
	}
	if fin.Step != p.Candidates || fin.Evaluated != int64(p.Candidates) {
		t.Fatalf("step %d evaluated %d, want %d", fin.Step, fin.Evaluated, p.Candidates)
	}
	if fin.BaseScore <= 0 || fin.BestScore <= 0 || fin.BestScore > fin.BaseScore {
		t.Fatalf("scores base=%v best=%v", fin.BaseScore, fin.BestScore)
	}
	if fin.StepsUsed <= 0 {
		t.Fatalf("steps used %d", fin.StepsUsed)
	}
	c := m.Counters()
	if c.Completed != 1 || c.Running != 0 || c.Queued != 0 {
		t.Fatalf("counters %+v", c)
	}
}

// gatedStore holds its first Save until release is closed, and closes
// started when that Save arrives.
type gatedStore struct {
	*MemStore
	once             sync.Once
	started, release chan struct{}
}

func (s *gatedStore) Save(id string, snap []byte) error {
	first := false
	s.once.Do(func() { first = true })
	if first {
		close(s.started)
		<-s.release
	}
	return s.MemStore.Save(id, snap)
}

// TestSubmitSnapshotNeverOverwritesNewer: Submit saves a job's initial
// snapshot on the caller's goroutine after a worker may already be
// running the job. That save is held until the job finishes (or, when
// the worker's checkpoints wait for it, for a grace period), and the
// store must still end on the terminal snapshot, not the initial one.
func TestSubmitSnapshotNeverOverwritesNewer(t *testing.T) {
	store := &gatedStore{MemStore: NewMemStore(), started: make(chan struct{}), release: make(chan struct{})}
	m := New(Config{Workers: 1, Store: store})
	defer drainManager(t, m)
	p := testParams(5, 2)
	id := p.Key().String()
	submitted := make(chan error, 1)
	go func() {
		_, err := m.Submit(p)
		submitted <- err
	}()
	<-store.started
	done, ok := m.Done(id)
	if !ok {
		t.Fatal("job not attached while its initial snapshot saves")
	}
	select {
	case <-done:
	case <-time.After(200 * time.Millisecond):
	}
	close(store.release)
	if err := <-submitted; err != nil {
		t.Fatal(err)
	}
	if fin := waitDone(t, m, id); fin.Phase != PhaseDone {
		t.Fatalf("phase = %s (err %q), want done", fin.Phase, fin.Err)
	}
	snap, ok, err := store.Load(id)
	if err != nil || !ok {
		t.Fatalf("no snapshot: ok=%v err=%v", ok, err)
	}
	st, err := DecodeState(snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseDone || st.Step != p.Candidates {
		t.Fatalf("stored snapshot at phase %s step %d, want done at step %d", st.Phase, st.Step, p.Candidates)
	}
}

func TestIdempotentSubmitAndTokenConflict(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainManager(t, m)
	p := testParams(2, 6)
	p.Token = "client-42"
	st1, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	if st1.ID != st2.ID {
		t.Fatalf("idempotent resubmit: %s != %s", st1.ID, st2.ID)
	}
	if c := m.Counters(); c.Replayed != 1 {
		t.Fatalf("replayed = %d, want 1", c.Replayed)
	}
	conflict := testParams(99, 6)
	conflict.Token = "client-42"
	if _, err := m.Submit(conflict); err == nil {
		t.Fatal("token reuse for different params accepted")
	}
	waitDone(t, m, st1.ID)
	// After completion the token still routes to the finished job.
	st3, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	if st3.ID != st1.ID || st3.Phase != PhaseDone {
		t.Fatalf("post-completion resubmit: %+v", st3)
	}
}

func TestQueueFullSheds(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer drainManager(t, m)
	a, err := m.Submit(testParams(10, 500))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a worker picks job A up so B occupies the only queue slot.
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := m.Get(a.ID)
		if st.Phase == PhaseRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	b, err := m.Submit(testParams(11, 500))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testParams(12, 500)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	if c := m.Counters(); c.Shed != 1 {
		t.Fatalf("shed = %d, want 1", c.Shed)
	}
	m.Cancel(a.ID)
	m.Cancel(b.ID)
	waitDone(t, m, a.ID)
	waitDone(t, m, b.ID)
}

func TestCancelRunningJob(t *testing.T) {
	m := New(Config{Workers: 1, CheckpointEvery: 1})
	defer drainManager(t, m)
	st, err := m.Submit(testParams(20, 2000))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m.Get(st.ID)
		if cur.Phase == PhaseRunning && cur.Step >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := m.Cancel(st.ID); !ok {
		t.Fatal("cancel: job unknown")
	}
	fin := waitDone(t, m, st.ID)
	if fin.Phase != PhaseCanceled {
		t.Fatalf("phase = %s, want canceled", fin.Phase)
	}
	if fin.Step >= 2000 {
		t.Fatal("cancel was not cooperative — job ran to completion")
	}
	// The terminal state is checkpointed.
	snap, ok, err := m.cfg.Store.Load(st.ID)
	if err != nil || !ok {
		t.Fatalf("terminal snapshot missing: ok=%v err=%v", ok, err)
	}
	dec, err := DecodeState(snap)
	if err != nil || dec.Phase != PhaseCanceled {
		t.Fatalf("terminal snapshot: %+v err=%v", dec, err)
	}
	if c := m.Counters(); c.Canceled != 1 {
		t.Fatalf("canceled counter = %d", c.Canceled)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	defer drainManager(t, m)
	a, err := m.Submit(testParams(30, 2000))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, _ := m.Get(a.ID)
		if st.Phase == PhaseRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job A never started")
		}
		time.Sleep(time.Millisecond)
	}
	b, err := m.Submit(testParams(31, 2000))
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := m.Get(b.ID); st.Phase != "queued" {
		t.Fatalf("job B phase = %s, want queued", st.Phase)
	}
	m.Cancel(b.ID)
	m.Cancel(a.ID)
	finB := waitDone(t, m, b.ID)
	if finB.Phase != PhaseCanceled {
		t.Fatalf("queued cancel: phase %s", finB.Phase)
	}
	if finB.Evaluated != 0 {
		t.Fatalf("queued cancel evaluated %d candidates", finB.Evaluated)
	}
	waitDone(t, m, a.ID)
}

// TestPanicPassDegradesCandidateOnly is the fault-isolation acceptance
// check: an injected panic inside one pass fails only that candidate —
// with a typed error surfaced through the degraded counters — and the
// job still completes with a usable best recipe.
func TestPanicPassDegradesCandidateOnly(t *testing.T) {
	panicArmed.Store(true)
	defer panicArmed.Store(false)
	m := New(Config{Workers: 1})
	defer drainManager(t, m)
	var fin *Status
	for seed := int64(0); seed < 8; seed++ {
		st, err := m.Submit(testParams(100+seed, 24))
		if err != nil {
			t.Fatal(err)
		}
		fin = waitDone(t, m, st.ID)
		if fin.Phase != PhaseDone {
			t.Fatalf("seed %d: phase %s (err %q)", seed, fin.Phase, fin.Err)
		}
		if fin.Degraded > 0 {
			break
		}
	}
	if fin.Degraded == 0 {
		t.Fatal("no candidate ever drew the panicking pass")
	}
	if fin.LastError == "" {
		t.Fatal("degraded candidate left no typed error detail")
	}
	if fin.Evaluated != int64(fin.Candidates) || fin.BestScore <= 0 {
		t.Fatalf("job did not complete past the panic: %+v", fin)
	}
}

// TestWatchdogFailsStalledPass drives evalCandidate directly against a
// pass that never returns: the watchdog must cancel it through the
// budget context and surface a typed *StallError, without hanging.
func TestWatchdogFailsStalledPass(t *testing.T) {
	stallArmed.Store(true)
	defer stallArmed.Store(false)
	m := New(Config{Workers: 1, StallTimeout: 50 * time.Millisecond})
	defer drainManager(t, m)
	p := testParams(40, 1)
	d, w, err := recipe.Build(p.Spec, p.Seed, p.EvalCycles, p.VerifyCycles)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{id: "stall-test", ctx: ctx, cancel: cancel}
	var ev evaluator
	ev.start()
	defer ev.stop()
	start := time.Now()
	r := m.evalCandidate(&ev, j, p, d, w, []string{"zz-inject-stall"}, nil, nil)
	if !errors.Is(r.err, ErrStalled) {
		t.Fatalf("got %v, want ErrStalled", r.err)
	}
	var se *StallError
	if !errors.As(r.err, &se) || se.Timeout != 50*time.Millisecond {
		t.Fatalf("stall error not typed: %v", r.err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v", elapsed)
	}
}

// TestWatchdogAbandonsHungPass drives evalCandidate against a pass
// that ignores its budget: the watchdog abandons it after the grace
// period with a typed *StallError and gives the evaluator a new
// goroutine, which runs the next candidate while the hung pass is still
// blocked. The abandoned goroutine delivers its result once the pass
// returns.
func TestWatchdogAbandonsHungPass(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	stallArmed.Store(true)
	defer stallArmed.Store(false)
	stallHang.Store(&release)
	defer stallHang.Store(nil)
	m := New(Config{Workers: 1, StallTimeout: 20 * time.Millisecond})
	defer drainManager(t, m)
	p := testParams(41, 1)
	d, w, err := recipe.Build(p.Spec, p.Seed, p.EvalCycles, p.VerifyCycles)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{id: "hang-test", ctx: ctx, cancel: cancel}
	var ev evaluator
	ev.start()
	defer ev.stop()
	hungOut := ev.out
	r := m.evalCandidate(&ev, j, p, d, w, []string{"zz-inject-stall"}, nil, nil)
	var se *StallError
	if !errors.As(r.err, &se) || r.used != 0 {
		t.Fatalf("got %+v, want an abandoned *StallError", r)
	}
	if ev.out == hungOut {
		t.Fatal("the evaluator still waits on the abandoned goroutine")
	}
	if r := m.evalCandidate(&ev, j, p, d, w, []string{"retime"}, nil, nil); r.err != nil || r.score <= 0 {
		t.Fatalf("next candidate after the abandon: %+v", r)
	}
	release <- struct{}{}
	select {
	case <-hungOut:
	case <-time.After(10 * time.Second):
		t.Fatal("the abandoned evaluation never finished")
	}
}

// TestStallCounterThroughEngine runs whole jobs with the stalling pass
// armed until one draws it, checking the engine records the stall and
// completes the job anyway.
func TestStallCounterThroughEngine(t *testing.T) {
	stallArmed.Store(true)
	defer stallArmed.Store(false)
	m := New(Config{Workers: 2, StallTimeout: 30 * time.Millisecond})
	defer drainManager(t, m)
	for seed := int64(0); seed < 8; seed++ {
		st, err := m.Submit(testParams(200+seed, 16))
		if err != nil {
			t.Fatal(err)
		}
		fin := waitDone(t, m, st.ID)
		if fin.Phase != PhaseDone {
			t.Fatalf("seed %d: phase %s (err %q)", seed, fin.Phase, fin.Err)
		}
		if m.Counters().Stalls > 0 {
			return
		}
	}
	t.Fatal("no candidate ever drew the stalling pass")
}

// TestCacheNeutrality checks the prefix cache is invisible to results:
// the same job run with and without a memo cache lands on bit-identical
// best score, recipe, and budget accounting.
func TestCacheNeutrality(t *testing.T) {
	p := testParams(7, 40)

	plain := New(Config{Workers: 1})
	defer drainManager(t, plain)
	st, err := plain.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := waitDone(t, plain, st.ID)

	cacheObj := memo.New(memo.Options{MaxBytes: 1 << 20})
	cached := New(Config{Workers: 1, Cache: func() *memo.Cache { return cacheObj }})
	defer drainManager(t, cached)
	st2, err := cached.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	got := waitDone(t, cached, st2.ID)

	if math.Float64bits(got.BestScore) != math.Float64bits(ref.BestScore) {
		t.Fatalf("best score %v != %v", got.BestScore, ref.BestScore)
	}
	if !reflect.DeepEqual(got.BestRecipe, ref.BestRecipe) {
		t.Fatalf("best recipe %v != %v", got.BestRecipe, ref.BestRecipe)
	}
	if got.StepsUsed != ref.StepsUsed {
		t.Fatalf("steps used %d != %d (cache warmth leaked into accounting)", got.StepsUsed, ref.StepsUsed)
	}
	if got.CacheHits == 0 {
		t.Fatal("cached run recorded no prefix hits")
	}
}

// jobCaches is a Config.Cache func that returns a fresh cache on every
// call, as powerd wires it, and records what it returned.
type jobCaches struct {
	mu     sync.Mutex
	caches []*memo.Cache
}

func (jc *jobCaches) next() *memo.Cache {
	c := memo.New(memo.Options{MaxBytes: 8 << 20, Shards: 1})
	jc.mu.Lock()
	jc.caches = append(jc.caches, c)
	jc.mu.Unlock()
	return c
}

// TestJobCacheServesWholeJob: a job calls Config.Cache once, when it
// starts, and its baseline and every candidate go through the cache
// that call returned.
func TestJobCacheServesWholeJob(t *testing.T) {
	var jc jobCaches
	m := New(Config{Workers: 1, Cache: jc.next})
	defer drainManager(t, m)
	for i, p := range []Params{testParams(9, 24), testParams(10, 24)} {
		st, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		fin := waitDone(t, m, st.ID)
		if len(jc.caches) != i+1 {
			t.Fatalf("job %d: Config.Cache called %d times over %d jobs", i, len(jc.caches), i+1)
		}
		c := jc.caches[i]
		// Every candidate looks up at least its first prefix, and the
		// baseline its score.
		s := c.Stats()
		if lookups := s.Hits + s.Misses + s.Collapsed; lookups < fin.Evaluated+1 || s.Hits < fin.CacheHits {
			t.Fatalf("job %d: %+v over %d candidates with %d prefix hits", i, s, fin.Evaluated, fin.CacheHits)
		}
		d, _, err := recipe.Build(p.Spec, p.Seed, p.EvalCycles, p.VerifyCycles)
		if err != nil {
			t.Fatal(err)
		}
		_, stored, _ := c.Do(scoreKey(p, d), func() (any, int64, bool, error) {
			return nil, 0, false, errors.New("absent")
		})
		if !stored {
			t.Fatalf("job %d: the baseline's score is not in the job's cache", i)
		}
	}
}

// TestJobCacheHitsAreJobScoped: two jobs that differ only in token
// share no cache, so each records the prefix hits of its own search.
// Over one shared cache the second would hit the first's entries too.
func TestJobCacheHitsAreJobScoped(t *testing.T) {
	var jc jobCaches
	m := New(Config{Workers: 1, Cache: jc.next})
	defer drainManager(t, m)
	p := pinnedJob{spec: recipe.Spec{Kind: recipe.KindFSM, States: 4, Inputs: 1, Outputs: 2}, seed: 52}.params()
	for _, token := range []string{"first", "second"} {
		p.Token = token
		st, err := m.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		if fin := waitDone(t, m, st.ID); fin.Phase != PhaseDone || fin.CacheHits != 22 {
			t.Fatalf("token %s: phase %s, %d cache hits, want 22", token, fin.Phase, fin.CacheHits)
		}
	}
}

// TestDrainResumeBitIdentity is the durability acceptance check: a job
// drained mid-search and resumed by a fresh manager over the same store
// converges to a Float64bits-identical best recipe and score versus an
// uninterrupted run of the same params.
func TestDrainResumeBitIdentity(t *testing.T) {
	for _, candidates := range []int{120, 600, 2000} {
		p := testParams(8, candidates)

		// Uninterrupted reference.
		refM := New(Config{Workers: 1})
		st, err := refM.Submit(p)
		if err != nil {
			t.Fatal(err)
		}
		ref := waitDone(t, refM, st.ID)
		drainManager(t, refM)
		if ref.Phase != PhaseDone {
			t.Fatalf("reference phase %s (err %q)", ref.Phase, ref.Err)
		}

		// Interrupted run: drain mid-search, then resume on a fresh
		// manager sharing the store (the "restarted node").
		store := NewMemStore()
		m1 := New(Config{Workers: 1, CheckpointEvery: 1, Store: store})
		if _, err := m1.Submit(p); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			cur, _ := m1.Get(st.ID)
			if cur.Step >= 3 || cur.Phase != PhaseRunning && cur.Phase != "queued" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job never progressed")
			}
		}
		drainManager(t, m1)

		snap, ok, err := store.Load(st.ID)
		if err != nil || !ok {
			t.Fatalf("no checkpoint after drain: ok=%v err=%v", ok, err)
		}
		mid, err := DecodeState(snap)
		if err != nil {
			t.Fatalf("drain checkpoint undecodable: %v", err)
		}
		if mid.Phase != PhaseRunning || mid.Step == 0 || mid.Step >= candidates {
			// The whole job fit before the drain landed; try a longer one.
			continue
		}

		m2 := New(Config{Workers: 1, Store: store})
		n, err := m2.Recover()
		if err != nil || n != 1 {
			t.Fatalf("recover: n=%d err=%v", n, err)
		}
		fin := waitDone(t, m2, st.ID)
		drainManager(t, m2)
		if fin.Phase != PhaseDone {
			t.Fatalf("resumed phase %s (err %q)", fin.Phase, fin.Err)
		}
		if !fin.Resumed {
			t.Fatal("resumed run not flagged as resumed")
		}

		if math.Float64bits(fin.BestScore) != math.Float64bits(ref.BestScore) {
			t.Fatalf("best score %v != reference %v", fin.BestScore, ref.BestScore)
		}
		if !reflect.DeepEqual(fin.BestRecipe, ref.BestRecipe) {
			t.Fatalf("best recipe %v != reference %v", fin.BestRecipe, ref.BestRecipe)
		}
		if fin.BaseScore != ref.BaseScore || fin.Step != ref.Step || fin.Evaluated != ref.Evaluated {
			t.Fatalf("resumed trajectory diverged: %+v vs %+v", fin, ref)
		}
		if fin.StepsUsed != ref.StepsUsed {
			t.Fatalf("steps used %d != reference %d", fin.StepsUsed, ref.StepsUsed)
		}
		return
	}
	t.Fatal("drain never landed mid-search even on the largest job")
}

// TestResumeFromFileStoreAcrossManagers covers the cross-process shape
// of resume: file-backed snapshots, fresh manager, Recover.
func TestResumeFromFileStoreAcrossManagers(t *testing.T) {
	dir := t.TempDir()
	store, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := testParams(9, 2000)
	m1 := New(Config{Workers: 1, CheckpointEvery: 1, Store: store})
	st, err := m1.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m1.Get(st.ID)
		if cur.Step >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never progressed")
		}
		time.Sleep(time.Millisecond)
	}
	drainManager(t, m1)

	m2 := New(Config{Workers: 1, Store: store})
	defer drainManager(t, m2)
	n, err := m2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	// Idempotent resubmission while the recovered job runs attaches to it.
	st2, err := m2.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID {
		t.Fatalf("resubmit made a new job: %s != %s", st2.ID, st.ID)
	}
	m2.Cancel(st.ID)
	fin := waitDone(t, m2, st.ID)
	if fin.Phase != PhaseCanceled {
		t.Fatalf("phase %s", fin.Phase)
	}
}

func TestRecoverSkipsCorruptAndTerminal(t *testing.T) {
	store := NewMemStore()
	p := testParams(50, 4)
	doneState := &State{ID: p.Key().String(), Params: p, Phase: PhaseDone, BaselineDone: true, Step: 4}
	store.Save(doneState.ID, EncodeState(doneState))
	store.Save("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", []byte("garbage snapshot"))

	m := New(Config{Workers: 1, Store: store})
	defer drainManager(t, m)
	n, err := m.Recover()
	if n != 0 {
		t.Fatalf("recovered %d jobs from terminal+corrupt store", n)
	}
	var se *SnapshotError
	if !errors.As(err, &se) {
		t.Fatalf("corrupt snapshot not reported: %v", err)
	}
	// The terminal job is still queryable through the store.
	st, ok := m.Get(doneState.ID)
	if !ok || st.Phase != PhaseDone {
		t.Fatalf("terminal snapshot not served: %+v ok=%v", st, ok)
	}
}

func TestSubmitAttachesTerminalSnapshot(t *testing.T) {
	store := NewMemStore()
	p := testParams(60, 4)
	fin := &State{ID: p.Key().String(), Params: p, Phase: PhaseDone, BaselineDone: true,
		Step: 4, Evaluated: 4, BaseScore: 10, BestScore: 9, BestRecipe: []string{"guard"}}
	store.Save(fin.ID, EncodeState(fin))

	m := New(Config{Workers: 1, Store: store})
	defer drainManager(t, m)
	st, err := m.Submit(p)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != PhaseDone || st.Evaluated != 4 || st.BestScore != 9 {
		t.Fatalf("terminal attach: %+v", st)
	}
	ch, ok := m.Done(st.ID)
	if !ok {
		t.Fatal("no done channel")
	}
	select {
	case <-ch:
	default:
		t.Fatal("terminal job's done channel not closed")
	}
}

func TestSubmitWhileDrainingRejected(t *testing.T) {
	m := New(Config{Workers: 1})
	drainManager(t, m)
	if _, err := m.Submit(testParams(70, 4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("got %v, want ErrDraining", err)
	}
}

func TestSubmitRejectsBadParams(t *testing.T) {
	m := New(Config{Workers: 1})
	defer drainManager(t, m)
	bad := testParams(80, 4)
	bad.Spec.Circuit = "alu"
	if _, err := m.Submit(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
	unnorm := testParams(81, 4)
	unnorm.EvalSteps = 0
	if _, err := m.Submit(unnorm); err == nil {
		t.Fatal("unnormalized params accepted")
	}
}
