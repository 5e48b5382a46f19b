// Package jobs is the durable optimization-job engine behind
// /v1/optimize: a bounded pool of workers runs deterministic seeded
// recipe searches (internal/recipe) whose entire state checkpoints to
// a pluggable Store. The design invariant is that (Params, State) is
// sufficient to continue a search exactly: a drained or killed node
// resumes from its last checkpoint and converges to a Float64bits-
// identical best recipe and score versus an uninterrupted run, because
// every random draw is a pure function of checkpointed values and
// every candidate evaluation runs under a fresh fixed-size budget.
package jobs

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/memo"
	"hlpower/internal/recipe"
)

// Typed submission failures.
var (
	// ErrQueueFull sheds submissions past QueueDepth (HTTP 429).
	ErrQueueFull = errors.New("jobs: queue full")
	// ErrDraining rejects submissions during graceful drain (HTTP 503).
	ErrDraining = errors.New("jobs: draining")
)

// DefaultWorkers is Config.Workers' default.
const DefaultWorkers = 2

// Config tunes a Manager. Zero values take defaults.
type Config struct {
	Workers         int           // concurrent jobs (default DefaultWorkers)
	QueueDepth      int           // queued-but-unstarted jobs before shedding (default 16)
	CheckpointEvery int           // candidates between periodic checkpoints (default 8)
	StallTimeout    time.Duration // watchdog limit per candidate (default 30s)

	Store Store // checkpoint store (default in-memory)

	// Cache, when set, is called once when a job starts and returns the
	// memo cache that job's baseline and every candidate share for
	// prefix designs, controllers and scores (nil disables, mirroring
	// the serving layer's fault-plan honesty gate). A func that returns
	// a fresh cache gives each job a cache that lives exactly as long as
	// the job; one that returns the same cache shares entries across
	// jobs. Plan, when set, returns the fault-injection plan to arm
	// candidate budgets with.
	Cache func() *memo.Cache
	Plan  func() *budget.FaultPlan
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = DefaultWorkers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
	if c.StallTimeout <= 0 {
		c.StallTimeout = 30 * time.Second
	}
	if c.Store == nil {
		c.Store = NewMemStore()
	}
	return c
}

// Counters is a point-in-time snapshot of the engine's gauges and
// totals for /v1/stats.
type Counters struct {
	Submitted    int64 `json:"submitted"`
	Replayed     int64 `json:"replayed"` // idempotent resubmissions answered from an existing job
	Resumed      int64 `json:"resumed"`  // jobs continued from a checkpoint
	Completed    int64 `json:"completed"`
	Failed       int64 `json:"failed"`
	Canceled     int64 `json:"canceled"`
	Checkpointed int64 `json:"checkpointed"` // snapshots written
	Stalls       int64 `json:"stalls"`
	Shed         int64 `json:"shed"` // submissions rejected with ErrQueueFull
	SaveErrors   int64 `json:"save_errors"`
	Queued       int64 `json:"queued"`  // gauge
	Running      int64 `json:"running"` // gauge
}

// Status is the wire-ready view of one job.
type Status struct {
	ID         string   `json:"id"`
	Token      string   `json:"token,omitempty"`
	Phase      string   `json:"phase"` // queued | running | done | failed | canceled
	Step       int      `json:"step"`
	Candidates int      `json:"candidates"`
	BaseScore  float64  `json:"base_score"`
	BestScore  float64  `json:"best_score"`
	BestRecipe []string `json:"best_recipe"`
	Evaluated  int64    `json:"evaluated"`
	Degraded   int64    `json:"degraded"`
	CacheHits  int64    `json:"cache_hits"`
	StepsUsed  int64    `json:"steps_used"`
	Resumed    bool     `json:"resumed"`
	Exhausted  bool     `json:"exhausted,omitempty"`
	Err        string   `json:"error,omitempty"`
	LastError  string   `json:"last_error,omitempty"`
}

type job struct {
	id string
	mu sync.Mutex
	// saveMu orders the job's checkpoints. Submit saves the initial
	// snapshot after a worker may already be running the job, so
	// without it a snapshot encoded first could be saved last and
	// overwrite a newer one, even a terminal one.
	saveMu  sync.Mutex
	st      *State
	started bool
	resumed bool
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{} // closed when the job reaches a terminal phase or drains
}

// Manager runs and supervises jobs.
type Manager struct {
	cfg Config

	mu     sync.Mutex
	jobs   map[string]*job
	tokens map[string]string // idempotency token -> job id

	queue     chan *job
	drainOnce sync.Once
	drainCh   chan struct{}
	draining  atomic.Bool
	wg        sync.WaitGroup

	submitted, replayed, resumed           atomic.Int64
	completed, failed, canceled            atomic.Int64
	checkpointed, stalls, shed, saveErrors atomic.Int64
	queued, running                        atomic.Int64
}

// New starts a Manager with cfg.Workers worker goroutines.
func New(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:     cfg,
		jobs:    map[string]*job{},
		tokens:  map[string]string{},
		queue:   make(chan *job, cfg.QueueDepth),
		drainCh: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// cache returns a job's memo cache; run calls it once per job.
func (m *Manager) cache() *memo.Cache {
	if m.cfg.Cache == nil {
		return nil
	}
	return m.cfg.Cache()
}

func (m *Manager) plan() *budget.FaultPlan {
	if m.cfg.Plan == nil {
		return nil
	}
	return m.cfg.Plan()
}

// Counters snapshots the engine counters.
func (m *Manager) Counters() Counters {
	return Counters{
		Submitted:    m.submitted.Load(),
		Replayed:     m.replayed.Load(),
		Resumed:      m.resumed.Load(),
		Completed:    m.completed.Load(),
		Failed:       m.failed.Load(),
		Canceled:     m.canceled.Load(),
		Checkpointed: m.checkpointed.Load(),
		Stalls:       m.stalls.Load(),
		Shed:         m.shed.Load(),
		SaveErrors:   m.saveErrors.Load(),
		Queued:       m.queued.Load(),
		Running:      m.running.Load(),
	}
}

// Submit starts (or idempotently re-attaches to) the job named by the
// params' content key. The same token + params always lands on the
// same job; a token reused for different work is a typed input error.
// A matching checkpoint in the store resumes instead of restarting.
func (m *Manager) Submit(p Params) (*Status, error) {
	if err := p.Spec.Validate(); err != nil {
		return nil, err
	}
	if p.Candidates < 1 || p.EvalCycles < 2 || p.VerifyCycles < 2 || p.EvalSteps < 1 {
		return nil, hlerr.Errorf("jobs.submit", "params not normalized")
	}
	if m.draining.Load() {
		return nil, ErrDraining
	}
	id := p.Key().String()

	m.mu.Lock()
	if prev, ok := m.tokens[p.Token]; ok && p.Token != "" && prev != id {
		m.mu.Unlock()
		return nil, hlerr.Errorf("jobs.submit", "token %q already used by job %s", p.Token, prev)
	}
	if j, ok := m.jobs[id]; ok {
		m.mu.Unlock()
		m.replayed.Add(1)
		return m.status(j), nil
	}

	// Not attached: a checkpoint may exist (prior process, or a dead
	// ring peer sharing the store).
	st := &State{ID: id, Params: p, Phase: PhaseRunning, BestScore: math.Inf(1)}
	resumed := false
	if snap, ok, err := m.cfg.Store.Load(id); err == nil && ok {
		if dec, derr := DecodeState(snap); derr == nil {
			st = dec
			resumed = true
		} else {
			// Fail closed: never resume questionable state. The job
			// restarts from scratch under the same identity and the
			// first checkpoint overwrites the bad snapshot.
			m.saveErrors.Add(1)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{id: id, st: st, resumed: resumed, ctx: ctx, cancel: cancel, done: make(chan struct{})}
	if st.Phase != PhaseRunning {
		// Terminal snapshot: attach as finished, nothing to run.
		close(j.done)
		m.jobs[id] = j
		if p.Token != "" {
			m.tokens[p.Token] = id
		}
		m.mu.Unlock()
		m.submitted.Add(1)
		return m.status(j), nil
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel()
		m.shed.Add(1)
		return nil, ErrQueueFull
	}
	m.jobs[id] = j
	if p.Token != "" {
		m.tokens[p.Token] = id
	}
	m.mu.Unlock()

	m.submitted.Add(1)
	if resumed {
		m.resumed.Add(1)
	}
	m.queued.Add(1)
	// Persist the initial state so even a submission that never gets a
	// worker slot before a crash is recoverable.
	if !resumed {
		m.checkpoint(j)
	}
	return m.status(j), nil
}

// Get returns the job's status: a live attached job if the manager
// knows it, else a snapshot from the store (e.g. after a restart, or a
// job checkpointed by a dead peer against a shared store).
func (m *Manager) Get(id string) (*Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if ok {
		return m.status(j), true
	}
	snap, ok, err := m.cfg.Store.Load(id)
	if err != nil || !ok {
		return nil, false
	}
	st, err := DecodeState(snap)
	if err != nil {
		return nil, false
	}
	s := statusOf(st, false, false)
	return s, true
}

// Cancel requests cooperative cancellation: the job's context cancels
// every in-flight candidate budget, the search loop observes it at the
// next step boundary, checkpoints the terminal state, and completes as
// canceled. Canceling an already-terminal job is a no-op.
func (m *Manager) Cancel(id string) (*Status, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	if j.st.Phase == PhaseRunning && !j.started {
		// Not yet picked up by a worker: cancel immediately; the worker
		// will observe the terminal phase and skip the run.
		j.st.Phase = PhaseCanceled
	}
	j.mu.Unlock()
	j.cancel()
	return m.status(j), true
}

// Done exposes the job's completion channel for tests and pollers.
func (m *Manager) Done(id string) (<-chan struct{}, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, false
	}
	return j.done, true
}

// Recover re-enqueues every non-terminal checkpoint in the store —
// called once at startup so a restarted node picks its jobs back up
// without waiting for clients to resubmit. Undecodable snapshots are
// skipped (fail closed) and reported via the first error.
func (m *Manager) Recover() (int, error) {
	ids, err := m.cfg.Store.List()
	if err != nil {
		return 0, err
	}
	n := 0
	var firstErr error
	for _, id := range ids {
		snap, ok, err := m.cfg.Store.Load(id)
		if err != nil || !ok {
			continue
		}
		st, err := DecodeState(snap)
		if err != nil {
			m.saveErrors.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if st.Phase != PhaseRunning {
			continue
		}
		m.mu.Lock()
		if _, attached := m.jobs[st.ID]; attached {
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &job{id: st.ID, st: st, resumed: true, ctx: ctx, cancel: cancel, done: make(chan struct{})}
		select {
		case m.queue <- j:
			m.jobs[st.ID] = j
			if st.Params.Token != "" {
				m.tokens[st.Params.Token] = st.ID
			}
			m.mu.Unlock()
			m.queued.Add(1)
			m.resumed.Add(1)
			n++
		default:
			m.mu.Unlock()
			cancel()
			// Queue full: leave the snapshot for a later Recover or an
			// idempotent resubmission.
		}
	}
	return n, firstErr
}

// Drain checkpoints every running job at its next step boundary and
// stops the workers. Queued jobs already have their initial snapshot,
// so nothing is lost; nothing is marked canceled. After Drain returns
// the store holds a resumable snapshot of every incomplete job.
func (m *Manager) Drain(ctx context.Context) error {
	m.draining.Store(true)
	m.drainOnce.Do(func() { close(m.drainCh) })
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Manager) worker() {
	defer m.wg.Done()
	var ev evaluator
	ev.start()
	defer ev.stop()
	for {
		select {
		case <-m.drainCh:
			return
		default:
		}
		select {
		case <-m.drainCh:
			return
		case j := <-m.queue:
			m.run(j, &ev)
		}
	}
}

// checkpoint persists the job's current state. Save failures are
// counted but do not fail the job: durability degrades, correctness
// does not.
func (m *Manager) checkpoint(j *job) {
	j.saveMu.Lock()
	defer j.saveMu.Unlock()
	j.mu.Lock()
	snap := EncodeState(j.st)
	j.mu.Unlock()
	if err := m.cfg.Store.Save(j.id, snap); err != nil {
		m.saveErrors.Add(1)
		return
	}
	m.checkpointed.Add(1)
}

func (m *Manager) status(j *job) *Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return statusOf(j.st, j.started, j.resumed)
}

func statusOf(st *State, started, resumed bool) *Status {
	phase := st.Phase
	if phase == PhaseRunning && !started {
		phase = "queued"
	}
	best := st.BestScore
	if math.IsInf(best, 1) {
		best = 0
	}
	return &Status{
		ID:         st.ID,
		Token:      st.Params.Token,
		Phase:      phase,
		Step:       st.Step,
		Candidates: st.Params.Candidates,
		BaseScore:  st.BaseScore,
		BestScore:  best,
		BestRecipe: append([]string(nil), st.BestRecipe...),
		Evaluated:  st.Evaluated,
		Degraded:   st.Degraded,
		CacheHits:  st.CacheHits,
		StepsUsed:  st.StepsUsed,
		Resumed:    resumed,
		Exhausted:  st.Exhausted,
		Err:        st.Err,
		LastError:  st.LastError,
	}
}

// finalize records a terminal phase, checkpoints it, and releases
// pollers.
func (m *Manager) finalize(j *job, phase, errMsg string) {
	j.mu.Lock()
	j.st.Phase = phase
	if errMsg != "" {
		j.st.Err = errMsg
	}
	j.mu.Unlock()
	m.checkpoint(j)
	switch phase {
	case PhaseDone:
		m.completed.Add(1)
	case PhaseFailed:
		m.failed.Add(1)
	case PhaseCanceled:
		m.canceled.Add(1)
	}
	close(j.done)
}

// run executes one job's search loop from wherever its state points,
// evaluating its candidates on the worker's evaluator.
func (m *Manager) run(j *job, ev *evaluator) {
	m.queued.Add(-1)
	j.mu.Lock()
	if j.st.Phase != PhaseRunning {
		// Canceled while queued (or attached terminal state).
		phase := j.st.Phase
		j.mu.Unlock()
		m.running.Add(1)
		defer m.running.Add(-1)
		m.finalize(j, phase, "")
		return
	}
	j.started = true
	p := j.st.Params
	j.mu.Unlock()

	m.running.Add(1)
	defer m.running.Add(-1)

	design, workload, err := recipe.Build(p.Spec, p.Seed, p.EvalCycles, p.VerifyCycles)
	if err != nil {
		m.finalize(j, PhaseFailed, err.Error())
		return
	}
	vocab := recipe.Vocabulary(p.Spec.Kind)
	if len(vocab) == 0 {
		m.finalize(j, PhaseFailed, "no passes registered for kind "+p.Spec.Kind)
		return
	}

	// The job's memo cache: the baseline and every candidate share it,
	// and it is dropped with the job.
	cache := m.cache()

	// Baseline: the empty recipe's deterministic score seeds the
	// best-so-far memory. A baseline that cannot be scored fails the
	// job — there is nothing meaningful to search.
	j.mu.Lock()
	if !j.st.BaselineDone {
		j.mu.Unlock()
		r := evaluate(j.ctx, p, design, workload, nil, nil, cache)
		if r.err != nil {
			m.finalize(j, PhaseFailed, "baseline: "+r.err.Error())
			return
		}
		j.mu.Lock()
		j.st.BaselineDone = true
		j.st.BaseScore = r.score
		j.st.BestScore = r.score
		j.st.BestRecipe = nil
		j.st.StepsUsed += r.used
		j.mu.Unlock()
		m.checkpoint(j)
	} else {
		j.mu.Unlock()
	}

	for {
		j.mu.Lock()
		st := j.st
		if st.Step >= p.Candidates {
			j.mu.Unlock()
			break
		}
		if j.ctx.Err() != nil {
			j.mu.Unlock()
			m.finalize(j, PhaseCanceled, "")
			return
		}
		if m.draining.Load() {
			// Leave phase running: the checkpoint is the hand-off.
			j.mu.Unlock()
			m.checkpoint(j)
			close(j.done)
			return
		}
		if p.MaxTotalSteps > 0 && st.StepsUsed >= p.MaxTotalSteps {
			st.Exhausted = true
			j.mu.Unlock()
			break
		}
		step := st.Step
		best := append([]string(nil), st.BestRecipe...)
		j.mu.Unlock()

		names := candidateRecipe(p.Seed, step, best, vocab, p.MaxRecipeLen)

		var plan *budget.FaultPlan
		if pl := m.plan(); pl != nil {
			cp := *pl
			if cp.Prob > 0 {
				// Vary the trip point per candidate, deterministically.
				cp.Seed += int64(step) + 1
			}
			plan = &cp
		}
		r := m.evalCandidate(ev, j, p, design, workload, names, plan, cache)
		if errors.Is(r.err, ErrStalled) {
			m.stalls.Add(1)
		}

		j.mu.Lock()
		st.Evaluated++
		st.StepsUsed += r.used
		st.CacheHits += r.hits
		if r.err != nil {
			if j.ctx.Err() != nil {
				// Cancellation, not a candidate failure.
				j.mu.Unlock()
				m.finalize(j, PhaseCanceled, "")
				return
			}
			st.Degraded++
			st.LastError = r.err.Error()
		} else if r.score < st.BestScore {
			st.BestScore = r.score
			st.BestRecipe = append([]string(nil), names...)
		}
		st.Step++
		every := st.Step%m.cfg.CheckpointEvery == 0
		j.mu.Unlock()
		if every {
			m.checkpoint(j)
		}
	}
	m.finalize(j, PhaseDone, "")
}
