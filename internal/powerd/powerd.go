// Package powerd is the resilient estimation service: it exposes the
// repo's estimation engines (gate-level simulation, candidate ranking,
// BDD sizing, macro-model prediction) over HTTP/JSON and keeps them
// available under partial failure. Identical concurrent requests share
// one flight: a computation the server owns, run once on a resource
// budget of its own (deadline + step allowance) and canceled only when
// every client waiting on it has gone. The estimators are pure, so a
// failed flight is answered with its typed error rather than retried.
// Admission control bounds the number of queued requests and sheds the
// excess with 429 + Retry-After instead of letting latency grow without
// bound. A runtime-settable fault plan injects budget trips into the
// live serving path, which is how the chaos soak test exercises every
// failure path.
package powerd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hlpower/internal/bdd"
	"hlpower/internal/budget"
	"hlpower/internal/cluster"
	"hlpower/internal/hlerr"
	"hlpower/internal/jobs"
	"hlpower/internal/memo"
	"hlpower/internal/resilience"
	"hlpower/internal/service"
)

// Config tunes the service. The zero value is usable: DefaultConfig
// fills every field NewServer would otherwise default.
type Config struct {
	// Workers is the number of requests estimated concurrently.
	Workers int
	// QueueDepth bounds how many admitted requests may wait for a
	// worker slot before the server starts shedding with 429.
	QueueDepth int
	// RequestTimeout is each flight's budget deadline.
	RequestTimeout time.Duration
	// MaxSteps is each flight's step allowance (0 = unlimited).
	MaxSteps int64
	// CheckInterval is the budget check spacing; small values make
	// injected faults fire early, large values amortize check cost.
	CheckInterval int64
	// MemoMaxBytes sizes the content-addressed estimate cache: 0 means
	// the memo package default (64 MiB), negative disables memoization
	// entirely. It also sizes the optimization jobs' memo caches (see
	// JobMemo): each job gets a cache of its own that lives exactly as
	// long as the job, so the estimate cache holds estimates only.
	MemoMaxBytes int64
	// DrainTimeout bounds graceful shutdown: how long Drain waits for
	// in-flight requests, and the Retry-After hint handed to requests
	// arriving mid-drain (0 = DefaultConfig's 30s).
	DrainTimeout time.Duration
	// BatchTimeout bounds one whole /v1/batch request, buffered or
	// streamed; each item inside it still runs as a flight with a
	// RequestTimeout/MaxSteps budget of its own (0 = DefaultConfig's 2m).
	BatchTimeout time.Duration
	// BatchSteps is the aggregate step ceiling across one batch's
	// locally computed items: once the batch's summed StepsUsed reaches
	// it, every remaining item fails with a typed budget error (0 =
	// DefaultConfig's 64 requests' worth of MaxSteps; negative =
	// unlimited).
	BatchSteps int64
	// JobWorkers is the number of optimization jobs run concurrently
	// (default jobs.DefaultWorkers); JobQueueDepth bounds
	// queued-but-unstarted jobs before /v1/optimize sheds with 429
	// (default 16).
	JobWorkers    int
	JobQueueDepth int
	// JobCheckpointEvery is how many candidate evaluations may elapse
	// between periodic checkpoints (default 8); JobStallTimeout is the
	// per-candidate watchdog limit (default 30s).
	JobCheckpointEvery int
	JobStallTimeout    time.Duration
	// JobEvalSteps is the per-candidate step budget (0 = MaxSteps);
	// JobMaxTotalSteps caps one job's aggregate steps across all its
	// candidates (0 = unlimited).
	JobEvalSteps     int64
	JobMaxTotalSteps int64
	// JobStore persists job checkpoints. nil means in-memory (jobs
	// survive drain within the process, not a restart); cmd/powerd
	// passes a file-backed store for crash recovery.
	JobStore jobs.Store
	// CodegenAfter is the artifact hotness threshold after which a hot
	// netlist's compiled artifact is promoted to the specialized
	// (codegen) kernel tier, built off the request path. Zero means
	// service.DefaultCodegenAfter; negative disables promotion.
	CodegenAfter int
	// Clock times the drain window and, in cluster mode, the ring's
	// gossip and per-peer breakers; tests swap in resilience.Fake for
	// deterministic schedules.
	Clock resilience.Clock
}

// DefaultConfig returns production-shaped settings.
func DefaultConfig() Config {
	return Config{
		Workers:        runtime.GOMAXPROCS(0),
		QueueDepth:     64,
		RequestTimeout: 5 * time.Second,
		MaxSteps:       50_000_000,
		CheckInterval:  budget.DefaultCheckInterval,
		DrainTimeout:   30 * time.Second,
		BatchTimeout:   2 * time.Minute,
		BatchSteps:     64 * 50_000_000,
		Clock:          resilience.Wall{},
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = d.MaxSteps
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = d.CheckInterval
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.BatchTimeout <= 0 {
		c.BatchTimeout = d.BatchTimeout
	}
	if c.BatchSteps == 0 {
		c.BatchSteps = d.BatchSteps
	}
	if c.Clock == nil {
		c.Clock = d.Clock
	}
	if c.JobEvalSteps == 0 {
		c.JobEvalSteps = c.MaxSteps
	}
	if c.MemoMaxBytes == 0 {
		c.MemoMaxBytes = memo.DefaultMaxBytes
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = jobs.DefaultWorkers
	}
	return c
}

// JobMemo sizes the memo cache each optimization job gets while
// memoization is on: MemoMaxBytes split evenly over JobWorkers, so the
// running jobs' caches together stay within one MemoMaxBytes, on one
// shard, since a job evaluates one candidate at a time.
func (c Config) JobMemo() memo.Options {
	c = c.withDefaults()
	return memo.Options{MaxBytes: c.MemoMaxBytes / int64(c.JobWorkers), Shards: 1}
}

// Server is the estimation service. Create with NewServer; serve its
// Handler; stop with Drain.
type Server struct {
	cfg      Config
	clock    resilience.Clock
	slots    chan struct{}
	waiting  atomic.Int64
	draining atomic.Bool
	inflight sync.WaitGroup
	plan     atomic.Pointer[budget.FaultPlan]
	reqSeq   atomic.Int64
	memo     *memo.Cache // nil when Config.MemoMaxBytes < 0

	// keys and svc are the transport-agnostic estimation layer: keys
	// derives content identities, svc computes responses. The handlers
	// in this package only decode, admit, cache, and route.
	keys service.Keys
	svc  *service.Local
	// cluster is this server's ring membership, nil in single-node mode.
	// Written once by EnableCluster before serving starts.
	cluster *cluster.Node
	// jobsMgr is the durable optimization-job engine behind /v1/optimize.
	jobsMgr *jobs.Manager

	drainAt atomic.Int64 // drain deadline, unix nanos (0 = not draining)

	served     atomic.Int64 // requests answered 200
	rejected   atomic.Int64 // requests answered 4xx/5xx
	shed       atomic.Int64 // subset of rejected: 429 load-shed
	forwarded  atomic.Int64 // requests answered by a peer's response
	fallbacks  atomic.Int64 // forward attempts shed to local compute
	batches    atomic.Int64 // batch requests served (buffered + streamed)
	batchItems atomic.Int64 // items carried by those batches

	mu        sync.Mutex
	bddTables bdd.Stats // cumulative manager table traffic (under mu)

	mux *http.ServeMux
}

// NewServer builds a ready-to-serve estimation service.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		clock: cfg.Clock,
		slots: make(chan struct{}, cfg.Workers),
	}
	if cfg.MemoMaxBytes >= 0 {
		s.memo = memo.New(memo.Options{MaxBytes: cfg.MemoMaxBytes})
	}
	s.keys = service.Keys{MaxSteps: cfg.MaxSteps}
	s.svc = &service.Local{
		Cache:        s.estimateCache,
		OnBDDStats:   s.recordBDDStats,
		CodegenAfter: cfg.CodegenAfter,
	}
	s.jobsMgr = jobs.New(jobs.Config{
		Workers:         cfg.JobWorkers,
		QueueDepth:      cfg.JobQueueDepth,
		CheckpointEvery: cfg.JobCheckpointEvery,
		StallTimeout:    cfg.JobStallTimeout,
		Store:           cfg.JobStore,
		Cache:           s.jobCache,
		Plan:            s.plan.Load,
	})
	// Pick up whatever non-terminal checkpoints the store already holds
	// (a restarted node, or snapshots inherited from a dead ring peer).
	// Corrupt snapshots are skipped fail-closed and surface through the
	// engine's save_errors counter.
	_, _ = s.jobsMgr.Recover()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSingle(service.OpSimulate))
	s.mux.HandleFunc("POST /v1/rank", s.handleSingle(service.OpRank))
	s.mux.HandleFunc("POST /v1/bdd", s.handleSingle(service.OpBDD))
	s.mux.HandleFunc("POST /v1/predict", s.handleSingle(service.OpPredict))
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/batch/stream", s.handleBatchStream)
	s.mux.HandleFunc("POST /v1/optimize", s.handleOptimize)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// SetFaultPlan arms (or, with a zero plan, disarms) fault injection on
// every subsequently admitted request. Each request derives a unique
// seed so Prob-mode chaos decorrelates across requests.
func (s *Server) SetFaultPlan(p budget.FaultPlan) {
	if p == (budget.FaultPlan{}) {
		s.plan.Store(nil)
		return
	}
	s.plan.Store(&p)
}

// Drain stops admitting work and waits for in-flight requests to
// finish, or for ctx to expire. New requests are answered 503 with
// Connection: close and a Retry-After spanning the remaining drain
// window (taken from ctx's deadline, or Config.DrainTimeout without
// one). In cluster mode the gossip loop stops first, so peers suspect
// this node and stop forwarding to it while it finishes up.
func (s *Server) Drain(ctx context.Context) error {
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = s.clock.Now().Add(s.cfg.DrainTimeout)
	}
	s.drainAt.Store(deadline.UnixNano())
	s.draining.Store(true)
	if s.cluster != nil {
		s.cluster.Stop()
	}
	// Drain the job engine alongside the request drain: each running job
	// checkpoints at its next candidate boundary and hands off through
	// the store, while in-flight HTTP requests finish normally.
	jobsDone := make(chan error, 1)
	go func() { jobsDone <- s.jobsMgr.Drain(ctx) }()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("powerd: drain interrupted: %w", ctx.Err())
	}
	if err := <-jobsDone; err != nil {
		return fmt.Errorf("powerd: job drain interrupted: %w", err)
	}
	return nil
}

// estimateCache returns the content-addressed estimate cache, or nil
// when memoization is disabled — including the whole time a fault plan
// is armed. Bypassing (not just skipping stores) while chaos is active
// keeps two promises at once: an injected fault can never be laundered
// into a cached "fresh" result, and chaos traffic always exercises the
// real estimation path rather than being absorbed by earlier hits.
func (s *Server) estimateCache() *memo.Cache {
	if s.plan.Load() != nil {
		return nil
	}
	return s.memo
}

// jobCache returns a fresh memo cache for one optimization job, or nil
// under the same gate as estimateCache. The job shares it between its
// baseline and every candidate, and it becomes garbage when the job
// ends: a job's prefix and score keys carry its seed and limits, and
// its controllers are those of the machine its seed draws, so other
// jobs almost never hit them.
func (s *Server) jobCache() *memo.Cache {
	if s.estimateCache() == nil {
		return nil
	}
	return memo.New(s.cfg.JobMemo())
}

// Stats is the service-level counter snapshot served at /v1/stats.
type Stats struct {
	Served   int64 `json:"served"`
	Rejected int64 `json:"rejected"`
	Shed     int64 `json:"shed"`
	Waiting  int64 `json:"waiting"`
	Draining bool  `json:"draining"`
	// BDDTables aggregates unique-table and ITE computed-table traffic
	// (lookups, hits, misses) across every BDD request the server has
	// run, so operators can watch hash-consing effectiveness live.
	BDDTables bdd.Stats `json:"bdd_tables"`
	// MemoEnabled reports whether the content-addressed estimate cache
	// is configured; Memo carries its gauges (hits, misses, collapsed
	// waiters, stores, evictions, bytes) and MemoHitRate the fraction of
	// lookups served without computing.
	MemoEnabled bool       `json:"memo_enabled"`
	Memo        memo.Stats `json:"memo"`
	MemoHitRate float64    `json:"memo_hit_rate"`
	// Batches counts /v1/batch requests served (buffered or streamed);
	// BatchItems is how many items those batches carried.
	Batches    int64 `json:"batches"`
	BatchItems int64 `json:"batch_items"`
	// Jobs carries the optimization-job engine's gauges and totals:
	// queued/running jobs, completions by outcome, checkpoints written,
	// checkpoint resumes, watchdog stalls, and shed submissions.
	Jobs jobs.Counters `json:"jobs"`
	// Kernel carries the fused-kernel gauges: compiled artifacts, the
	// fused-op mix and absorbed-dispatch totals, and scratch-pool hit
	// rate — the observability for the superinstruction tier.
	Kernel service.KernelStats `json:"kernel"`
	// Cluster fields, present only when cluster mode is enabled:
	// Forwarded counts requests answered with a peer owner's response,
	// and Fallbacks counts forward attempts that shed to local compute
	// (dead owner, open breaker, transport failure, or an overloaded
	// owner).
	Forwarded int64          `json:"forwarded,omitempty"`
	Fallbacks int64          `json:"fallbacks,omitempty"`
	Cluster   *cluster.Stats `json:"cluster,omitempty"`
}

// Snapshot returns the current counters.
func (s *Server) Snapshot() Stats {
	st := Stats{
		Served:   s.served.Load(),
		Rejected: s.rejected.Load(),
		Shed:     s.shed.Load(),
		Waiting:  s.waiting.Load(),
		Draining: s.draining.Load(),
	}
	if s.memo != nil {
		st.MemoEnabled = true
		st.Memo = s.memo.Stats()
		st.MemoHitRate = st.Memo.HitRate()
	}
	st.Batches = s.batches.Load()
	st.BatchItems = s.batchItems.Load()
	st.Jobs = s.jobsMgr.Counters()
	st.Kernel = s.svc.KernelStats()
	if s.cluster != nil {
		cs := s.cluster.Stats()
		st.Cluster = &cs
		st.Forwarded = s.forwarded.Load()
		st.Fallbacks = s.fallbacks.Load()
	}
	s.mu.Lock()
	st.BDDTables = s.bddTables
	s.mu.Unlock()
	return st
}

// recordBDDStats folds one manager's table traffic into the service
// totals. Entries/Cap describe a single manager, so only the traffic
// counters accumulate meaningfully; the occupancy fields keep the last
// manager's values as a recent-size sample.
func (s *Server) recordBDDStats(st bdd.Stats) {
	s.mu.Lock()
	acc := &s.bddTables
	acc.Unique.Lookups += st.Unique.Lookups
	acc.Unique.Hits += st.Unique.Hits
	acc.Unique.Misses += st.Unique.Misses
	acc.Unique.Entries, acc.Unique.Cap = st.Unique.Entries, st.Unique.Cap
	acc.ITE.Lookups += st.ITE.Lookups
	acc.ITE.Hits += st.ITE.Hits
	acc.ITE.Misses += st.ITE.Misses
	acc.ITE.Entries, acc.ITE.Cap = st.ITE.Entries, st.ITE.Cap
	s.mu.Unlock()
}

// ---------------------------------------------------------------------
// Admission control.

// admit implements bounded-queue admission: a request either takes a
// worker slot immediately, waits while fewer than QueueDepth requests
// are already waiting, or is shed. The returned release function must
// be called exactly once when admission succeeded.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	if s.draining.Load() {
		s.rejectDraining(w)
		return nil, false
	}
	s.inflight.Add(1)
	// Re-check after joining the in-flight group so Drain cannot miss
	// a request that slipped past the first check.
	if s.draining.Load() {
		s.inflight.Done()
		s.rejectDraining(w)
		return nil, false
	}
	select {
	case s.slots <- struct{}{}: // fast path: free worker
	default:
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
			s.waiting.Add(-1)
			s.inflight.Done()
			s.shed.Add(1)
			s.reject(w, http.StatusTooManyRequests, "queue full", s.retryAfterHint())
			return nil, false
		}
		select {
		case s.slots <- struct{}{}:
			s.waiting.Add(-1)
		case <-r.Context().Done():
			s.waiting.Add(-1)
			s.inflight.Done()
			s.reject(w, http.StatusServiceUnavailable, "client gone while queued", 0)
			return nil, false
		}
	}
	return func() {
		<-s.slots
		s.inflight.Done()
	}, true
}

// rejectDraining answers a request that arrived mid-drain: 503 with
// Connection: close — this server's listener is about to go away, so
// the client must not reuse the connection — and a Retry-After
// covering the rest of the drain window, after which a restarted
// listener (or a load balancer's next backend) can take the retry.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	w.Header().Set("Connection", "close")
	ra := s.cfg.RequestTimeout
	if at := s.drainAt.Load(); at > 0 {
		if rem := time.Unix(0, at).Sub(s.clock.Now()); rem > 0 {
			ra = rem
		} else {
			ra = time.Second
		}
	}
	s.reject(w, http.StatusServiceUnavailable, "draining", ra)
}

// retryAfterHint estimates how long a shed client should wait: one
// request timeout spread across the worker pool.
func (s *Server) retryAfterHint() time.Duration {
	d := s.cfg.RequestTimeout / time.Duration(s.cfg.Workers)
	if d < time.Second {
		d = time.Second
	}
	return d
}

// ---------------------------------------------------------------------
// Flights.

// newBudget builds a flight's budget on the flight's context: the
// request deadline, the step allowance, and — when chaos is armed — a
// fault plan with a derived seed.
func (s *Server) newBudget(ctx context.Context) *budget.Budget {
	opts := []budget.Option{
		budget.WithContext(ctx),
		budget.WithTimeout(s.cfg.RequestTimeout),
		budget.WithCheckInterval(s.cfg.CheckInterval),
	}
	if s.cfg.MaxSteps > 0 {
		opts = append(opts, budget.WithMaxSteps(s.cfg.MaxSteps))
	}
	if p := s.plan.Load(); p != nil {
		plan := *p
		if plan.Prob > 0 {
			plan.Seed += s.reqSeq.Add(1)
		}
		opts = append(opts, budget.WithFaultPlan(plan))
	}
	return budget.New(opts...)
}

// ---------------------------------------------------------------------
// HTTP plumbing.

type errorBody struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
}

// reject writes a JSON error with an optional Retry-After hint.
func (s *Server) reject(w http.ResponseWriter, code int, msg string, retryAfter time.Duration) {
	s.rejected.Add(1)
	if retryAfter > 0 {
		secs := int(retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	}
	writeJSON(w, code, errorBody{Error: msg, Kind: kindForCode(code)})
}

func kindForCode(code int) string {
	switch code {
	case http.StatusTooManyRequests:
		return "shed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	case http.StatusBadRequest:
		return "input"
	default:
		return "internal"
	}
}

// fail maps an estimation error onto an HTTP status: input errors are
// the client's fault (400), an exhausted budget is a temporary capacity
// condition (503 + Retry-After), a client that left a flight before it
// finished is answered like one gone while queued (503), and anything
// else is a 500.
func (s *Server) fail(w http.ResponseWriter, err error) {
	switch {
	case hlerr.IsInput(err):
		s.reject(w, http.StatusBadRequest, err.Error(), 0)
	case errors.Is(err, budget.ErrExceeded):
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error: err.Error(), Kind: "budget-exceeded",
		})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.reject(w, http.StatusServiceUnavailable, "client gone while computing: "+err.Error(), 0)
	default:
		s.reject(w, http.StatusInternalServerError, err.Error(), 0)
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// decode parses a JSON request body under the single-request size cap.
func decode(r *http.Request, v any) error {
	return decodeLimit(r, v, 1<<20)
}

// decodeLimit parses a JSON request body, bounding its size to limit
// bytes. The body is one JSON value: anything but whitespace after it is
// rejected, so a second request object is never silently dropped.
func decodeLimit(r *http.Request, v any, limit int64) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return hlerr.Errorf("powerd.decode", "bad request body: %v", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return hlerr.Errorf("powerd.decode", "bad request body: data after the JSON value")
	}
	return nil
}

// ---------------------------------------------------------------------
// Health endpoints.

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady reports ready whenever the server is accepting work,
// that is, until it starts draining.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
