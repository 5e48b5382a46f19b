package jobs

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hlpower/internal/budget"
	"hlpower/internal/memo"
	"hlpower/internal/recipe"
)

// ErrStalled matches stall errors via errors.Is.
var ErrStalled = errors.New("jobs: pass stalled")

// StallError is the typed timeout the per-job watchdog raises when a
// candidate's evaluation stops making progress. It degrades the
// candidate; the job carries on.
type StallError struct {
	Recipe  []string
	Timeout time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("jobs: recipe %v stalled past %v", e.Recipe, e.Timeout)
}

func (e *StallError) Is(target error) bool { return target == ErrStalled }

// mix is a splitmix64-style finalizer used to derive every random
// draw of the search as a pure function of its inputs — never of call
// order — so a resumed job regenerates exactly the candidates an
// uninterrupted run would have seen.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hashStrings folds a string list into the seed stream.
func hashStrings(x uint64, names []string) uint64 {
	for _, s := range names {
		x = mix(x ^ uint64(len(s)))
		for i := 0; i < len(s); i++ {
			x = mix(x ^ uint64(s[i]))
		}
	}
	return x
}

// drawRNG is a tiny deterministic generator over the mix stream.
type drawRNG struct{ x uint64 }

func (r *drawRNG) next() uint64 { r.x = mix(r.x); return r.x }
func (r *drawRNG) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// candidateRecipe generates the candidate for one search step: a pure
// function of (job seed, step, best-so-far recipe, vocabulary). Even
// steps with a non-empty best-so-far memory mutate it (replace /
// insert / delete one pass); everything else draws a fresh random
// recipe. This is the explore/exploit loop of recipe search, shaped so
// checkpoint resume is trivially bit-identical.
func candidateRecipe(seed int64, step int, best []string, vocab []string, maxLen int) []string {
	if len(vocab) == 0 {
		return nil
	}
	if maxLen < 1 {
		maxLen = 1
	}
	r := &drawRNG{x: hashStrings(mix(uint64(seed)^uint64(step)), best)}
	if len(best) > 0 && r.intn(2) == 0 {
		// Exploit: mutate the best-so-far recipe.
		out := append([]string(nil), best...)
		switch op := r.intn(3); {
		case op == 0: // replace
			out[r.intn(len(out))] = vocab[r.intn(len(vocab))]
		case op == 1 && len(out) < maxLen: // insert
			at := r.intn(len(out) + 1)
			out = append(out[:at], append([]string{vocab[r.intn(len(vocab))]}, out[at:]...)...)
		default: // delete
			at := r.intn(len(out))
			out = append(out[:at], out[at+1:]...)
		}
		if len(out) > 0 {
			return out
		}
		// Deleting the last pass leaves the empty recipe; fall through
		// to exploration so the step still evaluates something new.
	}
	out := make([]string, 1+r.intn(maxLen))
	for i := range out {
		out[i] = vocab[r.intn(len(vocab))]
	}
	return out
}

// passSeed derives the RNG seed of one pass application from the job
// seed and the recipe prefix *content* ending at that pass. Prefix
// content — not step number or position alone — so two recipes sharing
// a prefix produce identical intermediate designs, which is what makes
// prefix-level memoization sound.
func passSeed(seed int64, prefix []string) uint64 {
	return mix(hashStrings(uint64(seed), prefix))
}

// encodeParams writes the params fields that shape a job's designs and
// scores: the spec and seed (baseline + workload + pass seeds), the
// cycle counts (scoring and verification stimulus), and the
// per-candidate budget limits (budget-governed passes degrade
// deterministically at fixed limits).
func encodeParams(e *memo.Enc, p Params) {
	p.Spec.EncodeTo(e)
	e.Int64(p.Seed)
	e.Int(p.EvalCycles)
	e.Int(p.VerifyCycles)
	e.Int64(p.EvalSteps)
	e.Int64(p.CheckInterval)
}

// prefixKey is the memo-cache key of the design produced by applying a
// recipe prefix to the job's baseline.
func prefixKey(p Params, prefix []string) memo.Key {
	return memo.KeyOf(func(e *memo.Enc) {
		e.String("jobs/prefix/v1")
		encodeParams(e, p)
		e.Int(len(prefix))
		for _, name := range prefix {
			e.String(name)
		}
	})
}

// scoreKey is the memo-cache key of a design's score. It names the
// design by content, not by recipe: many recipes build the same design
// (a pass that undoes another, two encodings that synthesize one
// controller), and each distinct design is scored once per job.
func scoreKey(p Params, d *recipe.Design) memo.Key {
	return memo.KeyOf(func(e *memo.Enc) {
		e.String("jobs/score/v1")
		encodeParams(e, p)
		d.EncodeScoreKey(e)
	})
}

// scoreEntryBytes is the resident size of a cached score: the float
// and the step charge memo.Charged stores beside it.
const scoreEntryBytes = 16

// evalResult carries one candidate evaluation's outcome.
type evalResult struct {
	score float64
	used  int64
	hits  int64
	err   error
}

// evaluate applies the candidate recipe pass by pass and scores the
// final design, all through the job's memo cache when it has one: a
// recipe prefix is applied, a distinct controller synthesized (inside
// recipe.Apply), and a distinct design scored, once per cache. The
// budget is fresh per candidate: EvalSteps governs all pass
// application, verification, and scoring, and the context carries
// cancellation from the job and the watchdog.
func evaluate(ctx context.Context, p Params, d *recipe.Design, w *recipe.Workload, names []string, plan *budget.FaultPlan, cache *memo.Cache) evalResult {
	opts := []budget.Option{
		budget.WithMaxSteps(p.EvalSteps),
		budget.WithCheckInterval(p.CheckInterval),
		budget.WithContext(ctx),
	}
	if plan != nil {
		opts = append(opts, budget.WithFaultPlan(*plan))
	}
	b := budget.New(opts...)
	used := func(err error) int64 {
		// On a budget trip the exact used count depends on where the
		// trip was noticed, so account the full allowance; successful
		// evaluations charge their exact deterministic cost.
		if errors.Is(err, budget.ErrExceeded) {
			return p.EvalSteps
		}
		return b.StepsUsed()
	}

	if b.FaultArmed() {
		// An armed plan can degrade any pass; degraded artifacts must
		// never be shared, so bypass the cache entirely, the passes'
		// own entries included (the same honesty invariant the
		// estimation endpoints follow).
		cache = nil
	}
	var hits int64
	cur := d
	for i := range names {
		prefix := names[:i+1]
		seed := passSeed(p.Seed, prefix)
		in := cur
		next, hit, err := memo.Charged(cache, b, func() memo.Key { return prefixKey(p, prefix) },
			func() (*recipe.Design, int64, error) {
				nd, err := recipe.Apply(b, cache, in, w, names[i], seed)
				if err != nil {
					return nil, 0, err
				}
				return nd, nd.SizeBytes(), nil
			})
		if hit {
			hits++
		}
		if err != nil {
			return evalResult{used: used(err), hits: hits, err: err}
		}
		cur = next
	}
	score, _, err := memo.Charged(cache, b, func() memo.Key { return scoreKey(p, cur) },
		func() (float64, int64, error) {
			s, err := recipe.Score(b, cur, w)
			return s, scoreEntryBytes, err
		})
	if err != nil {
		return evalResult{used: used(err), hits: hits, err: err}
	}
	return evalResult{score: score, used: b.StepsUsed(), hits: hits}
}

// evalReq is one candidate evaluation handed to an evaluator: the
// arguments of evaluate.
type evalReq struct {
	ctx   context.Context
	p     Params
	d     *recipe.Design
	w     *recipe.Workload
	names []string
	plan  *budget.FaultPlan
	cache *memo.Cache
}

// evaluator is the goroutine a job worker runs candidate evaluations
// on, one at a time, so that the watchdog can give up on one. It lives
// as long as the worker, so the search loop neither starts a goroutine
// per candidate nor grows a fresh stack for each; the watchdog replaces
// it only when it abandons a stalled candidate.
type evaluator struct {
	in   chan evalReq
	out  chan evalResult
	done chan struct{} // closed when the goroutine exits
}

// start runs a new evaluation goroutine behind ev's channels.
func (ev *evaluator) start() {
	in, out, done := make(chan evalReq), make(chan evalResult, 1), make(chan struct{})
	ev.in, ev.out, ev.done = in, out, done
	go func() {
		defer close(done)
		for r := range in {
			out <- evaluate(r.ctx, r.p, r.d, r.w, r.names, r.plan, r.cache)
		}
	}()
}

// abandon leaves the goroutine to exit once its current evaluation
// returns and starts a new one in its place.
func (ev *evaluator) abandon() {
	close(ev.in)
	ev.start()
}

// stop ends the idle goroutine and waits for it to exit.
func (ev *evaluator) stop() {
	close(ev.in)
	<-ev.done
}

// evalCandidate runs evaluate on ev under the per-job watchdog: a
// candidate that makes no progress within StallTimeout is cancelled
// through its budget context and failed with a typed *StallError. The
// watchdog waits for the evaluation to unwind (budget-governed passes
// notice cancellation at their next check point), so the evaluator is
// free for the next candidate; a pass that ignores its budget entirely
// is abandoned after a second grace period, and ev gets a new goroutine
// while the old one finishes the pass and exits.
func (m *Manager) evalCandidate(ev *evaluator, j *job, p Params, d *recipe.Design, w *recipe.Workload, names []string, plan *budget.FaultPlan, cache *memo.Cache) evalResult {
	ctx, cancel := context.WithCancel(j.ctx)
	defer cancel()
	ev.in <- evalReq{ctx: ctx, p: p, d: d, w: w, names: names, plan: plan, cache: cache}
	stall := m.cfg.StallTimeout
	timer := time.NewTimer(stall)
	defer timer.Stop()
	select {
	case r := <-ev.out:
		return r
	case <-timer.C:
	}
	cancel()
	grace := time.NewTimer(stall)
	defer grace.Stop()
	select {
	case r := <-ev.out:
		return evalResult{used: r.used, err: &StallError{Recipe: names, Timeout: stall}}
	case <-grace.C:
		// The pass is ignoring its budget; abandon it rather than hang
		// the whole job.
		ev.abandon()
		return evalResult{err: &StallError{Recipe: names, Timeout: stall}}
	}
}
