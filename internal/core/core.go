// Package core ties the repository together into the paper's Fig. 1
// methodology: power estimators at several abstraction levels presented
// behind one interface, and the "design improvement loop" — rank a set
// of candidate design/synthesis/optimization options by estimated power
// and pick the most effective one, at any level, without descending to
// the gate level first.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/par"
)

// Level is an abstraction level of the Fig. 1 flow.
type Level int

// Abstraction levels, highest first.
const (
	Software Level = iota
	Behavioral
	RTL
	Gate
)

var levelNames = [...]string{
	Software: "software", Behavioral: "behavioral", RTL: "rtl", Gate: "gate",
}

func (l Level) String() string {
	if int(l) < len(levelNames) {
		return levelNames[l]
	}
	return fmt.Sprintf("level(%d)", int(l))
}

// Estimate is one power figure with its provenance. Degraded marks a
// figure produced by a fallback path after a resource budget cut off
// the exact computation — still a valid ordering signal for the
// improvement loop, but coarser than an exact estimate.
type Estimate struct {
	Power    float64
	Level    Level
	Model    string // which estimation technique produced it
	Degraded bool
}

// Estimator produces a power estimate for a fixed design under a fixed
// workload. Implementations wrap the entropy, macromodel, complexity,
// and sim packages.
type Estimator interface {
	Name() string
	Level() Level
	Estimate() (float64, error)
}

// Func adapts a closure into an Estimator.
type Func struct {
	EstimatorName  string
	EstimatorLevel Level
	Fn             func() (float64, error)
}

// Name returns the estimator's name.
func (f Func) Name() string { return f.EstimatorName }

// Level returns the estimator's abstraction level.
func (f Func) Level() Level { return f.EstimatorLevel }

// Estimate invokes the closure.
func (f Func) Estimate() (float64, error) { return f.Fn() }

// BudgetEstimator is implemented by estimators that accept a resource
// budget and can produce a degraded (cheaper, coarser) figure when it
// trips. RankBudget prefers this interface when present.
type BudgetEstimator interface {
	Estimator
	EstimateBudget(b *budget.Budget) (power float64, degraded bool, err error)
}

// FuncB adapts a budget-aware closure into a BudgetEstimator.
type FuncB struct {
	EstimatorName  string
	EstimatorLevel Level
	Fn             func(b *budget.Budget) (float64, bool, error)
}

// Name returns the estimator's name.
func (f FuncB) Name() string { return f.EstimatorName }

// Level returns the estimator's abstraction level.
func (f FuncB) Level() Level { return f.EstimatorLevel }

// Estimate invokes the closure without a budget.
func (f FuncB) Estimate() (float64, error) {
	p, _, err := f.Fn(nil)
	return p, err
}

// EstimateBudget invokes the closure under a budget.
func (f FuncB) EstimateBudget(b *budget.Budget) (float64, bool, error) {
	return f.Fn(b)
}

// Candidate is one design option in an improvement loop: a name and an
// estimator for its power under the target workload.
type Candidate struct {
	Name      string
	Estimator Estimator
}

// Ranked is a candidate with its evaluated estimate, or the error its
// estimator returned.
type Ranked struct {
	Candidate Candidate
	Estimate  Estimate
	Err       error
}

// Ranking is the outcome of one improvement-loop evaluation, cheapest
// first. Candidates whose estimators failed sort last and carry Err.
type Ranking []Ranked

// Best returns the lowest-power successfully estimated candidate.
func (r Ranking) Best() (Ranked, error) {
	for _, c := range r {
		if c.Err == nil {
			return c, nil
		}
	}
	return Ranked{}, errors.New("core: no candidate could be estimated")
}

// Rank evaluates every candidate and orders them by estimated power.
// This is one turn of the design-improvement loop: the caller applies
// the winning option and re-enters with the next round of candidates.
// A panicking estimator is contained: it becomes that candidate's Err
// and the loop continues.
func Rank(candidates []Candidate) Ranking {
	return RankBudget(nil, candidates)
}

// RankBudget is Rank under a per-candidate resource budget. Estimators
// implementing BudgetEstimator receive the budget and may come back
// degraded; the ranking still orders them by power, with exact figures
// winning ties over degraded ones, so the improvement loop can pick a
// winner even when some candidates only produced partial results. The
// budget is shared sequentially across candidates (sticky: once it
// trips, the remaining candidates fail fast).
func RankBudget(b *budget.Budget, candidates []Candidate) Ranking {
	return RankParallel(b, 1, candidates)
}

// RankParallel is RankBudget with candidate estimators evaluated
// concurrently by a bounded worker pool (nonpositive workers means one
// per CPU). A failing or panicking candidate never cancels its
// siblings — its error is data, recorded in the Ranked entry exactly
// as in the serial path. Each worker evaluates under a forked share of
// the budget rather than the serial sticky whole, so under a tight
// budget the set of degraded candidates may differ from a serial run;
// with an ample (or nil) budget and deterministic estimators the
// ranking is identical to RankBudget's, because results are collected
// in candidate order and sorted stably. With workers == 1 the pool
// degenerates to the serial sticky-budget loop.
func RankParallel(b *budget.Budget, workers int, candidates []Candidate) Ranking {
	out := make(Ranking, len(candidates))
	// The task never returns an error: per-candidate failures are part
	// of the ranking, not a reason to stop evaluating the others.
	par.Do(b, workers, len(candidates), func(i int, wb *budget.Budget) error {
		out[i] = evaluate(wb, candidates[i])
		return nil
	})
	sortRanking(out)
	return out
}

// evaluate runs one candidate's estimator under a budget, containing
// panics as that candidate's error.
func evaluate(b *budget.Budget, c Candidate) Ranked {
	var (
		p   float64
		deg bool
		err error
	)
	if be, ok := c.Estimator.(BudgetEstimator); ok {
		p, deg, err = safeEstimateBudget(be, b)
	} else {
		p, err = safeEstimate(c.Estimator)
	}
	return Ranked{
		Candidate: c,
		Estimate: Estimate{
			Power: p, Level: c.Estimator.Level(),
			Model: c.Estimator.Name(), Degraded: deg,
		},
		Err: err,
	}
}

// sortRanking orders candidates cheapest first, successful before
// failed, exact before degraded on power ties. The sort is stable over
// candidate order, so rankings are deterministic for a fixed input.
// Ranking implements sort.Interface directly: sort.SliceStable's
// closure forces the slice header to escape on every rank call, which
// matters on the serving hot path.
func sortRanking(out Ranking) { sort.Stable(out) }

func (r Ranking) Len() int      { return len(r) }
func (r Ranking) Swap(i, j int) { r[i], r[j] = r[j], r[i] }
func (r Ranking) Less(i, j int) bool {
	if (r[i].Err == nil) != (r[j].Err == nil) {
		return r[i].Err == nil
	}
	if r[i].Estimate.Power != r[j].Estimate.Power {
		return r[i].Estimate.Power < r[j].Estimate.Power
	}
	return !r[i].Estimate.Degraded && r[j].Estimate.Degraded
}

// safeEstimate contains estimator panics: whatever escapes the
// estimator becomes its error instead of aborting the whole loop.
func safeEstimate(e Estimator) (p float64, err error) {
	defer hlerr.RecoverAll(&err)
	return e.Estimate()
}

func safeEstimateBudget(e BudgetEstimator, b *budget.Budget) (p float64, deg bool, err error) {
	defer hlerr.RecoverAll(&err)
	return e.EstimateBudget(b)
}

// String renders the ranking as a small report table.
func (r Ranking) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %-12s %-20s %12s\n", "candidate", "level", "model", "power")
	for _, c := range r {
		if c.Err != nil {
			fmt.Fprintf(&b, "%-28s %-12s %-20s %12s\n", c.Candidate.Name, "-", "-", "error: "+c.Err.Error())
			continue
		}
		model := c.Estimate.Model
		if c.Estimate.Degraded {
			model += " (degraded)"
		}
		fmt.Fprintf(&b, "%-28s %-12s %-20s %12.4f\n",
			c.Candidate.Name, c.Estimate.Level, model, c.Estimate.Power)
	}
	return b.String()
}
