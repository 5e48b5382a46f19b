package memo

import "hlpower/internal/budget"

// charged is the entry Charged stores: a result plus the budget steps
// its computation charged.
type charged[T any] struct {
	val   T
	steps int64
}

// Charged is Do for an entry inside a budgeted computation. It returns
// compute's result through c under key, or straight from compute when
// c is nil. compute runs on b and returns the result with its resident
// size; only successes are stored. A hit replays the charge the
// computation made, so hit and miss runs follow bit-identical budget
// trajectories: whether the computation trips its step limit, and what
// it reports, cannot depend on what the cache holds. Two outcomes are
// computed afresh on b instead: a hit whose replay would take b past
// b.MaxSteps(), so that the trip happens, and reports its Used count,
// exactly where an uncached run's would; and a failure shared from
// another caller's computation, which was charged to that caller's
// budget.
func Charged[T any](c *Cache, b *budget.Budget, key func() Key, compute func() (T, int64, error)) (val T, hit bool, err error) {
	if c == nil {
		val, _, err = compute()
		return val, false, err
	}
	before := b.StepsUsed()
	v, shared, err := c.Do(key(), func() (any, int64, bool, error) {
		val, size, err := compute()
		if err != nil {
			return nil, 0, false, err
		}
		return &charged[T]{val: val, steps: b.StepsUsed() - before}, size, true, nil
	})
	switch {
	case !shared && err != nil:
		return val, false, err
	case !shared:
		return v.(*charged[T]).val, false, nil
	case err == nil:
		e := v.(*charged[T])
		if limit := b.MaxSteps(); limit == 0 || b.StepsUsed()+e.steps <= limit {
			return e.val, true, b.Step(e.steps)
		}
	}
	val, _, err = compute()
	return val, false, err
}
