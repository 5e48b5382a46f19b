package memo

import (
	"errors"
	"testing"

	"hlpower/internal/budget"
)

// TestChargedReplaysCharge: a hit charges its budget what the
// computation charged, and a hit whose replay would pass the step limit
// computes instead, so the trip reports an uncached run's count.
func TestChargedReplaysCharge(t *testing.T) {
	c := New(Options{})
	key := func() Key { return keyOf(20) }
	computes := 0
	// run charges 10 steps at a time, 100 in all, on b.
	run := func(b *budget.Budget) func() (int, int64, error) {
		return func() (int, int64, error) {
			computes++
			for i := 0; i < 10; i++ {
				if err := b.Step(10); err != nil {
					return 0, 0, err
				}
			}
			return 7, 8, nil
		}
	}
	charge := func(b *budget.Budget, before int64) (int, bool, error) {
		b.Check(before)
		return Charged(c, b, key, run(b))
	}

	b := budget.New()
	if v, hit, err := charge(b, 0); v != 7 || hit || err != nil || b.StepsUsed() != 100 || computes != 1 {
		t.Fatalf("miss: v=%d hit=%v err=%v steps=%d computes=%d", v, hit, err, b.StepsUsed(), computes)
	}
	for _, b := range []*budget.Budget{budget.New(), budget.New(budget.WithMaxSteps(150))} {
		if v, hit, err := charge(b, 50); v != 7 || !hit || err != nil || b.StepsUsed() != 150 || computes != 1 {
			t.Fatalf("hit, limit %d: v=%d hit=%v err=%v steps=%d computes=%d", b.MaxSteps(), v, hit, err, b.StepsUsed(), computes)
		}
	}
	// From 75, a replay would trip at 175; the run trips at 155.
	b = budget.New(budget.WithMaxSteps(150))
	_, hit, err := charge(b, 75)
	var ex *budget.Exceeded
	if hit || !errors.As(err, &ex) || ex.Used != 155 || computes != 2 {
		t.Fatalf("over the limit: hit=%v err=%v computes=%d, want the run's trip at 155", hit, err, computes)
	}
	if v, hit, err := Charged(nil, nil, key, run(nil)); v != 7 || hit || err != nil || computes != 3 {
		t.Fatalf("nil cache: v=%d hit=%v err=%v computes=%d", v, hit, err, computes)
	}
}
