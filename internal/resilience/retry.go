package resilience

import (
	"errors"
	"time"

	"context"
)

// RetryPolicy is retry with exponential backoff and full jitter: the
// delay before attempt k+1 is drawn uniformly from [0, min(MaxDelay,
// BaseDelay·Multiplier^k)). Full jitter (rather than equal or
// decorrelated jitter) spreads synchronized retry storms across the
// whole window, which is what an estimation service hammered by an
// optimizer loop needs. The jitter stream is seeded, so for a fixed
// Seed the backoff schedule is fully deterministic — tests pin the
// exact sequence under a Fake clock.
type RetryPolicy struct {
	MaxAttempts int           // total attempts including the first (0 or less means 1)
	BaseDelay   time.Duration // backoff ceiling before attempt 2
	MaxDelay    time.Duration // overall backoff cap (0 = BaseDelay·Multiplier^k uncapped)
	Multiplier  float64       // ceiling growth per attempt (0 means 2)
	Seed        uint64        // jitter stream seed
}

// permanentError marks an error that must not be retried (malformed
// input, an open circuit breaker). It unwraps to the cause so typed
// matching still works through it.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Do stops retrying and returns it immediately.
// A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (anywhere in its chain) was marked
// with Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// Backoff returns the pre-jitter ceiling for the delay after attempt
// number attempt (0-based): min(MaxDelay, BaseDelay·Multiplier^attempt).
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	mult := p.Multiplier
	if mult <= 0 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 0; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			return p.MaxDelay
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		return p.MaxDelay
	}
	return time.Duration(d)
}

// Do runs op up to MaxAttempts times, sleeping a jittered backoff
// between attempts on c. It stops early on success, on a Permanent
// error, or when the context ends mid-backoff (returning the context
// error joined with the last attempt's error so both are matchable).
// The returned error is the last attempt's, unwrapped of the Permanent
// marker's effect only in classification — callers still match the
// cause with errors.Is/As.
func (p RetryPolicy) Do(ctx context.Context, c Clock, op func(attempt int) error) error {
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	if c == nil {
		c = Wall{}
	}
	rng := newSplitmix(p.Seed)
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		last = op(attempt)
		if last == nil || IsPermanent(last) {
			return last
		}
		if attempt == attempts-1 {
			break
		}
		ceiling := p.Backoff(attempt)
		delay := time.Duration(rng.float() * float64(ceiling))
		if err := c.Sleep(ctx, delay); err != nil {
			return errors.Join(last, err)
		}
	}
	return last
}

// splitmix is the same allocation-free deterministic generator the
// budget fault plan uses, so resilience jitter stays reproducible under
// -race and independent of math/rand global state.
type splitmix struct{ state uint64 }

func newSplitmix(seed uint64) *splitmix {
	return &splitmix{state: seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03}
}

func (s *splitmix) float() float64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
