// Package cover implements two-level logic minimization over cube covers:
// Quine–McCluskey prime-implicant generation, essential-prime extraction,
// and greedy cover minimization. It is the stand-in for SIS/espresso that
// the complexity-based area models of §II-B2 (Nemani–Najm) regress
// against, and the source of minterm counts for the Landman–Rabaey
// controller power model.
package cover

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
)

// Cube is a product term over n variables: for each variable i, if mask
// bit i is set the literal is present with polarity given by bit i of
// val; otherwise the variable is a don't-care in this cube.
type Cube struct {
	Mask uint64 // which variables appear
	Val  uint64 // their required values (only bits under Mask are meaningful)
}

// Literals returns the number of literals in the cube.
func (c Cube) Literals() int { return bits.OnesCount64(c.Mask) }

// Dimension returns the number of free variables of the cube within an
// n-variable space; a cube of dimension d covers 2^d minterms. This is
// the "size" used by the Nemani–Najm linear measure.
func (c Cube) Dimension(n int) int { return n - c.Literals() }

// Contains reports whether the cube covers the minterm m.
func (c Cube) Contains(m uint64) bool { return m&c.Mask == c.Val&c.Mask }

// Covers reports whether cube c covers every minterm of cube d.
func (c Cube) Covers(d Cube) bool {
	// Every literal of c must be a literal of d with the same polarity.
	if c.Mask&^d.Mask != 0 {
		return false
	}
	return (c.Val^d.Val)&c.Mask&d.Mask == 0
}

// String renders the cube as a positional pattern over n variables,
// LSB-first: '0', '1', or '-'.
func (c Cube) String() string { return c.Pattern(64) }

// Pattern renders the first n variables of the cube.
func (c Cube) Pattern(n int) string {
	b := make([]byte, n)
	for i := 0; i < n; i++ {
		switch {
		case c.Mask>>uint(i)&1 == 0:
			b[i] = '-'
		case c.Val>>uint(i)&1 == 1:
			b[i] = '1'
		default:
			b[i] = '0'
		}
	}
	return string(b)
}

// Cover is a sum of cubes over NumVars variables.
type Cover struct {
	NumVars int
	Cubes   []Cube
}

// Eval evaluates the cover at the given input assignment.
func (cv *Cover) Eval(input uint64) bool {
	for _, c := range cv.Cubes {
		if c.Contains(input) {
			return true
		}
	}
	return false
}

// Literals returns the total literal count of the cover, the classic
// two-level area proxy.
func (cv *Cover) Literals() int {
	total := 0
	for _, c := range cv.Cubes {
		total += c.Literals()
	}
	return total
}

// Minterms enumerates the on-set of the cover (feasible for small NumVars).
func (cv *Cover) Minterms() []uint64 {
	var out []uint64
	for m := uint64(0); m < 1<<uint(cv.NumVars); m++ {
		if cv.Eval(m) {
			out = append(out, m)
		}
	}
	return out
}

// FromMinterms returns the canonical minterm cover of the given on-set.
func FromMinterms(minterms []uint64, n int) *Cover {
	mask := uint64(1)<<uint(n) - 1
	if n >= 64 {
		mask = ^uint64(0)
	}
	cv := &Cover{NumVars: n}
	for _, m := range minterms {
		cv.Cubes = append(cv.Cubes, Cube{Mask: mask, Val: m & mask})
	}
	return cv
}

// FromTruthTable returns the minterm cover of a truth table (bit j of the
// function for assignment j).
func FromTruthTable(tt []bool, n int) *Cover {
	var ms []uint64
	for i, v := range tt {
		if v {
			ms = append(ms, uint64(i))
		}
	}
	return FromMinterms(ms, n)
}

// Primes computes all prime implicants of the function whose on-set is
// the given minterm list, by iterated pairwise merging (Quine–McCluskey).
// Feasible up to ~14 variables for dense functions.
func Primes(minterms []uint64, n int) []Cube {
	return primesB(nil, minterms, n)
}

// primesB is Primes charging the budget one step per candidate merge
// pair; exhaustion unwinds through the hlerr panic channel to the
// nearest Recover boundary (MinimizeBudget/MinimizeDCBudget).
func primesB(b *budget.Budget, minterms []uint64, n int) []Cube {
	if len(minterms) == 0 {
		return nil
	}
	fullMask := uint64(1)<<uint(n) - 1
	current := make(map[Cube]bool)
	for _, m := range minterms {
		current[Cube{Mask: fullMask, Val: m & fullMask}] = true
	}
	var primes []Cube
	for len(current) > 0 {
		merged := make(map[Cube]bool)
		cubes := make([]Cube, 0, len(current))
		for c := range current {
			cubes = append(cubes, c)
		}
		// Sorting makes same-shape cubes contiguous, and only they merge.
		// It also fixes the order of the budget charges, so a step limit
		// trips at the same step on every run.
		sortCubes(cubes)
		used := make([]bool, len(cubes))
		for lo := 0; lo < len(cubes); {
			hi := lo + 1
			for hi < len(cubes) && cubes[hi].Mask == cubes[lo].Mask {
				hi++
			}
			for i := lo; i < hi; i++ {
				b.Check(int64(hi - i - 1))
				for j := i + 1; j < hi; j++ {
					d := (cubes[i].Val ^ cubes[j].Val) & cubes[i].Mask
					if bits.OnesCount64(d) == 1 {
						nc := Cube{Mask: cubes[i].Mask &^ d, Val: cubes[i].Val &^ d}
						nc.Val &= nc.Mask
						merged[nc] = true
						used[i], used[j] = true, true
					}
				}
			}
			lo = hi
		}
		for i, c := range cubes {
			if !used[i] {
				primes = append(primes, c)
			}
		}
		current = merged
	}
	// Canonicalize Val under Mask and deduplicate.
	seen := make(map[Cube]bool)
	var out []Cube
	for _, p := range primes {
		p.Val &= p.Mask
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	sortCubes(out)
	return out
}

func sortCubes(cs []Cube) {
	slices.SortFunc(cs, func(a, b Cube) int {
		if c := cmp.Compare(a.Mask, b.Mask); c != 0 {
			return c
		}
		return cmp.Compare(a.Val, b.Val)
	})
}

// EssentialPrimes returns the primes that are the unique cover of at
// least one minterm, together with the set of minterms each essential
// prime distinctly covers.
func EssentialPrimes(primes []Cube, minterms []uint64) []Cube {
	var essential []Cube
	chosen := make(map[Cube]bool)
	for _, m := range minterms {
		var only *Cube
		count := 0
		for i := range primes {
			if primes[i].Contains(m) {
				count++
				only = &primes[i]
				if count > 1 {
					break
				}
			}
		}
		if count == 1 && !chosen[*only] {
			chosen[*only] = true
			essential = append(essential, *only)
		}
	}
	sortCubes(essential)
	return essential
}

// Minimize returns a small prime cover of the on-set: essential primes
// first, then greedy set cover over the remaining minterms (largest
// coverage, ties broken by fewer literals).
func Minimize(minterms []uint64, n int) (*Cover, error) {
	return minimizeCore(nil, minterms, nil, n)
}

// MinimizeDC minimizes with a don't-care set: primes are generated over
// the union of the on-set and DC minterms (so cubes may expand through
// don't-cares), but only the on-set must be covered. This is how the
// controller synthesis exploits unused state codes.
func MinimizeDC(on, dc []uint64, n int) (*Cover, error) {
	return minimizeCore(nil, on, dc, n)
}

// minimizeCore is the exact minimizer behind Minimize, MinimizeDC, and
// their budgeted variants. With a non-nil budget, prime generation and
// the set-cover loop charge steps and unwind via the hlerr panic
// channel on exhaustion.
func minimizeCore(b *budget.Budget, on, dc []uint64, n int) (*Cover, error) {
	if n > 24 {
		return nil, fmt.Errorf("cover: %d variables too many for exact minimization", n)
	}
	cv := &Cover{NumVars: n}
	if len(on) == 0 {
		return cv, nil
	}
	seen := make(map[uint64]bool, len(on)+len(dc))
	combined := make([]uint64, 0, len(on)+len(dc))
	for _, m := range on {
		if !seen[m] {
			seen[m] = true
			combined = append(combined, m)
		}
	}
	for _, m := range dc {
		if !seen[m] {
			seen[m] = true
			combined = append(combined, m)
		}
	}
	primes := primesB(b, combined, n)
	uncovered := make(map[uint64]bool, len(on))
	for _, m := range on {
		uncovered[m] = true
	}
	take := func(c Cube) {
		cv.Cubes = append(cv.Cubes, c)
		for m := range uncovered {
			if c.Contains(m) {
				delete(uncovered, m)
			}
		}
	}
	for _, e := range EssentialPrimes(primes, on) {
		take(e)
	}
	for len(uncovered) > 0 {
		best := -1
		bestCover := 0
		for i, p := range primes {
			b.Check(int64(len(uncovered)))
			cnt := 0
			for m := range uncovered {
				if p.Contains(m) {
					cnt++
				}
			}
			if cnt > bestCover || (cnt == bestCover && cnt > 0 && best >= 0 && p.Literals() < primes[best].Literals()) {
				bestCover = cnt
				best = i
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("cover: %d minterms uncoverable (internal error)", len(uncovered))
		}
		take(primes[best])
	}
	sortCubes(cv.Cubes)
	return cv, nil
}

// MinimizeBudget minimizes the on-set under a resource budget,
// degrading gracefully: if exact Quine–McCluskey exhausts the budget
// (or the variable count is beyond exact reach), the greedy cube
// reducer takes over and the result is flagged degraded. The returned
// cover is always a valid cover of the on-set.
func MinimizeBudget(b *budget.Budget, minterms []uint64, n int) (*Cover, bool, error) {
	return MinimizeDCBudget(b, minterms, nil, n)
}

// MinimizeDCBudget is MinimizeBudget with a don't-care set.
func MinimizeDCBudget(b *budget.Budget, on, dc []uint64, n int) (*Cover, bool, error) {
	if n < 0 || n > 63 {
		return nil, false, hlerr.Errorf("cover.MinimizeDCBudget",
			"variable count %d out of range [0,63]", n)
	}
	if n <= 24 {
		cv, err := func() (cv *Cover, err error) {
			defer hlerr.Recover(&err)
			return minimizeCore(b, on, dc, n)
		}()
		if err == nil {
			return cv, false, nil
		}
		if !errors.Is(err, budget.ErrExceeded) {
			return nil, false, err
		}
	}
	return ReduceGreedy(on, dc, n), true, nil
}
