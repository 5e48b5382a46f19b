package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/logic"
)

// TestCompiledBitIdenticalToRunParallel is the compiled-artifact
// determinism contract: for any workload and worker count, a Compiled
// run must reproduce the one-shot RunParallel result bit for bit —
// including the Shards/Fallback/Kernel execution metadata.
func TestCompiledBitIdenticalToRunParallel(t *testing.T) {
	n, inputs := mcNetlist(t, 16, 700, 99)
	opts := Options{Vdd: 1.5, Freq: 2}
	c, err := Compile(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Packed() {
		t.Fatal("combinational zero-delay netlist compiled without the packed program")
	}
	for _, workers := range []int{1, 2, 3, 8} {
		want, err := RunParallel(nil, n, inputs, 700, ParallelOptions{
			Options: opts, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Run(nil, inputs, 700, RunOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, want, got, "compiled/workers")
		if got.Shards != want.Shards || got.Fallback != want.Fallback || got.Kernel != want.Kernel {
			t.Fatalf("workers=%d: metadata differs: got %d/%q/%q want %d/%q/%q",
				workers, got.Shards, got.Fallback, got.Kernel, want.Shards, want.Fallback, want.Kernel)
		}
	}
}

// TestCompiledScratchReuse pins the pooled-scratch safety property: a
// run after other workloads (different cycle counts, different vectors)
// over the same compiled netlist reproduces its first result exactly —
// no state leaks through the recycled word planes.
func TestCompiledScratchReuse(t *testing.T) {
	n, inA := mcNetlist(t, 12, 300, 1)
	_, inB := mcNetlist(t, 12, 257, 2)
	c, err := Compile(n, Options{Vdd: 1, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(nil, inA, 300, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave a differently shaped workload (odd cycle count, so the
	// last word's tail lanes hold garbage).
	if _, err := c.Run(nil, inB, 257, RunOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	again, err := c.Run(nil, inA, 300, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, first, again, "scratch-reuse")
}

// TestCompiledScalarOption: a sharded compiled run and the interpreted
// scalar engine differ in the Kernel tag, never in the numbers.
func TestCompiledScalarOption(t *testing.T) {
	n, inputs := mcNetlist(t, 12, 400, 7)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := c.Run(nil, inputs, 400, RunOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	scalar, err := Run(n, inputs, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, scalar, packed, "scalar-option")
	if packed.Kernel != KernelFused || scalar.Kernel != "" {
		t.Fatalf("Kernel tags: packed=%q scalar=%q", packed.Kernel, scalar.Kernel)
	}
}

// TestCompiledSequentialFallback: a stateful netlist compiles to a
// scalar-only artifact whose runs degrade exactly like RunParallel.
func TestCompiledSequentialFallback(t *testing.T) {
	n := logic.New()
	in := n.AddInput("d")
	n.MarkOutput(n.Add(logic.DFF, in))
	c, err := Compile(n, Options{TrackClock: true})
	if err != nil {
		t.Fatal(err)
	}
	if c.Packed() {
		t.Fatal("sequential netlist compiled with a packed program")
	}
	vectors := make([][]bool, 200)
	for i := range vectors {
		vectors[i] = []bool{i%3 == 0}
	}
	want, err := RunParallel(nil, n, VectorInputs(vectors), 200, ParallelOptions{
		Options: Options{TrackClock: true}, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Run(nil, VectorInputs(vectors), 200, RunOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "sequential")
	if got.Fallback != FallbackSequential || got.Shards != 1 {
		t.Fatalf("Fallback=%q Shards=%d, want %q/1", got.Fallback, got.Shards, FallbackSequential)
	}
}

// TestCompiledWordsLean pins the batch pipeline's two kernel
// accelerators. Words feeds pre-packed input words instead of per-cycle
// []bool vectors; Lean skips the Result fields a power figure never
// reads. Both must leave every number bit-identical to the full run —
// across word boundaries, odd tail lanes, and sharding — and Lean must
// actually suppress the skipped fields.
func TestCompiledWordsLean(t *testing.T) {
	n, inputs := mcNetlist(t, 14, 700, 5)
	c, err := Compile(n, Options{Vdd: 1.2, Freq: 3})
	if err != nil {
		t.Fatal(err)
	}
	words := func(cycle int) uint64 { return bitutil.FromBits(inputs(cycle)) }
	// At 4 workers, 129 cycles cut 4 sub-word shards, one with an odd
	// tail lane.
	for _, cycles := range []int{3, 64, 65, 129, 257, 700} {
		for _, workers := range []int{1, 4} {
			full, err := c.Run(nil, inputs, cycles, RunOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			lean, err := c.Run(nil, inputs, cycles, RunOptions{Workers: workers, Words: words, Lean: true})
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(lean.Power()) != math.Float64bits(full.Power()) ||
				math.Float64bits(lean.SwitchedCap) != math.Float64bits(full.SwitchedCap) {
				t.Fatalf("cycles=%d workers=%d: lean power %v != full %v", cycles, workers, lean.Power(), full.Power())
			}
			for id := range full.Toggles {
				if lean.Toggles[id] != full.Toggles[id] {
					t.Fatalf("cycles=%d: toggle count differs at net %d", cycles, id)
				}
			}
			for i := range full.PerCycleCap {
				if math.Float64bits(lean.PerCycleCap[i]) != math.Float64bits(full.PerCycleCap[i]) {
					t.Fatalf("cycles=%d: per-cycle cap differs at cycle %d", cycles, i)
				}
			}
			if lean.Shards != full.Shards || lean.Kernel != full.Kernel || lean.Fallback != full.Fallback {
				t.Fatalf("cycles=%d: metadata differs: %d/%q/%q vs %d/%q/%q",
					cycles, lean.Shards, lean.Kernel, lean.Fallback, full.Shards, full.Kernel, full.Fallback)
			}
			if len(lean.Outputs) != 0 || lean.ByGroup != nil || lean.Final != nil {
				t.Fatalf("cycles=%d: lean run materialized skipped fields", cycles)
			}
		}
	}
	// Words alone (no Lean) must reproduce the full result exactly,
	// skipped fields included.
	full, err := c.Run(nil, inputs, 300, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	viaWords, err := c.Run(nil, inputs, 300, RunOptions{Words: words})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, full, viaWords, "words-full")
}

// TestCompiledLeanScalar: Lean holds on scalar-only runs too — zero-
// delay sequential netlists and event-driven netlists the unit-delay
// path does not take. A lean run materializes no outputs, group rows or
// final values, and its power figures, toggles and budget charges equal
// a full run's.
func TestCompiledLeanScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 16; trial++ {
		n := randEventNetlist(rng, 1+rng.Intn(5), 5+rng.Intn(30))
		if trial%4 == 0 {
			n = randUnitDelayNetlist(rng, 1+rng.Intn(5), 5+rng.Intn(30), udPipelined)
		}
		cycles := 1 + rng.Intn(150)
		inputs := randVectors(rng, cycles, len(n.Inputs))
		for oi, opts := range append([]Options{{TrackClock: true, GateClock: true}}, eventOptions...) {
			c, err := Compile(n, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("trial %d opts %d", trial, oi)
			bf, bl := budget.New(), budget.New()
			lean, err := c.Run(bl, inputs, cycles, RunOptions{Workers: 1, Lean: true})
			if err != nil {
				t.Fatalf("%s: lean: %v", label, err)
			}
			if lean.Kernel != "" {
				continue // a packed path: its own suite covers it
			}
			full, err := c.Run(bf, inputs, cycles, RunOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameLean(t, full, lean, label)
			if bf.StepsUsed() != bl.StepsUsed() || full.Kernel != "" {
				t.Fatalf("%s: lean %d steps on %q, full %d on %q", label, bl.StepsUsed(), lean.Kernel, bf.StepsUsed(), full.Kernel)
			}
		}
	}
}

// TestCompiledBudgetAccounting: a compiled run charges the budget the
// same step total as the one-shot paths.
func TestCompiledBudgetAccounting(t *testing.T) {
	n, inputs := mcNetlist(t, 16, 600, 17)
	bs := budget.New()
	if _, err := RunBudget(bs, n, inputs, 600, Options{}); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc := budget.New()
	if _, err := c.Run(bc, inputs, 600, RunOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if bs.StepsUsed() != bc.StepsUsed() {
		t.Fatalf("compiled charged %d steps, serial %d", bc.StepsUsed(), bs.StepsUsed())
	}
	// Exhaustion still unwinds to a typed error.
	tight := budget.New(budget.WithMaxSteps(200))
	if _, err := c.Run(tight, inputs, 600, RunOptions{Workers: 4}); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
}

// TestCompileErrors: construction errors surface at Compile, run-shape
// errors at Run.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Fatal("nil netlist compiled")
	}
	n, inputs := mcNetlist(t, 8, 10, 1)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil, nil, 10, RunOptions{}); err == nil {
		t.Fatal("nil provider accepted")
	}
	if _, err := c.Run(nil, inputs, 0, RunOptions{}); err == nil {
		t.Fatal("zero cycles accepted")
	}
	bad := func(cycle int) []bool { return []bool{true} }
	if _, err := c.Run(nil, bad, 10, RunOptions{}); err == nil {
		t.Fatal("wrong-width vector accepted")
	}
}
