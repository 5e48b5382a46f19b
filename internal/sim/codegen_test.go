package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/budget"
)

// TestCodegenBitIdentity is the codegen tier's core property: across
// random netlists and cycle counts straddling word boundaries, a
// promoted Compiled run (specialized evaluator) is bit-identical in
// every result field to the serial engine and to the fused interpreter
// — full and lean, and with NoCodegen forcing the fused tier back.
func TestCodegenBitIdentity(t *testing.T) {
	cycleCounts := []int{1, 2, 63, 64, 65, 127, 128, 130, 333}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		n := randComb(rng, 3+rng.Intn(6), 5+rng.Intn(40))
		c, err := Compile(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.HasCodegen() {
			t.Fatal("artifact born promoted; codegen must be explicit")
		}
		if err := c.BuildCodegen(); err != nil {
			t.Fatal(err)
		}
		if !c.HasCodegen() {
			t.Fatal("BuildCodegen did not install the evaluator")
		}
		for _, cycles := range cycleCounts {
			inputs := randVectors(rng, cycles, len(n.Inputs))
			serial, err := Run(n, inputs, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, NoCodegen: true})
			if err != nil {
				t.Fatal(err)
			}
			if fused.Kernel != KernelFused {
				t.Fatalf("trial %d cycles %d: NoCodegen Kernel=%q, want fused", trial, cycles, fused.Kernel)
			}
			gen, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if gen.Kernel != KernelCodegen {
				t.Fatalf("trial %d cycles %d: Kernel=%q, want codegen", trial, cycles, gen.Kernel)
			}
			sameResult(t, serial, gen, "codegen-vs-serial")
			sameResult(t, fused, gen, "codegen-vs-fused")
		}
	}
}

// TestCodegenMultiplierWorkload pins the serving shape: the promoted
// multiplier artifact's lean+words run must agree with the fused tier
// to the bit on the power figure, with the evaluator actually built
// into level runs.
func TestCodegenMultiplierWorkload(t *testing.T) {
	const w, cycles = 8, 1000
	n, inputs, words := mulWorkload(w, cycles, 77)
	c, err := Compile(n, Options{Vdd: 1, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Words: words, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildCodegen(); err != nil {
		t.Fatal(err)
	}
	runs, levels := c.CodegenStats()
	if runs == 0 || levels == 0 {
		t.Fatalf("codegen stats runs=%d levels=%d, want nonzero", runs, levels)
	}
	if runs > c.FusedGroups() {
		t.Fatalf("runs=%d exceeds fused groups %d: bucketing broken", runs, c.FusedGroups())
	}
	gen, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Words: words, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Kernel != KernelCodegen {
		t.Fatalf("Kernel=%q, want codegen", gen.Kernel)
	}
	if math.Float64bits(fused.Power()) != math.Float64bits(gen.Power()) {
		t.Fatalf("Power differs: fused %v codegen %v", fused.Power(), gen.Power())
	}
	if math.Float64bits(fused.SwitchedCap) != math.Float64bits(gen.SwitchedCap) {
		t.Fatalf("SwitchedCap differs")
	}
}

// TestCodegenBudgetBoundary mirrors TestFusedBudgetBoundary: budget
// charging ignores the execution tier entirely, so a promoted run
// charges exactly the steps the serial engine charges and trips at
// exactly the same allowance boundary, fed vectors or words.
func TestCodegenBudgetBoundary(t *testing.T) {
	checkBudgetBoundary(t, KernelCodegen)
}

// TestCodegenScalarOnlyErrors: artifacts without a packed program have
// nothing to specialize; BuildCodegen must fail cleanly and leave the
// artifact serving its existing tier.
func TestCodegenScalarOnlyErrors(t *testing.T) {
	n, _ := mcNetlist(t, 4, 10, 3)
	c, err := Compile(n, Options{Model: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if c.Packed() {
		t.Fatal("event-driven artifact compiled a packed program")
	}
	if err := c.BuildCodegen(); err == nil {
		t.Fatal("BuildCodegen on a scalar-only artifact succeeded")
	}
	if c.HasCodegen() {
		t.Fatal("failed build left an evaluator installed")
	}
}

// TestCodegenSwapMidStream: building the evaluator between runs must
// not perturb results — the tier ladder is metadata, not math. Also
// covers multi-shard promoted runs sharing one codegenProgram.
func TestCodegenSwapMidStream(t *testing.T) {
	n, inputs, words := mulWorkload(6, 700, 31)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := c.Run(nil, inputs, 700, RunOptions{Workers: 4, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildCodegen(); err != nil {
		t.Fatal(err)
	}
	after, err := c.Run(nil, inputs, 700, RunOptions{Workers: 4, Words: words})
	if err != nil {
		t.Fatal(err)
	}
	if before.Kernel != KernelFused || after.Kernel != KernelCodegen {
		t.Fatalf("Kernel before=%q after=%q", before.Kernel, after.Kernel)
	}
	// Clear the tags so sameResult's field-by-field comparison checks
	// every number; the tags were asserted above.
	before.Kernel, after.Kernel = "", ""
	sameResult(t, before, after, "swap-mid-stream")
}

// FuzzCodegenEquivalence drives serial/fused/codegen Float64bits
// identity from fuzzed corners: arbitrary netlist shapes, cycle counts
// around word boundaries, and budget allowances that may exhaust
// mid-run — in which case the tiers must fail identically.
func FuzzCodegenEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20), uint16(65), uint32(0))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1), uint32(0))
	f.Add(int64(3), uint8(8), uint8(60), uint16(257), uint32(0))
	f.Add(int64(42), uint8(4), uint8(30), uint16(128), uint32(500))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8, cyc uint16, maxSteps uint32) {
		forEachLaneKernel(t, func(kernel string) {
			fuzzCodegen(t, kernel, seed, nIn, nGates, cyc, maxSteps)
		})
	})
}

// fuzzCodegen is FuzzCodegenEquivalence's body on one lane kernel: the
// codegen tier's full run against the serial engine and the fused
// tier, and its lean run against its full run.
func fuzzCodegen(t *testing.T, kernel string, seed int64, nIn, nGates uint8, cyc uint16, maxSteps uint32) {
	nInputs := 1 + int(nIn)%8
	gates := 1 + int(nGates)%48
	cycles := 1 + int(cyc)%300
	rng := rand.New(rand.NewSource(seed))
	n := randComb(rng, nInputs, gates)
	inputs := randVectors(rng, cycles, nInputs)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.BuildCodegen(); err != nil {
		t.Fatal(err)
	}
	var bs, bf, bg *budget.Budget
	if maxSteps > 0 {
		bs = budget.New(budget.WithMaxSteps(int64(maxSteps)), budget.WithCheckInterval(1))
		bf = budget.New(budget.WithMaxSteps(int64(maxSteps)), budget.WithCheckInterval(1))
		bg = budget.New(budget.WithMaxSteps(int64(maxSteps)), budget.WithCheckInterval(1))
	}
	serial, errS := RunBudget(bs, n, inputs, cycles, Options{})
	fused, errF := c.Run(bf, inputs, cycles, RunOptions{Workers: 1, NoCodegen: true})
	gen, errG := c.Run(bg, inputs, cycles, RunOptions{Workers: 1})
	if (errS == nil) != (errG == nil) || (errF == nil) != (errG == nil) {
		t.Fatalf("error divergence: serial=%v fused=%v codegen=%v", errS, errF, errG)
	}
	if errG != nil {
		if !errors.Is(errG, budget.ErrExceeded) || !errors.Is(errF, budget.ErrExceeded) {
			t.Fatalf("unexpected errors: %v / %v", errF, errG)
		}
		return
	}
	sameResult(t, serial, gen, kernel+" lanes: fuzz-codegen-serial")
	sameResult(t, fused, gen, kernel+" lanes: fuzz-codegen-fused")
	lean, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Lean: true})
	if err != nil {
		t.Fatalf("%s lanes: lean codegen run: %v", kernel, err)
	}
	if lean.Kernel != KernelCodegen {
		t.Fatalf("%s lanes: lean run on %q, want codegen", kernel, lean.Kernel)
	}
	sameLean(t, gen, lean, kernel+" lanes: fuzz-codegen-lean")
}

// BenchmarkCodegenKernelWorkload is BenchmarkPackedKernelWorkload on
// the promoted tier: same hot multiplier, pre-packed words, lean run,
// pooled scratch — only the evaluator differs. The A/B against the
// fused benchmark is the codegen tier's speedup claim.
func BenchmarkCodegenKernelWorkload(b *testing.B) {
	const w, cycles = 8, 4096
	n, inputs, words := mulWorkload(w, cycles, 123)
	c, err := Compile(n, Options{Vdd: 1, Freq: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.BuildCodegen(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Words: words, Lean: true}); err != nil {
			b.Fatal(err)
		}
	}
}
