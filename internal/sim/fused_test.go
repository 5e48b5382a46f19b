package sim

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/logic"
)

// buildMul constructs a w×w array multiplier from primitive gates —
// the serving workload's gate mix (AND partial products, XOR/AND-OR
// full-adder cells) without importing rtlib, which would cycle back
// into sim. Returns the netlist and the input ids of a then b.
func buildMul(w int) (*logic.Netlist, []int) {
	n := logic.New()
	ins := make([]int, 0, 2*w)
	a := make([]int, w)
	b := make([]int, w)
	for i := range a {
		a[i] = n.AddInput("a")
		ins = append(ins, a[i])
	}
	for i := range b {
		b[i] = n.AddInput("b")
		ins = append(ins, b[i])
	}
	fullAdd := func(x, y, cin int) (sum, cout int) {
		axy := n.Add(logic.Xor, x, y)
		sum = n.Add(logic.Xor, axy, cin)
		cout = n.Add(logic.Or, n.Add(logic.And, x, y), n.Add(logic.And, axy, cin))
		return
	}
	zero := n.Add(logic.Const0)
	// acc holds the running sum of shifted partial-product rows.
	acc := make([]int, 2*w)
	for j := range acc {
		acc[j] = zero
	}
	for j := 0; j < w; j++ {
		acc[j] = n.Add(logic.And, a[0], b[j])
	}
	for i := 1; i < w; i++ {
		carry := zero
		for j := 0; j < w; j++ {
			pp := n.Add(logic.And, a[i], b[j])
			acc[i+j], carry = fullAdd(acc[i+j], pp, carry)
		}
		acc[i+w] = carry
	}
	for _, o := range acc {
		n.MarkOutput(o)
	}
	return n, ins
}

// mulWorkload pairs the multiplier with a seeded operand stream in both
// provider and packed-word form (bit i of the word is input i).
func mulWorkload(w, cycles int, seed int64) (*logic.Netlist, InputProvider, WordInputs) {
	n, ins := buildMul(w)
	rng := rand.New(rand.NewSource(seed))
	words := make([]uint64, cycles)
	for c := range words {
		words[c] = rng.Uint64() & (uint64(1)<<uint(len(ins)) - 1)
	}
	vectors := make([][]bool, cycles)
	for c := range vectors {
		v := make([]bool, len(ins))
		for i := range v {
			v[i] = words[c]>>uint(i)&1 == 1
		}
		vectors[c] = v
	}
	return n, VectorInputs(vectors), func(c int) uint64 { return words[c] }
}

// TestFusedBitIdentity is the fused tier's core property: across random
// netlists and cycle counts straddling word boundaries, a Compiled run
// (which executes the logic.Fuse form) is bit-identical in every result
// field to the serial engine.
func TestFusedBitIdentity(t *testing.T) {
	cycleCounts := []int{1, 2, 63, 64, 65, 127, 128, 130, 333}
	sawFusion := false
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		n := randComb(rng, 3+rng.Intn(6), 5+rng.Intn(40))
		c, err := Compile(n, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.FusedAbsorbed() > 0 {
			sawFusion = true
		}
		for _, cycles := range cycleCounts {
			inputs := randVectors(rng, cycles, len(n.Inputs))
			serial, err := Run(n, inputs, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			fused, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if fused.Kernel != KernelFused {
				t.Fatalf("trial %d cycles %d: Kernel=%q, want fused", trial, cycles, fused.Kernel)
			}
			sameResult(t, serial, fused, "fused-vs-serial")
		}
	}
	if !sawFusion {
		t.Fatal("no trial produced any fused superinstruction; generator too narrow")
	}
}

// TestFusedMultiplierWorkload pins the serving workload: the array
// multiplier's carry cells must actually fuse (AO22-dominated mix), and
// the fused lean+words run — the exact shape powerd serves — must agree
// with the serial engine to the bit on the power figure.
func TestFusedMultiplierWorkload(t *testing.T) {
	const w, cycles = 8, 1000
	n, inputs, words := mulWorkload(w, cycles, 77)
	c, err := Compile(n, Options{Vdd: 1, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.FusedAbsorbed() == 0 {
		t.Fatal("multiplier fused nothing")
	}
	mix := c.FusedMix()
	if mix["ao22"] == 0 {
		t.Fatalf("mix = %v, want ao22 carry cells", mix)
	}
	serial, err := Run(n, inputs, cycles, Options{Vdd: 1, Freq: 1})
	if err != nil {
		t.Fatal(err)
	}
	fused, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Words: words, Lean: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(serial.Power()) != math.Float64bits(fused.Power()) {
		t.Fatalf("Power differs: serial %v fused %v", serial.Power(), fused.Power())
	}
	if math.Float64bits(serial.SwitchedCap) != math.Float64bits(fused.SwitchedCap) {
		t.Fatalf("SwitchedCap differs")
	}
	gets, news := c.ScratchStats()
	if gets == 0 || news > gets {
		t.Fatalf("scratch stats gets=%d news=%d", gets, news)
	}
}

// TestFusedBudgetBoundary: budget charging ignores fusion and the input
// form (steps count source-program gates), so exhaustion trips at
// exactly the same point on the fused kernel, fed vectors or words, as
// on the serial engine — including the boundary where the allowance
// covers the run precisely.
func TestFusedBudgetBoundary(t *testing.T) {
	checkBudgetBoundary(t, KernelFused)
}

// checkBudgetBoundary runs the multiplier workload on a compiled
// artifact serving kernel (KernelFused, or KernelCodegen after
// BuildCodegen), once with vectors and once with RunOptions.Words: an
// allowance of exactly the serial engine's step count passes and
// charges that count, one step less fails with budget.ErrExceeded, as
// it does on RunBudget.
func checkBudgetBoundary(t *testing.T, kernel string) {
	t.Helper()
	const w, cycles = 4, 500
	n, inputs, words := mulWorkload(w, cycles, 9)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kernel == KernelCodegen {
		if err := c.BuildCodegen(); err != nil {
			t.Fatal(err)
		}
	}
	ref := budget.New(budget.WithMaxSteps(1 << 40))
	if _, err := RunBudget(ref, n, inputs, cycles, Options{}); err != nil {
		t.Fatal(err)
	}
	need := ref.StepsUsed()
	shortS := budget.New(budget.WithMaxSteps(need-1), budget.WithCheckInterval(1))
	if _, err := RunBudget(shortS, n, inputs, cycles, Options{}); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("serial err = %v, want budget.ErrExceeded", err)
	}

	for _, feed := range []struct {
		name  string
		words WordInputs
	}{{"vectors", nil}, {"words", words}} {
		t.Run(feed.name, func(t *testing.T) {
			opts := RunOptions{Workers: 1, Words: feed.words}
			exact := budget.New(budget.WithMaxSteps(need), budget.WithCheckInterval(1))
			res, err := c.Run(exact, inputs, cycles, opts)
			if err != nil {
				t.Fatalf("exact budget failed: %v", err)
			}
			if res.Kernel != kernel {
				t.Fatalf("Kernel=%q, want %q", res.Kernel, kernel)
			}
			if exact.StepsUsed() != need {
				t.Fatalf("%s charged %d steps, serial %d", kernel, exact.StepsUsed(), need)
			}
			short := budget.New(budget.WithMaxSteps(need-1), budget.WithCheckInterval(1))
			if _, err := c.Run(short, inputs, cycles, opts); !errors.Is(err, budget.ErrExceeded) {
				t.Fatalf("err = %v, want budget.ErrExceeded", err)
			}
		})
	}
}

// TestFusedScratchReuseNoAliasing: results must never alias pooled
// scratch — a Result obtained from one run has to stay byte-stable
// while later runs recycle the pool, including the one-shot pool.
func TestFusedScratchReuseNoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := randComb(rng, 5, 30)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Run(nil, randVectors(rng, 200, 5), 200, RunOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := first.Clone()
	for i := 0; i < 5; i++ {
		if _, err := c.Run(nil, randVectors(rng, 200, 5), 200, RunOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		if _, err := RunPacked(n, randVectors(rng, 200, 5), 200, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	sameResult(t, snap, first, "result-aliasing")
	for c := range snap.Outputs {
		for i := range snap.Outputs[c] {
			if snap.Outputs[c][i] != first.Outputs[c][i] {
				t.Fatalf("Outputs[%d][%d] mutated by later pooled runs", c, i)
			}
		}
	}
}

// FuzzFusedEquivalence drives a compiled artifact's fused run against
// the serial engine from fuzzed corners (fuzzAgainstSerial): arbitrary
// netlist shapes, forward fanins included, cycle counts around word
// boundaries, and step limits that may exhaust mid-run.
func FuzzFusedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(20), uint16(65), uint32(0))
	f.Add(int64(2), uint8(1), uint8(1), uint16(1), uint32(0))
	f.Add(int64(3), uint8(8), uint8(60), uint16(257), uint32(0))
	f.Add(int64(42), uint8(4), uint8(30), uint16(128), uint32(500))
	f.Fuzz(func(t *testing.T, seed int64, nIn, nGates uint8, cyc uint16, maxSteps uint32) {
		forEachLaneKernel(t, func(kernel string) {
			fuzzAgainstSerial(t, seed, nIn, nGates, cyc, maxSteps,
				func(b *budget.Budget, n *logic.Netlist, inputs InputProvider, cycles int) (*Result, error) {
					c, err := Compile(n, Options{})
					if err != nil {
						t.Fatal(err)
					}
					full, err := c.Run(b, inputs, cycles, RunOptions{Workers: 1})
					if err == nil {
						lean, err := c.Run(nil, inputs, cycles, RunOptions{Workers: 1, Lean: true})
						if err != nil {
							t.Fatalf("%s lanes: lean run: %v", kernel, err)
						}
						sameLean(t, full, lean, kernel+" lanes: fuzz-lean")
					}
					return full, err
				})
		})
	})
}

// BenchmarkPackedKernelWorkload is the profile target (`make profile`):
// the serving-shaped fused run — hot multiplier, pre-packed words, lean
// — over the pooled compiled artifact.
func BenchmarkPackedKernelWorkload(b *testing.B) {
	const w, cycles = 8, 4096
	n, inputs, words := mulWorkload(w, cycles, 123)
	c, err := Compile(n, Options{Vdd: 1, Freq: 1})
	if err != nil {
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
