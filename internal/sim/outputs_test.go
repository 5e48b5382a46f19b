package sim

import (
	"errors"
	"math/rand"
	"testing"

	"hlpower/internal/bitutil"
	"hlpower/internal/budget"
	"hlpower/internal/hlerr"
	"hlpower/internal/logic"
)

// TestOutputWordsMatchSerialOutputs: the settle-only evaluator returns,
// for every cycle, exactly the primary outputs the serial engine
// records — across multipliers with up to 16 outputs and random
// netlists exercising every opcode, at cycle counts straddling the
// 64-lane block boundary — and charges the budget the step total a run
// of the same workload charges.
func TestOutputWordsMatchSerialOutputs(t *testing.T) {
	type workload struct {
		name string
		net  *logic.Netlist
	}
	var wls []workload
	for _, w := range []int{2, 5, 8} {
		n, _ := buildMul(w)
		wls = append(wls, workload{name: "mul", net: n})
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		wls = append(wls, workload{name: "rand", net: randComb(rng, 3+rng.Intn(12), 20+rng.Intn(60))})
	}
	for _, wl := range wls {
		c, err := Compile(wl.net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nIn := len(wl.net.Inputs)
		for _, cycles := range []int{1, 2, 63, 64, 65, 200} {
			words := make([]uint64, cycles)
			for i := range words {
				words[i] = rng.Uint64() & bitutil.Mask(nIn)
			}
			wordIn := func(c int) uint64 { return words[c] }
			vecIn := func(c int) []bool { return bitutil.ToBits(words[c], nIn) }
			want, err := Run(wl.net, vecIn, cycles, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b := budget.New()
			got, err := c.OutputWords(b, wordIn, cycles)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != cycles {
				t.Fatalf("%s/%d: %d output words, want %d", wl.name, cycles, len(got), cycles)
			}
			for i, row := range want.Outputs {
				if w := bitutil.FromBits(row); got[i] != w {
					t.Fatalf("%s/%d: cycle %d outputs %#x, want %#x", wl.name, cycles, i, got[i], w)
				}
			}
			ref := budget.New()
			if _, err := c.Run(ref, vecIn, cycles, RunOptions{Workers: 1, Words: wordIn, Lean: true}); err != nil {
				t.Fatal(err)
			}
			if b.StepsUsed() != ref.StepsUsed() {
				t.Fatalf("%s/%d: charged %d steps, a run charges %d", wl.name, cycles, b.StepsUsed(), ref.StepsUsed())
			}
		}
	}
}

// TestOutputWordsScratchReuse: a recycled scratch — left holding
// another workload's planes — cannot leak into a later evaluation.
func TestOutputWordsScratchReuse(t *testing.T) {
	n, _, wordsA := mulWorkload(6, 150, 1)
	_, _, wordsB := mulWorkload(6, 77, 2)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.OutputWords(nil, wordsA, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OutputWords(nil, wordsB, 77); err != nil {
		t.Fatal(err)
	}
	again, err := c.OutputWords(nil, wordsA, 150)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("cycle %d: %#x after reuse, %#x fresh", i, again[i], first[i])
		}
	}
	// One pooled acquisition per evaluation; how many the pool had to
	// allocate depends on what it dropped (the race detector drops Puts
	// at random), so only the bound is pinned.
	if gets, news := c.ScratchStats(); gets != 3 || news > gets {
		t.Fatalf("scratch gets/news = %d/%d, want 3 gets", gets, news)
	}
}

// TestOutputWordsErrors: exhaustion unwinds to the typed budget error;
// artifacts without the packed program, oversized interfaces and bad
// run shapes are typed input errors.
func TestOutputWordsErrors(t *testing.T) {
	n, _, words := mulWorkload(8, 640, 3)
	c, err := Compile(n, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OutputWords(budget.New(budget.WithMaxSteps(1000)), words, 640); !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
	if _, err := c.OutputWords(nil, nil, 10); !hlerr.IsInput(err) {
		t.Fatalf("nil inputs: want input error, got %v", err)
	}
	if _, err := c.OutputWords(nil, words, 0); !hlerr.IsInput(err) {
		t.Fatalf("zero cycles: want input error, got %v", err)
	}

	ed, err := Compile(n, Options{Model: EventDriven})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ed.OutputWords(nil, words, 10); !hlerr.IsInput(err) {
		t.Fatalf("event-driven artifact: want input error, got %v", err)
	}

	wide := logic.New()
	var ins []int
	for i := 0; i < 65; i++ {
		ins = append(ins, wide.AddInput("x"))
	}
	wide.MarkOutput(wide.Add(logic.And, ins[0], ins[64]))
	wc, err := Compile(wide, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.OutputWords(nil, func(int) uint64 { return 0 }, 10); !hlerr.IsInput(err) {
		t.Fatalf("65-input netlist: want input error, got %v", err)
	}
}
