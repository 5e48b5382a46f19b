package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hlpower/internal/budget"
	"hlpower/internal/logic"
)

// mcNetlist builds a combinational multiplier-like block wide enough to
// make sharding meaningful, plus a seeded Monte Carlo vector stream.
func mcNetlist(t testing.TB, inputs, cycles int, seed int64) (*logic.Netlist, InputProvider) {
	if t != nil {
		t.Helper()
	}
	n := logic.New()
	var ids []int
	for i := 0; i < inputs; i++ {
		ids = append(ids, n.AddInput("x"))
	}
	// A few layers of mixed logic with reconvergent fanout.
	layer := ids
	for depth := 0; depth < 4; depth++ {
		var next []int
		for i := 0; i+1 < len(layer); i += 2 {
			kind := logic.And
			switch (depth + i) % 3 {
			case 1:
				kind = logic.Xor
			case 2:
				kind = logic.Or
			}
			next = append(next, n.AddG(kind, "exec", layer[i], layer[i+1]))
		}
		if len(next) < 2 {
			break
		}
		layer = next
	}
	for _, id := range layer {
		n.MarkOutput(id)
	}
	rng := rand.New(rand.NewSource(seed))
	vectors := make([][]bool, cycles)
	for c := range vectors {
		v := make([]bool, inputs)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		vectors[c] = v
	}
	return n, VectorInputs(vectors)
}

// sameResult asserts bit-identity, not approximate equality: the
// deterministic merge promises parallel == serial to the last ulp.
func sameResult(t *testing.T, serial, parallel *Result, label string) {
	t.Helper()
	if math.Float64bits(serial.SwitchedCap) != math.Float64bits(parallel.SwitchedCap) {
		t.Fatalf("%s: SwitchedCap differs: serial %v parallel %v", label, serial.SwitchedCap, parallel.SwitchedCap)
	}
	if serial.Cycles != parallel.Cycles {
		t.Fatalf("%s: cycles differ", label)
	}
	if len(serial.PerCycleCap) != len(parallel.PerCycleCap) {
		t.Fatalf("%s: PerCycleCap length differs", label)
	}
	for c := range serial.PerCycleCap {
		if math.Float64bits(serial.PerCycleCap[c]) != math.Float64bits(parallel.PerCycleCap[c]) {
			t.Fatalf("%s: PerCycleCap[%d] differs", label, c)
		}
	}
	if len(serial.ByGroup) != len(parallel.ByGroup) {
		t.Fatalf("%s: ByGroup keys differ: %v vs %v", label, serial.ByGroup, parallel.ByGroup)
	}
	for g, v := range serial.ByGroup {
		if math.Float64bits(v) != math.Float64bits(parallel.ByGroup[g]) {
			t.Fatalf("%s: ByGroup[%q] differs: %v vs %v", label, g, v, parallel.ByGroup[g])
		}
	}
	for id := range serial.Toggles {
		if serial.Toggles[id] != parallel.Toggles[id] {
			t.Fatalf("%s: Toggles[%d] differs", label, id)
		}
	}
	for c := range serial.Outputs {
		for i := range serial.Outputs[c] {
			if serial.Outputs[c][i] != parallel.Outputs[c][i] {
				t.Fatalf("%s: Outputs[%d][%d] differs", label, c, i)
			}
		}
	}
	for id := range serial.Final {
		if serial.Final[id] != parallel.Final[id] {
			t.Fatalf("%s: Final[%d] differs", label, id)
		}
	}
	if math.Float64bits(serial.Power()) != math.Float64bits(parallel.Power()) {
		t.Fatalf("%s: Power differs", label)
	}
}

// TestParallelBitIdenticalToSerial is the determinism acceptance test:
// for a fixed seed, the sharded Monte Carlo run must reproduce the
// serial result bit for bit, at every worker count and for both delay
// models.
func TestParallelBitIdenticalToSerial(t *testing.T) {
	for _, model := range []DelayModel{ZeroDelay, EventDriven} {
		n, inputs := mcNetlist(t, 16, 700, 42)
		opts := Options{Model: model, Vdd: 1.8, Freq: 2}
		serial, err := Run(n, inputs, 700, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 7, 16} {
			res, err := RunParallel(nil, n, inputs, 700, ParallelOptions{
				Options: opts, Workers: workers,
			})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, serial, res, "model/workers")
		}
	}
}

func TestParallelSequentialFallsBackToSerial(t *testing.T) {
	n := logic.New()
	in := n.AddInput("d")
	ff := n.Add(logic.DFF, in)
	n.MarkOutput(ff)
	rng := rand.New(rand.NewSource(3))
	vectors := make([][]bool, 400)
	for c := range vectors {
		vectors[c] = []bool{rng.Intn(2) == 1}
	}
	serial, err := Run(n, VectorInputs(vectors), 400, Options{TrackClock: true})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunParallel(nil, n, VectorInputs(vectors), 400, ParallelOptions{
		Options: Options{TrackClock: true}, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, serial, parallel, "sequential-fallback")
	if parallel.Fallback != FallbackSequential || parallel.Shards != 1 {
		t.Fatalf("sequential netlist: Fallback=%q Shards=%d, want %q/1", parallel.Fallback, parallel.Shards, FallbackSequential)
	}
}

// TestParallelFallbackObservable pins the observability contract: a
// degraded (serial) RunParallel names its reason in Result.Fallback and
// reports one shard, while a genuinely sharded run reports neither.
func TestParallelFallbackObservable(t *testing.T) {
	// Sequential netlist: fallback with the sequential reason.
	n := logic.New()
	in := n.AddInput("d")
	n.MarkOutput(n.Add(logic.DFF, in))
	vectors := make([][]bool, 200)
	for c := range vectors {
		vectors[c] = []bool{c%3 == 0}
	}
	res, err := RunParallel(nil, n, VectorInputs(vectors), 200, ParallelOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackSequential || res.Shards != 1 {
		t.Fatalf("sequential netlist: Fallback=%q Shards=%d, want %q/1", res.Fallback, res.Shards, FallbackSequential)
	}

	// Run shorter than two shards: fallback with the short-run reason.
	comb, inputs := mcNetlist(t, 8, 40, 2)
	res, err = RunParallel(nil, comb, inputs, 40, ParallelOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != FallbackShortRun || res.Shards != 1 {
		t.Fatalf("short run: Fallback=%q Shards=%d, want %q/1", res.Fallback, res.Shards, FallbackShortRun)
	}

	// A shardable run reports its shard count and no fallback.
	comb, inputs = mcNetlist(t, 8, 400, 2)
	res, err = RunParallel(nil, comb, inputs, 400, ParallelOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "" || res.Shards < 2 {
		t.Fatalf("sharded run: Fallback=%q Shards=%d, want \"\" and >=2", res.Fallback, res.Shards)
	}

	// The serial entry point reports one shard and no fallback (it never
	// promised parallelism).
	res, err = Run(comb, inputs, 400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallback != "" || res.Shards != 1 {
		t.Fatalf("serial run: Fallback=%q Shards=%d, want \"\"/1", res.Fallback, res.Shards)
	}
}

func TestParallelInputErrors(t *testing.T) {
	n, _ := mcNetlist(t, 8, 1, 1)
	if _, err := RunParallel(nil, nil, nil, 10, ParallelOptions{}); err == nil {
		t.Fatal("nil netlist accepted")
	}
	if _, err := RunParallel(nil, n, nil, 10, ParallelOptions{}); err == nil {
		t.Fatal("nil provider accepted")
	}
	// Wrong-width vectors must surface as a typed error from inside the
	// worker pool, not a panic.
	bad := func(cycle int) []bool { return []bool{true} }
	if _, err := RunParallel(nil, n, bad, 500, ParallelOptions{Workers: 4}); err == nil {
		t.Fatal("wrong-width vector accepted")
	}
}

// TestParallelBudgetExhaustion proves a budget trip inside one shard
// unwinds the whole pool to a typed error.
func TestParallelBudgetExhaustion(t *testing.T) {
	n, inputs := mcNetlist(t, 16, 2000, 5)
	b := budget.New(budget.WithMaxSteps(200))
	_, err := RunParallel(b, n, inputs, 2000, ParallelOptions{Workers: 4})
	if !errors.Is(err, budget.ErrExceeded) {
		t.Fatalf("want budget exhaustion, got %v", err)
	}
}

// TestParallelFaultInjectionUnwinds sweeps deterministic fault trips
// through the sharded simulation and asserts every failure mode is a
// clean typed error with the pool fully unwound.
func TestParallelFaultInjectionUnwinds(t *testing.T) {
	n, inputs := mcNetlist(t, 16, 1200, 9)
	for fail := int64(1); fail <= 5; fail++ {
		b := budget.New(
			budget.WithFaultPlan(budget.FaultPlan{FailAtCheck: fail}),
			budget.WithCheckInterval(64),
		)
		_, err := RunParallel(b, n, inputs, 1200, ParallelOptions{Workers: 4})
		var ex *budget.Exceeded
		if !errors.As(err, &ex) {
			t.Fatalf("fail@%d: want *budget.Exceeded, got %v", fail, err)
		}
	}
}

// TestParallelBudgetAccounting: a forked parallel run charges the
// parent budget the same total step count as the serial run.
func TestParallelBudgetAccounting(t *testing.T) {
	n, inputs := mcNetlist(t, 16, 600, 17)
	bs := budget.New()
	if _, err := RunBudget(bs, n, inputs, 600, Options{}); err != nil {
		t.Fatal(err)
	}
	bp := budget.New()
	if _, err := RunParallel(bp, n, inputs, 600, ParallelOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	if bs.StepsUsed() != bp.StepsUsed() {
		t.Fatalf("parallel charged %d steps, serial %d", bp.StepsUsed(), bs.StepsUsed())
	}
}

func BenchmarkShardedMC(b *testing.B) {
	n, inputs := mcNetlist(nil, 32, 20000, 23)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunParallel(nil, n, inputs, 20000, ParallelOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
