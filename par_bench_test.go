package hlpower

// Scaling benchmarks for the parallel estimation engine: sharded Monte
// Carlo simulation and concurrent candidate ranking, each against its
// serial baseline. On an N-core machine the w=N variants should
// approach N-fold speedup (the per-shard work dominates the merge);
// cmd/benchjson runs the same pairs and records the trajectory in
// BENCH_<date>.json.

import (
	"fmt"
	"math/rand"
	"testing"

	"hlpower/internal/core"
	"hlpower/internal/rtlib"
	"hlpower/internal/sim"
)

// benchMCWorkload is a Monte Carlo power-estimation workload in the
// spirit of the E2-scale experiments: a combinational array multiplier
// driven by a seeded random vector stream.
func benchMCWorkload(width, cycles int) (*Netlist, sim.InputProvider) {
	m := rtlib.NewMultiplier(width)
	n := m.Net
	rng := rand.New(rand.NewSource(99))
	ins := 2 * width
	vectors := make([][]bool, cycles)
	for c := range vectors {
		v := make([]bool, ins)
		for i := range v {
			v[i] = rng.Intn(2) == 1
		}
		vectors[c] = v
	}
	return n, sim.VectorInputs(vectors)
}

// benchSimCycles is the vector count of the standard Monte Carlo
// simulation benchmark: ~10k vectors, deliberately not a multiple of 64
// so the packed kernel's tail-lane masking is always on the hot path.
const benchSimCycles = 10240

// benchSimBytes reports the workload's data volume as lane-evaluations
// in bytes (one bit per gate per cycle), so ns/op readings translate
// into a throughput all three kernels share a scale for.
func benchSimBytes(n *Netlist) int64 {
	return int64(benchSimCycles) * int64(len(n.Gates)) / 8
}

// BenchmarkSimSerial is the single-goroutine interpreted Monte Carlo
// baseline.
func BenchmarkSimSerial(b *testing.B) {
	n, inputs := benchMCWorkload(8, benchSimCycles)
	b.ReportAllocs()
	b.SetBytes(benchSimBytes(n))
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(n, inputs, benchSimCycles, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimPacked runs the same workload through the one-shot
// RunPacked (a compile plus a fused 64-lane run on one goroutine);
// compare against BenchmarkSimSerial for the packing speedup alone,
// with no threading in the picture.
func BenchmarkSimPacked(b *testing.B) {
	n, inputs := benchMCWorkload(8, benchSimCycles)
	b.ReportAllocs()
	b.SetBytes(benchSimBytes(n))
	for i := 0; i < b.N; i++ {
		res, err := sim.RunPacked(n, inputs, benchSimCycles, sim.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Kernel != sim.KernelFused {
			b.Fatalf("Kernel=%q, want %q (fallback: %q)", res.Kernel, sim.KernelFused, res.Fallback)
		}
	}
}

// BenchmarkSimParallel shards the same workload across worker pools of
// increasing width (packed kernel inside each shard); compare against
// BenchmarkSimPacked for the sharding speedup on top of packing.
func BenchmarkSimParallel(b *testing.B) {
	n, inputs := benchMCWorkload(8, benchSimCycles)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(benchSimBytes(n))
			for i := 0; i < b.N; i++ {
				_, err := sim.RunParallel(nil, n, inputs, benchSimCycles, sim.ParallelOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchCandidates builds a candidate set whose estimators each run a
// gate-level simulation — the per-candidate macromodel-evaluation shape
// of the design-improvement loop.
func benchCandidates(count, width, cycles int) []Candidate {
	var out []Candidate
	for i := 0; i < count; i++ {
		n, inputs := benchMCWorkload(width, cycles)
		name := fmt.Sprintf("cand-%d", i)
		out = append(out, Candidate{
			Name: name,
			Estimator: core.FuncB{
				EstimatorName: name, EstimatorLevel: Gate,
				Fn: func(b *Budget) (float64, bool, error) {
					res, err := sim.RunBudget(b, n, inputs, cycles, sim.Options{})
					if err != nil {
						return 0, false, err
					}
					return res.Power(), false, nil
				},
			},
		})
	}
	return out
}

// BenchmarkRankSerial evaluates the candidate set on one goroutine.
func BenchmarkRankSerial(b *testing.B) {
	cands := benchCandidates(8, 6, 512)
	for i := 0; i < b.N; i++ {
		r := RankBudget(nil, cands)
		if _, err := r.Best(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankParallel evaluates candidates concurrently; compare
// against BenchmarkRankSerial for speedup.
func BenchmarkRankParallel(b *testing.B) {
	cands := benchCandidates(8, 6, 512)
	for _, workers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := RankParallel(nil, workers, cands)
				if _, err := r.Best(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
