package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json at the root
// of the repository mirrors these tables; TestBenchmarkJSONMatches
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression. Zero for
	// per-layer metrics, which carry no bound.
	Bound float64
}

// endToEnd are the gated metrics a client of powerd sees, reported by
// every untraced run of every workload. The timings among them are
// scaled to the reference host speed (see hostspeed.go). README.md
// records the spreads and the set-to-set differences the bounds are set
// from.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"items_per_s", "items/s", "higher", 0.25},
	{"live_heap_mb", "MB", "lower", 0.15},
}

// reported are the other end-to-end metrics. An untraced run prints
// them and writes them to its result file on the workloads they apply
// to, but they carry no bound: the wall-clock timings follow the host's
// drift, some exist on one workload only, some are always 0 or always
// the same, and the rest spread wider between runs than a bound could
// allow (README.md records by how much).
var reported = []metricDef{
	{"wall_setup_s", "s", "lower", 0},
	{"wall_p50_ms", "ms", "lower", 0},
	{"wall_items_per_s", "items/s", "higher", 0},
	{"p99_ms", "ms", "lower", 0},
	{"throughput_rps", "req/s", "higher", 0},
	{"candidates_per_s", "cand/s", "higher", 0},
	{"max_rate_rps", "req/s", "higher", 0},
	{"error_ratio", "failed/attempted", "lower", 0},
	{"peak_heap_mb", "MB", "lower", 0},
	{"model_err_pct", "%", "lower", 0},
}

// perLayer are the metrics of single layers, reported by every traced
// run of every workload. README.md gives, for each, the end-to-end
// metric and workload it should move.
var perLayer = []metricDef{
	{"powerd.self_us", "us", "lower", 0},
	{"powerd.waiting_max", "count", "lower", 0},
	{"powerd.rejected", "count", "lower", 0},
	{"powerd.shed", "count", "lower", 0},
	{"codec.encode_us", "us", "lower", 0},
	{"codec.decode_us", "us", "lower", 0},
	{"memo.hit_ratio", "ratio", "higher", 0},
	{"memo.hit_us", "us", "lower", 0},
	{"memo.key_us", "us", "lower", 0},
	{"memo.evictions", "count", "lower", 0},
	{"memo.bytes", "bytes", "lower", 0},
	{"service.truthtable_us", "us", "lower", 0},
	{"service.local_us.simulate", "us", "lower", 0},
	{"service.local_us.rank", "us", "lower", 0},
	{"service.local_us.bdd", "us", "lower", 0},
	{"service.local_us.predict", "us", "lower", 0},
	{"service.streams_us", "us", "lower", 0},
	{"service.self_us", "us", "lower", 0},
	{"service.partition_us", "us", "lower", 0},
	{"service.batch_us_per_item", "us", "lower", 0},
	{"service.artifact_builds", "count", "lower", 0},
	{"service.promotions", "count", "lower", 0},
	{"sim.compile_ms", "ms", "lower", 0},
	{"sim.codegen_build_ms", "ms", "lower", 0},
	{"sim.run_us", "us", "lower", 0},
	{"sim.ns_per_gate_cycle", "ns", "lower", 0},
	{"sim.codegen_share", "ratio", "higher", 0},
	{"sim.scratch_hit_rate", "ratio", "higher", 0},
	{"bdd.build_us", "us", "lower", 0},
	{"bdd.unique_hit_ratio", "ratio", "higher", 0},
	{"macromodel.fit_us", "us", "lower", 0},
	{"macromodel.truth_us", "us", "lower", 0},
	{"jobs.job_ms", "ms", "lower", 0},
	{"jobs.candidate_us", "us", "lower", 0},
	{"jobs.queue_wait_ms", "ms", "lower", 0},
	{"jobs.cache_hit_ratio", "ratio", "higher", 0},
	{"jobs.checkpoints_per_job", "count", "lower", 0},
	{"recipe.score_us", "us", "lower", 0},
	{"bench.late_p99_ms", "ms", "lower", 0},
	{"bench.unsent", "count", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// tailPercentile is the highest whole percentile, capped at 99, that
// leaves at least ten of n samples beyond it, and never below the
// median: 99 from 1000 samples up, 90 at 100 samples, 50 below 20.
func tailPercentile(n int) int {
	if n <= 0 {
		return 50
	}
	p := int(math.Floor(100 - 1000/float64(n)))
	switch {
	case p > 99:
		return 99
	case p < 50:
		return 50
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of xs, which it
// sorts in place. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	return xs[k]
}

// quartiles returns the first quartile, median and third quartile of
// xs exactly as Python's statistics.quantiles(xs, n=4) computes them
// (its default "exclusive" method), sorting xs in place. With fewer
// than two values every quartile is the value.
func quartiles(xs []float64) (q1, med, q3 float64) {
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - 4*j)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
