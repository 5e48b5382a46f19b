// Command hlbench is the repository's end-to-end benchmark. It starts
// an in-process powerd with production defaults behind a loopback
// listener, loads it from this one process over at most two
// connections with one of four seeded workloads, checks a sample of the
// responses against reference engines, and prints every metric by name
// with its unit. See README.md for the workloads, the metrics and how
// to read a trace.
//
// Usage:
//
//	hlbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//	        [--out FILE] [--spans FILE]
//	hlbench compare --parent GLOB --change GLOB
//
// Without --workload it runs all four workloads in turn. --trace 0
// measures the end-to-end metrics; --trace 1 is the traced run that
// measures the per-layer metrics and writes a span file. The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. The exit code is 0 only when every response was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("hlbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all four)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 for the traced run that reports the per-layer metrics")
	out := fs.String("out", "", "result file (default .bench_build/hlbench/<workload>-seed<N>[-trace].json)")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/hlbench/spans-<workload>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hlbench: want --seconds > 0, --trace 0 or 1, and no arguments")
		return 2
	}
	run := workloads
	if *name != "" {
		wl, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hlbench:", err)
			return 2
		}
		run = []*workload{wl}
	}
	opt := options{seed: *seed, seconds: *seconds, setups: setups}

	final := lastLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, wl := range run {
		suffix := ""
		if *trace == 1 {
			suffix = "-trace"
		}
		outPath := *out
		if outPath == "" || len(run) > 1 {
			outPath = filepath.Join(".bench_build", "hlbench", fmt.Sprintf("%s-seed%d%s.json", wl.name, *seed, suffix))
		}
		var res *result
		var err error
		if *trace == 1 {
			spansPath := *spans
			if spansPath == "" || len(run) > 1 {
				spansPath = filepath.Join(".bench_build", "hlbench", fmt.Sprintf("spans-%s-seed%d.json", wl.name, *seed))
			}
			res, err = runTraced(wl, opt, spansPath)
		} else {
			res, err = runMeasured(wl, opt)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "hlbench: %s: %v\n", wl.name, err)
			return 1
		}
		report(res, *trace == 1)
		if err := writeResult(outPath, res); err != nil {
			fmt.Fprintln(os.Stderr, "hlbench:", err)
			return 1
		}
		final.add(res, *trace == 1, len(run) > 1)
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

// lastLine is the run's final output line.
type lastLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// add folds one workload's result in. With several workloads, metric
// names take a "<workload>/" prefix.
func (l *lastLine) add(res *result, trace, prefix bool) {
	l.Correct = l.Correct && res.Correct
	l.Attempted += res.Attempted
	l.Failed += res.Failed
	for _, m := range tableFor(trace) {
		key := m.Name
		if prefix {
			key = res.Workload + "/" + key
		}
		l.Metrics[key] = metricValue{Value: res.Metrics[m.Name], Unit: m.Unit}
	}
}

func tableFor(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// report prints the run's notes and then each metric as
// "workload metric value unit": the gated ones, then, on an untraced
// run, the ungated end-to-end ones that apply to the workload.
func report(res *result, trace bool) {
	for _, n := range res.Notes {
		fmt.Printf("# %s: %s\n", res.Workload, n)
	}
	fmt.Printf("# %s: attempted %d, failed %d, correct %v\n", res.Workload, res.Attempted, res.Failed, res.Correct)
	for _, m := range tableFor(trace) {
		fmt.Printf("%s %s %.6g %s\n", res.Workload, m.Name, res.Metrics[m.Name], m.Unit)
	}
	if trace {
		return
	}
	for _, m := range reported {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Printf("%s %s %.6g %s\n", res.Workload, m.Name, v, m.Unit)
		}
	}
}

func writeResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
