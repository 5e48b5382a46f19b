package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// minPairs is the fewest parent/change pairs from which a gain may be
// claimed.
const minPairs = 10

// Verdicts of a comparison.
const (
	verdictImproved   = "improved"
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
	verdictNone       = "-" // a per-layer metric without a gain
)

// comparison is one (workload, metric) row of a comparison.
type comparison struct {
	workload, metric string
	parent, change   [3]float64 // first quartile, median, third quartile
	won, pairs       int
	verdict          string
}

// judge compares paired runs of one metric, by the rule for claiming a
// gain in a small sandbox: at least minPairs pairs, the change winning
// at least nine tenths of them (ties count for neither side), and the
// medians further apart than the parent's own quartile spread. No gain
// counts when the change failed more operations. Otherwise an
// end-to-end metric is worse when its median moved the wrong way by
// more than the bound, unresolved when the parent's own spread is wider
// than the bound (unless every change run beats every parent run), and
// within bound otherwise.
func judge(m metricDef, parent, change []float64, moreFailures bool) comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	c := comparison{metric: m.Name, pairs: n}
	better := func(a, b float64) bool {
		if m.Better == "higher" {
			return a > b
		}
		return a < b
	}
	allBetter := n > 0
	for i := range parent {
		if better(change[i], parent[i]) {
			c.won++
		}
		for j := range parent {
			if !better(change[i], parent[j]) {
				allBetter = false
			}
		}
	}
	p := append([]float64(nil), parent...)
	ch := append([]float64(nil), change...)
	c.parent[0], c.parent[1], c.parent[2] = quartiles(p)
	c.change[0], c.change[1], c.change[2] = quartiles(ch)
	pMed, cMed := c.parent[1], c.change[1]
	spread := c.parent[2] - c.parent[0]
	switch {
	case n >= minPairs && !moreFailures && 10*c.won >= 9*n &&
		better(cMed, pMed) && math.Abs(cMed-pMed) > spread:
		c.verdict = verdictImproved
	case m.Bound == 0:
		c.verdict = verdictNone
	case spread > m.Bound*math.Abs(pMed) && !allBetter:
		c.verdict = verdictUnresolved
	case better(pMed, cMed) && math.Abs(cMed-pMed) > m.Bound*math.Abs(pMed):
		c.verdict = verdictWorse
	default:
		c.verdict = verdictWithin
	}
	return c
}

// loadResults reads the result files matching a glob, by workload, each
// workload's files in name order.
func loadResults(glob string) (map[string][]*result, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result files match %q", glob)
	}
	sort.Strings(paths)
	out := map[string][]*result{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[r.Workload] = append(out[r.Workload], &r)
	}
	return out, nil
}

// compareRuns pairs the i-th parent run with the i-th change run of
// each workload and judges every metric both sides report.
func compareRuns(parent, change map[string][]*result) []comparison {
	var rows []comparison
	for _, wl := range workloads {
		ps, cs := parent[wl.name], change[wl.name]
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		n := min(len(ps), len(cs))
		pFailed, cFailed := 0, 0
		for i := 0; i < n; i++ {
			pFailed += ps[i].Failed
			cFailed += cs[i].Failed
		}
		for _, m := range slices.Concat(endToEnd, reported, perLayer) {
			var pv, cv []float64
			for i := 0; i < n; i++ {
				p, okP := ps[i].Metrics[m.Name]
				c, okC := cs[i].Metrics[m.Name]
				if okP && okC {
					pv, cv = append(pv, p), append(cv, c)
				}
			}
			if len(pv) == 0 {
				continue
			}
			row := judge(m, pv, cv, cFailed > pFailed)
			row.workload = wl.name
			rows = append(rows, row)
		}
	}
	return rows
}

func printComparison(w io.Writer, rows []comparison) {
	fmt.Fprintf(w, "%-16s %-28s %-36s %-36s %-7s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "won", "verdict")
	for _, r := range rows {
		q := func(v [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", v[1], v[0], v[2]) }
		fmt.Fprintf(w, "%-16s %-28s %-36s %-36s %-7s %s\n", r.workload, r.metric, q(r.parent), q(r.change),
			fmt.Sprintf("%d/%d", r.won, r.pairs), r.verdict)
	}
}

// compareMain implements "hlbench compare". It exits 1 when any
// end-to-end metric got worse by more than its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("hlbench compare", flag.ContinueOnError)
	parentGlob := fs.String("parent", "", "glob of the parent commit's result files")
	changeGlob := fs.String("change", "", "glob of the change's result files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentGlob == "" || *changeGlob == "" || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "hlbench compare: want --parent GLOB and --change GLOB")
		return 2
	}
	parent, err := loadResults(*parentGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlbench compare:", err)
		return 2
	}
	change, err := loadResults(*changeGlob)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hlbench compare:", err)
		return 2
	}
	rows := compareRuns(parent, change)
	printComparison(os.Stdout, rows)
	for _, r := range rows {
		if r.verdict == verdictWorse {
			return 1
		}
	}
	return 0
}
