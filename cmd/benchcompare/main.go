// Command benchcompare diffs two BENCH_<date>.json snapshots (see
// cmd/benchjson) and reports per-benchmark deltas, flagging regressions
// beyond a threshold. Timing deltas are advisory only — shared-runner
// timings are too noisy for a hard gate — but allocations are
// deterministic: when the two snapshots cover the same workload shape
// (equal short_workload and gomaxprocs), an allocs_per_op increase
// beyond the threshold, or any increase from zero, fails the run with
// exit code 1. A timing regression never does. Nor does a difference in
// lane_kernel, the capacitance-extraction kernel each snapshot's host
// ran: it is reported as a warning, since the kernel timings then
// measure different code. bytes_per_op is printed beside the
// allocations and never gated: the collector's work follows allocated
// bytes, which the object count alone does not show.
//
// Usage:
//
//	benchcompare                    # two newest BENCH_*.json in the cwd
//	benchcompare -old A.json -new B.json
//	benchcompare -threshold 15      # regression cutoff in percent
//
// When GITHUB_STEP_SUMMARY is set (GitHub Actions), the markdown table
// is also appended there.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type entry struct {
	Name        string  `json:"name"`
	Variant     string  `json:"variant"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  *int64  `json:"bytes_per_op"` // nil in snapshots that predate it
	Speedup     float64 `json:"speedup_vs_serial"`
}

// bytes renders the entry's bytes_per_op, or a dash when the snapshot
// did not record it.
func (e *entry) bytes() string {
	if e.BytesPerOp == nil {
		return "—"
	}
	return fmt.Sprint(*e.BytesPerOp)
}

type snapshot struct {
	Date       string  `json:"date"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LaneKernel string  `json:"lane_kernel"` // empty in snapshots that predate it
	Short      bool    `json:"short_workload"`
	Note       string  `json:"note"`
	Results    []entry `json:"results"`
}

func main() {
	oldPath := flag.String("old", "", "baseline snapshot (default: second-newest BENCH_*.json)")
	newPath := flag.String("new", "", "candidate snapshot (default: newest BENCH_*.json)")
	threshold := flag.Float64("threshold", 10, "regression threshold in percent")
	flag.Parse()

	if *oldPath == "" || *newPath == "" {
		files, _ := filepath.Glob("BENCH_*.json")
		sort.Strings(files) // dates are ISO, lexical == chronological
		// With -new given, the baseline defaults to the newest checked-in
		// snapshot; with neither flag, compare the two newest snapshots.
		need := 1
		if *newPath == "" {
			need = 2
		}
		if len(files) < need {
			// Too few snapshots is the normal state of a fresh
			// checkout — nothing to compare, nothing to report.
			fmt.Println("benchcompare: not enough BENCH_*.json snapshots, nothing to compare")
			return
		}
		if *newPath == "" {
			*newPath = files[len(files)-1]
			files = files[:len(files)-1]
		}
		if *oldPath == "" {
			*oldPath = files[len(files)-1]
		}
	}
	oldSnap, err := load(*oldPath)
	if err != nil {
		fatal(err)
	}
	newSnap, err := load(*newPath)
	if err != nil {
		fatal(err)
	}

	c := compare(oldSnap, newSnap, *threshold)
	out := c.report(filepath.Base(*oldPath), filepath.Base(*newPath), *threshold)
	fmt.Print(out)
	if path := os.Getenv("GITHUB_STEP_SUMMARY"); path != "" {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err == nil {
			_, _ = f.WriteString(out + "\n")
			_ = f.Close()
		}
	}
	if c.fail {
		os.Exit(1)
	}
}

// row is one line of the comparison: an entry present in both
// snapshots, or in only one of them (old or new is nil).
type row struct {
	name     string
	old, new *entry
	deltaPct float64 // ns/op change in percent, when both are present
	mark     string  // verdict or annotation, empty when unremarkable
}

// comparison is the outcome of diffing two snapshots.
type comparison struct {
	old, new *snapshot
	rows     []row
	// comparable: both snapshots have the same workload and host shape
	// (short_workload, gomaxprocs), so allocation counts compare and the
	// gate applies.
	comparable       bool
	regressions      int // entries slower beyond the threshold (advisory)
	allocRegressions int // entries allocating beyond the threshold
	// fail is the gate verdict: an allocation regression between
	// comparable snapshots. A timing regression never fails.
	fail bool
}

// compare diffs newSnap against oldSnap. Rows follow the new
// snapshot's order, then the entries that vanished from it.
func compare(oldSnap, newSnap *snapshot, threshold float64) comparison {
	c := comparison{
		old: oldSnap, new: newSnap,
		comparable: oldSnap.Short == newSnap.Short && oldSnap.GOMAXPROCS == newSnap.GOMAXPROCS,
	}
	oldBy := make(map[string]*entry, len(oldSnap.Results))
	for i := range oldSnap.Results {
		oldBy[oldSnap.Results[i].Name] = &oldSnap.Results[i]
	}
	newNames := make(map[string]bool, len(newSnap.Results))
	for i := range newSnap.Results {
		ne := &newSnap.Results[i]
		newNames[ne.Name] = true
		r := row{name: ne.Name, old: oldBy[ne.Name], new: ne}
		if r.old == nil {
			r.mark = "🆕"
			c.rows = append(c.rows, r)
			continue
		}
		oe := r.old
		if oe.NsPerOp > 0 {
			r.deltaPct = (ne.NsPerOp - oe.NsPerOp) / oe.NsPerOp * 100
		}
		allocPct := 0.0
		if oe.AllocsPerOp > 0 {
			allocPct = float64(ne.AllocsPerOp-oe.AllocsPerOp) / float64(oe.AllocsPerOp) * 100
		}
		switch {
		case oe.AllocsPerOp == 0 && ne.AllocsPerOp > 0:
			// Any allocation is an unbounded relative increase over
			// none: an allocation-free path that starts allocating is
			// exactly what the gate exists to catch.
			r.mark = "❌ allocs from 0"
			c.allocRegressions++
		case allocPct > threshold:
			r.mark = fmt.Sprintf("❌ allocs +%.1f%%", allocPct)
			c.allocRegressions++
		case r.deltaPct > threshold:
			r.mark = fmt.Sprintf("🔺 regression >%g%%", threshold)
			c.regressions++
		case r.deltaPct < -threshold:
			r.mark = "🟢 improvement"
		}
		c.rows = append(c.rows, r)
	}
	// Entries present in the baseline but absent from the candidate are
	// annotated, never gated: a benchmark disappearing usually means the
	// workload set changed on purpose, but a silent drop would otherwise
	// read as "no regression". The "/mp" multi-core entries deserve their
	// own wording — they exist only on multi-core hosts, so their absence
	// on a single-core runner means scaling went unmeasured, not that it
	// regressed.
	for i := range oldSnap.Results {
		oe := &oldSnap.Results[i]
		if newNames[oe.Name] {
			continue
		}
		r := row{name: oe.Name, old: oe, mark: "⚠️ vanished from new snapshot"}
		if strings.HasSuffix(oe.Name, "/mp") {
			r.mark = "⚠️ multi-core pass absent (single-core host?) — scaling unmeasured, not regressed"
		}
		c.rows = append(c.rows, r)
	}
	c.fail = c.allocRegressions > 0 && c.comparable
	return c
}

// report renders the comparison as the markdown summary.
func (c comparison) report(oldName, newName string, threshold float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### Benchmark compare: %s → %s\n\n", oldName, newName)
	if !c.comparable {
		fmt.Fprintf(&b, "> ⚠️ snapshots differ in workload/host shape (short %v→%v, gomaxprocs %d→%d); deltas are indicative only and the alloc gate is off\n\n",
			c.old.Short, c.new.Short, c.old.GOMAXPROCS, c.new.GOMAXPROCS)
	}
	if w := laneKernelWarning(c.old, c.new); w != "" {
		fmt.Fprintf(&b, "> ⚠️ %s\n\n", w)
	}
	b.WriteString("| benchmark | old ns/op | new ns/op | delta | allocs old→new | bytes old→new | |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---|\n")
	for _, r := range c.rows {
		switch {
		case r.old == nil:
			fmt.Fprintf(&b, "| %s | — | %.0f | new | —→%d | —→%s | %s |\n", r.name, r.new.NsPerOp, r.new.AllocsPerOp, r.new.bytes(), r.mark)
		case r.new == nil:
			fmt.Fprintf(&b, "| %s | %.0f | — | gone | — | — | %s |\n", r.name, r.old.NsPerOp, r.mark)
		default:
			fmt.Fprintf(&b, "| %s | %.0f | %.0f | %+.1f%% | %d→%d | %s→%s | %s |\n",
				r.name, r.old.NsPerOp, r.new.NsPerOp, r.deltaPct, r.old.AllocsPerOp, r.new.AllocsPerOp, r.old.bytes(), r.new.bytes(), r.mark)
		}
	}
	// Timing deltas from shared runners jitter run to run; allocation
	// counts do not. Keep readers from acting on noise.
	fmt.Fprintf(&b, "\n> Variance note: ns/op deltas within ±%g%% are indistinguishable from run-to-run noise on shared runners "+
		"(benchstat would call them ~). Treat only larger, repeated timing moves as real; allocs_per_op is deterministic and is what the gate enforces. "+
		"bytes_per_op is shown for the collector's share and is not gated.\n", threshold)
	if c.new.Note != "" {
		fmt.Fprintf(&b, "\n> %s\n", c.new.Note)
	}
	if c.regressions > 0 {
		fmt.Fprintf(&b, "\n**%d benchmark(s) regressed more than %g%% in time.** Advisory; investigate before the trend compounds.\n", c.regressions, threshold)
	}
	if c.allocRegressions > 0 {
		if c.fail {
			fmt.Fprintf(&b, "\n**%d benchmark(s) allocate more than %g%% more per op — failing.** Allocations are deterministic; this is a real regression, not runner noise.\n", c.allocRegressions, threshold)
		} else {
			fmt.Fprintf(&b, "\n**%d benchmark(s) allocate more than %g%% more per op.** Snapshot shapes differ, so the alloc gate is advisory here.\n", c.allocRegressions, threshold)
		}
	}
	return b.String()
}

// laneKernelWarning explains why the two snapshots' kernel timings may
// not compare: their hosts ran different capacitance-extraction
// kernels, or the old snapshot does not say which it ran. Empty when
// both name the same kernel.
func laneKernelWarning(oldSnap, newSnap *snapshot) string {
	name := func(k string) string {
		if k == "" {
			return "unnamed"
		}
		return k
	}
	switch {
	case oldSnap.LaneKernel == "":
		return fmt.Sprintf("the old snapshot does not name its lane kernel (new: %s); sim/* and batch/* deltas may compare different extraction code",
			name(newSnap.LaneKernel))
	case oldSnap.LaneKernel != newSnap.LaneKernel:
		return fmt.Sprintf("lane kernels differ (%s→%s); sim/* and batch/* deltas compare different extraction code",
			oldSnap.LaneKernel, name(newSnap.LaneKernel))
	}
	return ""
}

func load(path string) (*snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcompare:", err)
	os.Exit(1)
}
