package main

import (
	"strings"
	"testing"
)

func snap(procs int, entries ...entry) *snapshot {
	return &snapshot{GOMAXPROCS: procs, Results: entries}
}

func bytesPerOp(n int64) *int64 { return &n }

func TestCompareGate(t *testing.T) {
	cases := []struct {
		name     string
		old, new *snapshot
		fail     bool
		allocs   int    // allocRegressions
		timing   int    // regressions
		mark     string // substring of the first row's mark
		report   string // substring of the report, when set
	}{
		{
			name: "same-shape allocs +11% fails",
			old:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 100}),
			new:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 111}),
			fail: true, allocs: 1, mark: "❌ allocs +11.0%",
		},
		{
			name: "same-shape allocs +9% passes",
			old:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 100}),
			new:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 109}),
		},
		{
			name: "allocation-free entry that allocates fails",
			old:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 0}),
			new:  snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 1}),
			fail: true, allocs: 1, mark: "❌ allocs from 0",
		},
		{
			name:   "timing-only regression never fails",
			old:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 5}),
			new:    snap(2, entry{Name: "a", NsPerOp: 1000, AllocsPerOp: 5}),
			timing: 1, mark: "🔺 regression",
		},
		{
			name:   "shape mismatch makes the alloc gate advisory",
			old:    snap(1, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 0}),
			new:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 50}),
			allocs: 1, mark: "❌ allocs from 0",
		},
		{
			name: "vanished entry is annotated, not gated",
			old:  snap(2, entry{Name: "gone", NsPerOp: 100, AllocsPerOp: 5}),
			new:  snap(2),
			mark: "vanished from new snapshot",
		},
		{
			name: "absent multi-core entry is annotated as unmeasured",
			old:  snap(2, entry{Name: "sim/parallel/w2/mp", NsPerOp: 100, AllocsPerOp: 5}),
			new:  snap(2),
			mark: "multi-core pass absent",
		},
		{
			name:   "bytes are printed old→new and never gated",
			old:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: bytesPerOp(1000)}),
			new:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: bytesPerOp(50_000)}),
			report: "| 5→5 | 1000→50000 |",
		},
		{
			name:   "a snapshot without bytes prints a dash",
			old:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 5}),
			new:    snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 5, BytesPerOp: bytesPerOp(800)}),
			report: "| 5→5 | —→800 |",
		},
		{
			name: "new entry is annotated",
			old:  snap(2),
			new:  snap(2, entry{Name: "fresh", NsPerOp: 100, AllocsPerOp: 5}),
			mark: "🆕",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := compare(tc.old, tc.new, 10)
			if c.fail != tc.fail || c.allocRegressions != tc.allocs || c.regressions != tc.timing {
				t.Fatalf("fail=%v allocRegressions=%d regressions=%d, want %v/%d/%d",
					c.fail, c.allocRegressions, c.regressions, tc.fail, tc.allocs, tc.timing)
			}
			if len(c.rows) != 1 {
				t.Fatalf("%d rows, want 1", len(c.rows))
			}
			if !strings.Contains(c.rows[0].mark, tc.mark) {
				t.Fatalf("mark %q, want it to contain %q", c.rows[0].mark, tc.mark)
			}
			out := c.report("old.json", "new.json", 10)
			if !strings.Contains(out, c.rows[0].name) {
				t.Fatalf("report lacks row %q:\n%s", c.rows[0].name, out)
			}
			if strings.Contains(out, "failing") != tc.fail {
				t.Fatalf("report failing verdict != %v:\n%s", tc.fail, out)
			}
			if !strings.Contains(out, tc.report) {
				t.Fatalf("report lacks %q:\n%s", tc.report, out)
			}
		})
	}
}

// TestCompareShortWorkloadMismatch: a short-workload snapshot never
// gates against a full one, even on the same host width.
func TestCompareShortWorkloadMismatch(t *testing.T) {
	old := snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 10})
	cur := snap(2, entry{Name: "a", NsPerOp: 100, AllocsPerOp: 20})
	cur.Short = true
	c := compare(old, cur, 10)
	if c.comparable || c.fail || c.allocRegressions != 1 {
		t.Fatalf("comparable=%v fail=%v allocRegressions=%d, want false/false/1", c.comparable, c.fail, c.allocRegressions)
	}
	if out := c.report("a", "b", 10); !strings.Contains(out, "advisory") {
		t.Fatalf("report does not call the gate advisory:\n%s", out)
	}
}

// TestCompareLaneKernel: snapshots whose hosts ran different lane
// kernels, or an old snapshot that does not name its kernel, draw a
// warning in the report and never fail the gate.
func TestCompareLaneKernel(t *testing.T) {
	cases := []struct {
		name     string
		old, new string
		warning  string // substring of the report; empty means no warning
	}{
		{name: "same kernel", old: "avx512", new: "avx512"},
		{name: "kernels differ", old: "avx512", new: "go", warning: "lane kernels differ (avx512→go)"},
		{name: "old snapshot predates the field", old: "", new: "avx512", warning: "old snapshot does not name its lane kernel (new: avx512)"},
		{name: "new snapshot lacks the field", old: "go", new: "", warning: "lane kernels differ (go→unnamed)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			old := snap(2, entry{Name: "sim/fused", NsPerOp: 100, AllocsPerOp: 7})
			cur := snap(2, entry{Name: "sim/fused", NsPerOp: 40, AllocsPerOp: 7})
			old.LaneKernel, cur.LaneKernel = tc.old, tc.new
			c := compare(old, cur, 10)
			if c.fail {
				t.Fatal("a lane-kernel difference failed the gate")
			}
			out := c.report("old.json", "new.json", 10)
			if got := strings.Contains(out, "lane kernel"); got != (tc.warning != "") {
				t.Fatalf("report warns about lane kernels: %v, want %v:\n%s", got, tc.warning != "", out)
			}
			if !strings.Contains(out, tc.warning) {
				t.Fatalf("report lacks %q:\n%s", tc.warning, out)
			}
		})
	}
}
