package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachLaneKernel runs body once per addLanes implementation, with
// that implementation selected, and logs each one the host cannot run.
func forEachLaneKernel(t testing.TB, body func(kernel string)) {
	t.Helper()
	saved := selectedLanes
	defer func() { selectedLanes = saved }()
	for _, k := range laneKernels {
		if !k.ok {
			t.Logf("lane kernel %s skipped: this CPU or OS lacks its instructions", k.name)
			continue
		}
		selectedLanes = k
		body(k.name)
	}
}

// refAddLanes is addLanes' definition, one lane at a time.
func refAddLanes(capBuf *[64]float64, tw []uint64, lw []float64) {
	for i, t := range tw {
		for j := 0; j < 64; j++ {
			if t>>uint(j)&1 == 1 {
				capBuf[j] += lw[i]
			}
		}
	}
}

// checkAddLanes runs every implementation the host has on a copy of
// bins and requires Float64bits-identical bins to the reference.
func checkAddLanes(t *testing.T, label string, bins [64]float64, tw []uint64, lw []float64) {
	t.Helper()
	want := bins
	refAddLanes(&want, tw, lw)
	forEachLaneKernel(t, func(kernel string) {
		got := bins
		addLanes(&got, tw, lw)
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: %s kernel: bin %d = %v (%#x), want %v (%#x)",
					label, kernel, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			}
		}
	})
}

// laneLoad draws a finite nonzero load from subnormal to ~1e300.
func laneLoad(rng *rand.Rand) float64 {
	v := math.Ldexp(0.5+rng.Float64()/2, rng.Intn(1074+997)-1074)
	if v == 0 {
		v = math.SmallestNonzeroFloat64
	}
	return v
}

func TestAddLanesVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	words := func(n int, mask uint64, gen func(i int) uint64) []uint64 {
		tw := make([]uint64, n)
		for i := range tw {
			tw[i] = gen(i) & mask
		}
		return tw
	}
	loads := func(n int, gen func(i int) float64) []float64 {
		lw := make([]float64, n)
		for i := range lw {
			lw[i] = gen(i)
		}
		return lw
	}
	random := func(int) uint64 { return rng.Uint64() }
	spread := func(int) float64 { return laneLoad(rng) }
	var clock [64]float64
	for j := range clock {
		clock[j] = 0.75
	}
	clock[0] = 0 // cycle 0 carries no clock charge
	cases := []struct {
		name string
		bins [64]float64
		tw   []uint64
		lw   []float64
	}{
		{name: "empty list"},
		{name: "all-ones words", tw: words(7, ^uint64(0), random), lw: loads(7, spread)},
		{name: "single-lane words", tw: words(64, ^uint64(0), func(i int) uint64 { return 1 << uint(i) }), lw: loads(64, spread)},
		{name: "one lane, many adds", tw: words(200, 1<<63, func(int) uint64 { return 1 << 63 }), lw: loads(200, spread)},
		{name: "partial block, 37 lanes", tw: words(150, 1<<37-1, random), lw: loads(150, spread)},
		{name: "partial block, 1 lane", tw: words(40, 1, random), lw: loads(40, spread)},
		{name: "subnormal loads", tw: words(90, ^uint64(0), random), lw: loads(90, func(i int) float64 { return math.SmallestNonzeroFloat64 * float64(1+i) })},
		{name: "huge loads", tw: words(90, ^uint64(0), random), lw: loads(90, func(i int) float64 { return 1e300 * float64(1+i%3) })},
		{name: "rounding loads", tw: words(300, ^uint64(0), random), lw: loads(300, func(int) float64 { return 0.1 + rng.Float64() })},
		{name: "clock-precharged bins", bins: clock, tw: words(120, ^uint64(0), random), lw: loads(120, spread)},
		{name: "clock-precharged partial block", bins: clock, tw: words(120, 1<<50-1, random), lw: loads(120, spread)},
	}
	for _, tc := range cases {
		checkAddLanes(t, tc.name, tc.bins, tc.tw, tc.lw)
	}
}

// TestLaneKernelSelection: the selected kernel is the first one the
// host runs, and the portable loop is always available.
func TestLaneKernelSelection(t *testing.T) {
	last := laneKernels[len(laneKernels)-1]
	if last.name != "go" || !last.ok {
		t.Fatalf("last lane kernel %+v, want the portable go loop", last)
	}
	for _, k := range laneKernels {
		if k.ok {
			if LaneKernel() != k.name {
				t.Fatalf("LaneKernel() = %q, want %q, the first the host runs", LaneKernel(), k.name)
			}
			break
		}
	}
	t.Logf("lane kernel: %s", LaneKernel())
}

// FuzzAddLanes: over fuzzed words, lane counts, loads and clock
// precharges, every implementation the host runs matches addLanes'
// definition bit for bit.
func FuzzAddLanes(f *testing.F) {
	f.Add([]byte{}, int64(1), 0.0, uint8(64))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\x01\x00\x00\x00\x00\x00\x00\x80"), int64(2), 0.5, uint8(64))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"), int64(3), 3.25, uint8(17))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, clock float64, lanes uint8) {
		n := min(len(data)/8, 512)
		nl := 1 + int(lanes)%64
		mask := ^uint64(0) >> uint(64-nl)
		rng := rand.New(rand.NewSource(seed))
		tw, lw := make([]uint64, n), make([]float64, n)
		for i := range tw {
			tw[i] = binary.LittleEndian.Uint64(data[8*i:]) & mask
			lw[i] = laneLoad(rng)
			if rng.Intn(4) == 0 {
				lw[i] = -lw[i]
			}
		}
		// A bin never holds a non-finite value: it starts at +0.0 or
		// at a clock charge.
		if math.IsNaN(clock) || math.IsInf(clock, 0) {
			clock = 0
		}
		var bins [64]float64
		for j := 1; j < nl; j++ {
			bins[j] = clock
		}
		checkAddLanes(t, fmt.Sprintf("%d pairs, %d lanes", n, nl), bins, tw, lw)
	})
}

// BenchmarkAddLanes times each implementation on one dense block of a
// 400-net list.
func BenchmarkAddLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tw, lw := make([]uint64, 400), make([]float64, 400)
	for i := range tw {
		tw[i] = rng.Uint64() & rng.Uint64()
		lw[i] = 1 + rng.Float64()
	}
	for _, k := range laneKernels {
		if !k.ok {
			continue
		}
		b.Run(k.name, func(b *testing.B) {
			var bins [64]float64
			for i := 0; i < b.N; i++ {
				k.add(&bins, tw, lw)
			}
		})
	}
}
