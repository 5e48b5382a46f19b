// Lane-parallel capacitance extraction. A 64-cycle block keeps one
// capacitance bin per lane, and the lean extraction adds each toggled
// net's load to the bins of the lanes its toggle word sets, nets in
// charge order. addLanes does those adds for a whole block at once: it
// takes the block's (word, load) list and adds load i to every set lane
// of word i, for i ascending. A bin receives exactly the adds the
// scalar scatter gives it, in the same order, whether the adds run one
// lane at a time or eight lanes per instruction: a SIMD add across
// lanes is 64 independent serial sums, so no addition is regrouped and
// the bins are Float64bits-identical to the serial engine's. This is
// the cycle-parallel layout of GATSPI and of hardware-accelerated
// power estimators.
package sim

import "math/bits"

// laneKernel is one implementation of addLanes.
type laneKernel struct {
	name string
	add  func(capBuf *[64]float64, tw []uint64, lw []float64)
	ok   bool // the host CPU and OS run it
}

// laneKernels lists the implementations, fastest first. The portable
// Go loop comes last and runs everywhere.
var laneKernels = append(archLaneKernels(), laneKernel{"go", addLanesGo, true})

// selectedLanes is the implementation addLanes calls: the first one
// the host runs, chosen once at start-up. Tests swap it to run the
// identity suites on every variant.
var selectedLanes = pickLanes()

func pickLanes() laneKernel {
	for _, k := range laneKernels {
		if k.ok {
			return k
		}
	}
	panic("sim: no lane kernel") // unreachable: the Go loop is always ok
}

// LaneKernel names the addLanes implementation this host runs:
// "avx512" or "go".
func LaneKernel() string { return selectedLanes.name }

// addLanes adds lw[i] to capBuf[j] for every bit j set in tw[i], for i
// ascending.
func addLanes(capBuf *[64]float64, tw []uint64, lw []float64) {
	selectedLanes.add(capBuf, tw, lw[:len(tw)]) // the kernels read len(tw) pairs
}

// extractLean is the lean extraction of one settled 64-cycle block
// into sc.bins, which the caller has zeroed. Each net's toggle word
// marks the lanes whose settled value differs from the previous
// cycle's (the carry chains lane 63 into the next block's lane 0, and
// mask keeps the live lanes); its popcount adds to the net's toggles,
// and a toggled net with a nonzero load lists its (word, load) pair, in
// ascending net order. One addLanes call then adds the list to the
// bins, which gives every bin the serial engine's adds in its order.
func (sc *packedScratch) extractLean(words, carry []uint64, tog []int64, loads []float64, mask uint64) {
	tw, lw := sc.laneLists(len(words))
	carry = carry[:len(words)]
	tog = tog[:len(words)]
	loads = loads[:len(words)]
	for id, cur := range words {
		t := (cur ^ (cur<<1 | carry[id])) & mask
		carry[id] = cur >> 63
		if t == 0 {
			continue
		}
		tog[id] += int64(bits.OnesCount64(t))
		if load := loads[id]; load != 0 {
			tw = append(tw, t)
			lw = append(lw, load)
		}
	}
	addLanes(&sc.bins, tw, lw)
}

// addLanesGo is the scalar kernel: one add per set bit, scanning two
// bits per trip (they always hit distinct bins, so each bin's adds keep
// their order).
func addLanesGo(capBuf *[64]float64, tw []uint64, lw []float64) {
	lw = lw[:len(tw)]
	for i, t := range tw {
		load := lw[i]
		if bits.OnesCount64(t)&1 != 0 {
			capBuf[bits.TrailingZeros64(t)&63] += load
			t &= t - 1
		}
		for t != 0 {
			capBuf[bits.TrailingZeros64(t)&63] += load
			t &= t - 1
			capBuf[bits.TrailingZeros64(t)&63] += load
			t &= t - 1
		}
	}
}
