package sim

// The assembly kernel (lanes_amd64.s) implements addLanes.

//go:noescape
func addLanesAVX512(capBuf *[64]float64, tw []uint64, lw []float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the register state the OS saves.
func xgetbv() (eax, edx uint32)

func archLaneKernels() []laneKernel {
	return []laneKernel{{"avx512", addLanesAVX512, hasAVX512F()}}
}

// hasAVX512F reports whether the CPU has AVX-512F (CPUID leaf 7) and
// the OS saves the registers it uses (XCR0).
func hasAVX512F() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave = 1 << 27 // XGETBV is usable
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	const (
		state   = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7 // XMM, YMM, opmask, ZMM0–15 upper halves, ZMM16–31
		avx512F = 1 << 16
	)
	return xcr0&state == state && ebx&avx512F != 0
}
