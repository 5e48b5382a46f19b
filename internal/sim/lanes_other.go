//go:build !amd64

package sim

// archLaneKernels: no assembly kernel on this architecture.
func archLaneKernels() []laneKernel { return nil }
