package main

import (
	"encoding/json"
	"math"
	"runtime/debug"
	"sync"
	"time"
)

// A shared VM does not run at one speed. As other tenants load the host,
// the same code runs up to a third slower for minutes at a time, and ten
// runs of the seed code spread by that much. So the closed loop measures
// the host's speed as it goes, and the gated timings are scaled to a
// reference speed: a change to the program moves them, the host's drift
// does not.
//
// Every calEvery the closed loop stops sending, lets the requests in
// flight finish, and times two reference kernels that belong to the
// benchmark, not to the program, on conns goroutines for calKernelTime
// each. One updates random bytes of a 32 MiB buffer held outside the Go
// heap, which follows memory and cache contention; the other round-trips a
// fixed document through encoding/json, which follows compute and
// allocation. Collection is paused while they run, after any cycle in
// progress has finished, so the program's garbage does not slow them.
const (
	calEvery      = 400 * time.Millisecond
	calKernelTime = 15 * time.Millisecond
	calMemBytes   = 32 << 20
)

// refMemRate and refJSONRate are the kernels' rates, in iterations per
// second over conns goroutines, on the reference host: about their
// medians over calm runs of the 2-vCPU VM the benchmark was sized on.
// They only set the scale, but two commits compare only under the same
// values, so they are frozen.
const (
	refMemRate  = 700000
	refJSONRate = 25000
)

// calDoc is the document the JSON kernel round-trips.
type calDoc struct {
	Name  string         `json:"name"`
	Vals  []float64      `json:"vals"`
	Words []uint64       `json:"words"`
	Tags  map[string]int `json:"tags"`
}

var (
	calMem = sync.OnceValue(func() []byte {
		b := offHeap(calMemBytes)
		for i := 0; i < len(b); i += 4096 {
			b[i] = 1 // fault every page in before any kernel is timed
		}
		return b
	})
	calJSON = func() calDoc {
		d := calDoc{Name: "reference", Tags: map[string]int{"a": 1, "b": 2, "c": 3}}
		for i := 0; i < 64; i++ {
			d.Vals = append(d.Vals, float64(i)*1.37)
			d.Words = append(d.Words, uint64(i)*0x9e3779b97f4a7c15)
		}
		return d
	}()
)

// memKernel adds to 1024 pseudo-random bytes of the buffer.
func memKernel(k int) {
	mem := calMem()
	x := uint64(k + 1)
	for j := 0; j < 1024; j++ {
		x = x*6364136223846793005 + 1442695040888963407
		mem[x>>39] += byte(x) // x>>39 < 32 MiB
	}
}

func jsonKernel(int) {
	b, err := json.Marshal(calJSON)
	if err != nil {
		panic(err) // calDoc always marshals
	}
	var d calDoc
	if err := json.Unmarshal(b, &d); err != nil {
		panic(err)
	}
}

// hostClock collects the kernels' rates over a run's calibration slices.
type hostClock struct {
	mem, json []float64
	spent     time.Duration // time spent in the kernels
}

// kernelRate runs kernel on conns goroutines for calKernelTime and returns
// the iterations per second.
func kernelRate(kernel func(k int)) float64 {
	t0 := time.Now()
	var n [conns]int
	var wg sync.WaitGroup
	for k := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < calKernelTime {
				kernel(k)
				n[k]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, c := range n {
		total += c
	}
	return float64(total) / time.Since(t0).Seconds()
}

// slice times both kernels once. Nothing else of the benchmark's may run
// meanwhile.
func (h *hostClock) slice() {
	calMem()
	prev := debug.SetGCPercent(-1) // waits for a cycle in progress to end
	t0 := time.Now()
	h.mem = append(h.mem, kernelRate(memKernel))
	h.json = append(h.json, kernelRate(jsonKernel))
	h.spent += time.Since(t0)
	debug.SetGCPercent(prev)
}

// rates returns the kernels' median rates over the run's slices.
func (h *hostClock) rates() (mem, js float64) {
	_, mem, _ = quartiles(append([]float64(nil), h.mem...))
	_, js, _ = quartiles(append([]float64(nil), h.json...))
	return mem, js
}

// speed is the host's speed over the run against the reference host: the
// geometric mean of the two kernels' median rates, each as a share of its
// reference rate. It is 1 when no slice ran.
func (h *hostClock) speed() float64 {
	if len(h.mem) == 0 {
		return 1
	}
	mem, js := h.rates()
	return math.Sqrt(mem / refMemRate * js / refJSONRate)
}
