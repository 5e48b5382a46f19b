//go:build !linux

package main

import "time"

// waiter falls back to time.Sleep where no timerfd exists; the
// generator's lateness metric shows what that costs.
type waiter struct{}

func newWaiter() *waiter { return nil }

func (w *waiter) sleep(d time.Duration) { time.Sleep(d) }

func (w *waiter) close() {}

// offHeap returns n zeroed bytes. Without an anonymous mapping they come
// from the Go heap, where they count in live_heap_mb.
func offHeap(n int) []byte { return make([]byte, n) }
