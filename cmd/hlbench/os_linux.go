package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// waiter sleeps with microsecond precision. time.Sleep wakes up to a
// millisecond late once the scheduler goes idle, which at thousands of
// requests per second would make the open-loop generator, not the
// server, set the latency. A timerfd read through the runtime's network
// poller wakes when the timer fires.
type waiter struct {
	fd int      // raw descriptor: calling f.Fd() would make it blocking
	f  *os.File // the same descriptor, registered with the poller
}

const (
	clockMonotonic = 1
	tfdNonblock    = syscall.O_NONBLOCK
	tfdCloexec     = syscall.O_CLOEXEC
)

// newWaiter returns a waiter, or nil when the timerfd is unavailable, in
// which case sleep falls back to time.Sleep.
func newWaiter() *waiter {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil
	}
	return &waiter{fd: int(fd), f: os.NewFile(fd, "timerfd")}
}

func (w *waiter) sleep(d time.Duration) {
	if w == nil {
		time.Sleep(d)
		return
	}
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(w.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		time.Sleep(d)
		return
	}
	var expirations [8]byte
	if _, err := w.f.Read(expirations[:]); err != nil {
		time.Sleep(d)
	}
}

func (w *waiter) close() {
	if w != nil {
		w.f.Close()
	}
}

// offHeap returns n zeroed bytes mapped outside the Go heap, so that they
// neither count as live heap nor move the collector's pacing.
func offHeap(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]byte, n)
	}
	return b
}
