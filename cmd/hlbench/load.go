package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"hlpower/internal/jobs"
)

// conns is the most connections the load generator opens: one per core
// of the 2-core host the benchmark is sized for.
const conns = 2

// jobPoll is how often a client polls a running optimize job.
const jobPoll = time.Millisecond

// client sends requests to one server over at most conns keep-alive
// connections. It speaks HTTP/1.1 on a connection from the calling
// goroutine. net/http's Transport would hand every request and response
// between the caller and two goroutines of its own, and those wake-ups,
// dearest on a busy virtual machine, would be the generator's latency,
// not the server's.
type client struct {
	base string // http://host:port
	// pool holds the connections not in use. One not dialed yet, or
	// closed after an error, has a nil nc.
	pool chan *conn
}

type conn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func newClient(base string) *client {
	c := &client{base: base, pool: make(chan *conn, conns)}
	for i := 0; i < conns; i++ {
		c.pool <- &conn{}
	}
	return c
}

// close closes the connections. Every request has ended by then, so
// all of them are in the pool, which hands them out in turn.
func (c *client) close() {
	for i := 0; i < conns; i++ {
		cn := <-c.pool
		cn.close()
		c.pool <- cn
	}
}

// do sends one request and returns the response body once the work is
// done: for an optimize request, the final job status after polling.
// Any transport error, unexpected status, failed batch item or job that
// did not finish as done is an error.
func (c *client) do(req request) ([]byte, error) {
	body, err := c.send(http.MethodPost, req.path(), req.Body)
	if err != nil {
		return nil, err
	}
	switch req.Op {
	case "batch":
		var resp struct{ Failed int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return nil, fmt.Errorf("batch %d: %w", req.ID, err)
		}
		if resp.Failed > 0 {
			return nil, fmt.Errorf("batch %d: %d items failed", req.ID, resp.Failed)
		}
	case "optimize":
		return c.waitJob(body)
	}
	return body, nil
}

// waitJob polls the job named by a submit response until it ends. The
// polls are exactly jobPoll apart: with time.Sleep's up-to-a-millisecond
// overshoot, how soon a client noticed a finished job would depend on
// how idle the host was.
func (c *client) waitJob(submitted []byte) ([]byte, error) {
	var st jobs.Status
	if err := json.Unmarshal(submitted, &st); err != nil {
		return nil, fmt.Errorf("optimize: %w", err)
	}
	w := newWaiter()
	defer w.close()
	for {
		switch st.Phase {
		case "done":
			return submitted, nil
		case "failed", "canceled":
			return nil, fmt.Errorf("job %s ended %s: %s", st.ID, st.Phase, st.Err)
		}
		w.sleep(jobPoll)
		body, err := c.send(http.MethodGet, "/v1/jobs/"+st.ID, nil)
		if err != nil {
			return nil, err
		}
		submitted = body
		if err := json.Unmarshal(body, &st); err != nil {
			return nil, fmt.Errorf("job %s: %w", st.ID, err)
		}
	}
}

func (c *client) send(method, path string, body []byte) ([]byte, error) {
	hr, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	cn := <-c.pool
	status, out, err := cn.roundTrip(hr)
	if err != nil {
		cn.close()
	}
	c.pool <- cn
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(out))
	}
	return out, nil
}

// roundTrip writes one request and reads its whole response, dialing
// first if the connection is not open. It closes the connection when
// the response says so.
func (cn *conn) roundTrip(hr *http.Request) (int, []byte, error) {
	if cn.nc == nil {
		nc, err := net.Dial("tcp", hr.URL.Host)
		if err != nil {
			return 0, nil, err
		}
		*cn = conn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}
	}
	if err := hr.Write(cn.bw); err != nil {
		return 0, nil, err
	}
	if err := cn.bw.Flush(); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(cn.br, hr)
	if err != nil {
		return 0, nil, err
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.Close {
		cn.close()
	}
	return resp.StatusCode, out, err
}

// close closes the connection, if open; the next request dials again.
func (cn *conn) close() {
	if cn.nc != nil {
		cn.nc.Close()
		*cn = conn{}
	}
}

// loadResult is what one load phase measured.
type loadResult struct {
	lat     []float64     // latencies of completed requests, ms (a reservoir sample)
	late    []float64     // generator lag of sent requests, ms (a reservoir sample)
	sent    int           // requests sent
	items   int           // work units of the requests that succeeded
	failed  int           // requests that failed
	unsent  int           // open loop: requests due in the phase but never sent
	arrived int           // open loop: requests due in the phase
	elapsed time.Duration // the phase's time, less any spent calibrating
	errs    []error       // the first few failures, for the report
}

// maxSamples bounds the latency and lateness samples a phase keeps.
const maxSamples = 1 << 16

// keepSample adds x, the n-th value recorded (counting from 1), to a
// reservoir of at most maxSamples values: a uniform random subset of
// all n, drawn with a fixed seed. The benchmark shares its heap with the
// server, so its own memory must stay flat however many requests a
// phase completes.
func keepSample(xs []float64, n int, x float64, r *rand.Rand) []float64 {
	if len(xs) < maxSamples {
		return append(xs, x)
	}
	if j := r.IntN(n); j < maxSamples {
		xs[j] = x
	}
	return xs
}

// keepFunc receives each successful request with its response body, for
// the correctness oracle. It may be called from several goroutines.
type keepFunc func(req request, body []byte)

// recorder collects one phase's samples from the sending goroutines.
type recorder struct {
	mu    sync.Mutex
	res   loadResult
	keep  keepFunc
	start time.Time
	rng   *rand.Rand
}

func newRecorder(keep keepFunc) *recorder {
	return &recorder{keep: keep, start: time.Now(), rng: rand.New(rand.NewPCG(1, 2))}
}

func (rec *recorder) record(req request, body []byte, err error, lat, late time.Duration) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	rec.res.sent++
	rec.res.late = keepSample(rec.res.late, rec.res.sent, ms(late), rec.rng)
	if err != nil {
		rec.res.failed++
		if len(rec.res.errs) < 3 {
			rec.res.errs = append(rec.res.errs, err)
		}
		return
	}
	rec.res.lat = keepSample(rec.res.lat, rec.res.sent-rec.res.failed, ms(lat), rec.rng)
	rec.res.items += req.Items
	if rec.keep != nil {
		rec.keep(req, body)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs the given number of clients, each sending its next
// request as soon as the previous one completes, until d has elapsed.
// Generator lag is the time from one response to the next send. With a
// host clock, the loop stops every calEvery for a calibration slice, once
// the requests in flight have finished; no request is timed across one.
func closedLoop(c *client, next func() request, clients int, d time.Duration, keep keepFunc, host *hostClock) loadResult {
	rec := newRecorder(keep)
	var genMu sync.Mutex
	var gate sync.RWMutex // clients hold it shared; a calibration slice, exclusively
	start := rec.start
	stop, sliced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sliced)
		if host == nil {
			return
		}
		t := time.NewTicker(calEvery)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
			}
			gate.Lock()
			host.slice()
			gate.Unlock()
		}
	}()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := time.Now()
			for time.Since(start) < d {
				genMu.Lock()
				req := next()
				genMu.Unlock()
				lag := time.Since(prev)
				gate.RLock()
				t0 := time.Now()
				body, err := c.do(req)
				end := time.Now()
				gate.RUnlock()
				rec.record(req, body, err, end.Sub(t0), lag)
				prev = end
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-sliced
	rec.res.elapsed = time.Since(start)
	if host != nil {
		rec.res.elapsed -= host.spent
	}
	return rec.res
}

// arrivals draws a Poisson schedule at rate per second over d: the due
// offsets and the requests due at them, generated before timing starts.
func arrivals(src *source, seed int64, name string, rate float64, d time.Duration) ([]time.Duration, []request) {
	r := newRand(seed, name+"/arrivals")
	var due []time.Duration
	var reqs []request
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return due, reqs
		}
		due = append(due, at)
		reqs = append(reqs, src.next())
	}
}

// openLoop sends reqs on the schedule due (offsets from the phase
// start) over conns connections, whichever is free first, for d.
//
// A request waiting for a busy connection is timed from its due time,
// so a stall also inflates the latency of everything queued behind it.
// A request whose connection sat idle is timed from when it was
// actually sent: waking for its due time takes some microseconds, and
// that lag is the generator's, not the server's. Both kinds of lag are
// reported as generator lateness. Requests still unsent when the phase
// ends are counted as unsent.
func openLoop(c *client, due []time.Duration, reqs []request, d time.Duration, keep keepFunc) loadResult {
	rec := newRecorder(keep)
	var nextIdx atomic.Int64
	start := rec.start
	var wg sync.WaitGroup
	for k := 0; k < conns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWaiter()
			defer w.close()
			for time.Since(start) < d {
				i := int(nextIdx.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				dueAt := start.Add(due[i])
				t0 := dueAt
				if wait := time.Until(dueAt); wait > 0 {
					w.sleep(wait)
					t0 = time.Now()
				}
				sentAt := time.Now()
				body, err := c.do(reqs[i])
				rec.record(reqs[i], body, err, time.Since(t0), sentAt.Sub(dueAt))
			}
		}()
	}
	wg.Wait()
	res := rec.res
	res.elapsed = time.Since(start)
	res.arrived = len(reqs)
	res.unsent = len(reqs) - res.sent
	return res
}

// peakSampler records the peak of read every interval until stopped.
type peakSampler struct {
	quit chan struct{}
	done chan struct{}
	peak float64
}

func startPeakSampler(every time.Duration, read func() float64) *peakSampler {
	p := &peakSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if v := read(); v > p.peak {
				p.peak = v
			}
			select {
			case <-p.quit:
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends the sampling and returns the peak.
func (p *peakSampler) stop() float64 {
	close(p.quit)
	<-p.done
	return p.peak
}

// heapSampleEvery is how often the peak heap is sampled.
const heapSampleEvery = 50 * time.Millisecond

// heapObjectsMB is the heap the objects occupy, live or not yet swept,
// in MiB.
func heapObjectsMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// liveHeapMB collects garbage and returns the heap found live, in MiB:
// what the process retains, without the garbage the collector's pacing
// leaves between cycles. The second collection empties the sync.Pool
// caches, whose contents depend on how requests happened to overlap.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
