package memo

import (
	"context"
	"sync"
	"sync/atomic"

	"hlpower/internal/hlerr"
)

// Options sizes a Cache. The zero value gets production defaults.
type Options struct {
	// MaxBytes is the total byte budget across all shards; when an
	// insertion would exceed a shard's share, least-recently-used
	// entries are evicted first. 0 means DefaultMaxBytes.
	MaxBytes int64
	// Shards is the number of independently locked cache segments,
	// rounded up to a power of two. 0 means DefaultShards.
	Shards int
}

// Defaults for Options' zero values.
const (
	DefaultMaxBytes = 64 << 20
	DefaultShards   = 16
)

// Stats is a point-in-time counter snapshot of a Cache.
type Stats struct {
	// Hits counts lookups answered from a stored entry; Collapsed
	// counts requests that attached to an identical in-flight
	// computation and shared its result; Misses counts computations
	// actually performed.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Collapsed int64 `json:"collapsed"`
	// Stores counts insertions, which are successful values only;
	// Evictions counts LRU removals forced by the byte budget.
	Stores    int64 `json:"stores"`
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe current occupancy against MaxBytes.
	Entries  int64 `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// HitRate returns the fraction of lookups served without computing —
// stored hits plus collapsed waiters over all lookups — or 0 before
// any traffic.
func (s Stats) HitRate() float64 {
	served := s.Hits + s.Collapsed
	total := served + s.Misses
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}

// entry is one cached successful result, immutable by convention,
// linked into its shard's LRU list.
type entry struct {
	key        Key
	val        any
	size       int64
	prev, next *entry
}

// call is one flight: an in-flight computation that concurrent
// identical requests join. It runs on a context of its own, which the
// last participant to leave cancels (see DoContext).
type call struct {
	done   chan struct{}
	cancel context.CancelFunc
	n      int // participants that have not left, under the shard lock
	val    any
	err    error
}

// shard is one independently locked cache segment: a map plus an LRU
// list under a byte budget, and the singleflight table for keys
// currently being computed.
type shard struct {
	mu       sync.Mutex
	items    map[Key]*entry
	flight   map[Key]*call
	head     *entry // most recently used
	tail     *entry // least recently used
	bytes    int64
	maxBytes int64
}

// Cache is the sharded content-addressed memoization layer. Create
// with New; it is safe for concurrent use.
type Cache struct {
	shards []*shard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	collapsed atomic.Int64
	stores    atomic.Int64
	evictions atomic.Int64
	entries   atomic.Int64
	bytes     atomic.Int64
	maxBytes  int64
}

// New builds a cache.
func New(o Options) *Cache {
	if o.MaxBytes <= 0 {
		o.MaxBytes = DefaultMaxBytes
	}
	if o.Shards <= 0 {
		o.Shards = DefaultShards
	}
	n := 1
	for n < o.Shards {
		n <<= 1
	}
	c := &Cache{
		shards:   make([]*shard, n),
		mask:     uint64(n - 1),
		maxBytes: o.MaxBytes,
	}
	per := o.MaxBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i] = &shard{
			items:    make(map[Key]*entry),
			flight:   make(map[Key]*call),
			maxBytes: per,
		}
	}
	return c
}

func (c *Cache) shard(k Key) *shard { return c.shards[k.Lo&c.mask] }

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Collapsed: c.collapsed.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		MaxBytes:  c.maxBytes,
	}
}

// Do returns the value stored under k, or computes it. compute returns
// the value, its approximate in-memory size in bytes, whether the value
// may be stored (degraded or otherwise non-replayable results say
// false), and an error.
//
// Concurrent Do calls with the same key collapse: one caller computes,
// the rest block and share the outcome — value and error alike — so N
// identical requests perform one evaluation. A panicking computation is
// captured and delivered to every waiter (and the computing caller) as
// an error; typed hlerr panics keep their identity. Only successes are
// stored: an error, input error or not, is shared with the waiters of
// its own computation and then forgotten, so the next call computes
// again. Callers check their inputs before they derive a key.
//
// The returned shared flag is true when the value came from the cache
// or from another caller's in-flight computation rather than from this
// call's own compute. Shared values are the stored originals: treat
// them as immutable, or clone before mutating.
//
// Do is DoContext under a context that never ends.
func (c *Cache) Do(k Key, compute func() (val any, size int64, cacheable bool, err error)) (val any, shared bool, err error) {
	return c.DoContext(context.Background(), k, func(context.Context) (any, int64, bool, error) { return compute() })
}

// DoContext is Do for callers that may leave. The computation belongs
// to its flight, not to the caller that started it: compute runs on
// the flight's own context, which carries the starting caller's values
// but not its cancellation or deadline, and each participant, the
// computing caller included, takes part only until its ctx ends. A
// waiter whose ctx ends returns at once with ctx.Err() while the
// others keep waiting. The computing caller runs compute on its own
// goroutine, so it returns with the flight's outcome once compute
// does. When the last participant leaves, the flight's context is
// canceled, so a compute that checks it stops early, and the flight
// leaves the table, so the next caller starts a fresh flight instead
// of joining the canceled one. Whoever remains, the outcome is stored
// under Do's rules.
//
// A nil Cache stores and shares nothing: each call is a flight of its
// own, run on ctx with the same panic capture.
func (c *Cache) DoContext(ctx context.Context, k Key, compute func(ctx context.Context) (val any, size int64, cacheable bool, err error)) (val any, shared bool, err error) {
	if c == nil {
		val, _, _, err = safeCompute(ctx, compute)
		return val, false, err
	}
	sh := c.shard(k)
	sh.mu.Lock()
	if e, ok := sh.items[k]; ok {
		sh.moveFront(e)
		sh.mu.Unlock()
		c.hits.Add(1)
		return e.val, true, nil
	}
	if fl, ok := sh.flight[k]; ok {
		fl.n++
		sh.mu.Unlock()
		c.collapsed.Add(1)
		select {
		case <-fl.done:
			return fl.val, true, fl.err
		case <-ctx.Done():
			sh.leave(k, fl)
			return nil, true, ctx.Err()
		}
	}
	// A caller whose context never ends never leaves, so its flight is
	// never canceled and runs on that context as it is.
	fl := &call{done: make(chan struct{}), cancel: func() {}, n: 1}
	fctx, leaves := ctx, ctx.Done() != nil
	if leaves {
		fctx, fl.cancel = context.WithCancel(context.WithoutCancel(ctx))
	}
	sh.flight[k] = fl
	sh.mu.Unlock()
	c.misses.Add(1)

	if leaves {
		defer context.AfterFunc(ctx, func() { sh.leave(k, fl) })()
	}
	val, size, cacheable, err := safeCompute(fctx, compute)
	fl.val, fl.err = val, err

	sh.mu.Lock()
	if sh.flight[k] == fl {
		delete(sh.flight, k)
	}
	if err == nil && cacheable && sh.store(c, &entry{key: k, val: val, size: size}) {
		c.stores.Add(1)
	}
	sh.mu.Unlock()
	close(fl.done)
	fl.cancel()
	return val, false, err
}

// leave takes one participant out of fl. The last one out cancels the
// flight's context and, unless the flight already finished, removes it
// from the table.
func (sh *shard) leave(k Key, fl *call) {
	sh.mu.Lock()
	fl.n--
	last := fl.n == 0
	if last && sh.flight[k] == fl {
		delete(sh.flight, k)
	}
	sh.mu.Unlock()
	if last {
		fl.cancel()
	}
}

// safeCompute contains panics so a crashing computation resolves the
// flight instead of leaving waiters blocked forever.
func safeCompute(ctx context.Context, compute func(context.Context) (any, int64, bool, error)) (val any, size int64, cacheable bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			val, size, cacheable = nil, 0, false
			err = hlerr.FromPanic(r)
		}
	}()
	return compute(ctx)
}

// store inserts e as most recently used and evicts from the cold end
// until the shard fits its byte budget again. Entries larger than the
// whole shard budget are not stored at all. Caller holds sh.mu.
func (sh *shard) store(c *Cache, e *entry) bool {
	if e.size > sh.maxBytes {
		return false
	}
	if old, ok := sh.items[e.key]; ok {
		sh.unlink(old)
		sh.bytes -= old.size
		c.bytes.Add(-old.size)
		c.entries.Add(-1)
		delete(sh.items, old.key)
	}
	sh.items[e.key] = e
	sh.pushFront(e)
	sh.bytes += e.size
	c.bytes.Add(e.size)
	c.entries.Add(1)
	for sh.bytes > sh.maxBytes && sh.tail != nil && sh.tail != e {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.items, victim.key)
		sh.bytes -= victim.size
		c.bytes.Add(-victim.size)
		c.entries.Add(-1)
		c.evictions.Add(1)
	}
	return true
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
