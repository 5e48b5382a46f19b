// Package memo provides content-addressed memoization for the
// estimation engines: a canonical binary encoding of estimation inputs
// hashed to a 128-bit structural key, a sharded LRU cache with a
// byte-budget eviction policy keyed on it, and a singleflight group
// that collapses concurrent identical computations into a single
// underlying evaluation whose result every waiter shares.
//
// The surveyed techniques all re-evaluate the same structures — the
// same netlist under the same vector distribution, the same trace
// under the same energy table — so a service fronting them sees heavy
// duplicate traffic. Content addressing turns a repeated estimate into
// O(hash) work: the key is derived from everything that determines the
// result (netlist structure, simulation options, cycle count, the RNG
// seed or the vectors themselves) and from nothing that does not
// (signal names, wall-clock deadlines).
//
// Cached values are shared across callers and must therefore be
// treated as immutable; callers that hand results to mutating
// consumers clone on the way out (see sim.Result.Clone). Results
// produced under an armed fault-injection plan or flagged degraded are
// never stored — the caching layers consult budget.FaultArmed and the
// per-result flags before deciding a value is cacheable — so chaos
// testing and graceful degradation cannot poison the cache.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
)

// Key is a 128-bit content hash of a canonical input encoding. Two
// inputs receive the same Key exactly when their canonical encodings
// are byte-identical (up to SHA-256 collisions, which this package
// treats as impossible).
type Key struct{ Hi, Lo uint64 }

// String renders the key as 32 hex digits.
func (k Key) String() string { return fmt.Sprintf("%016x%016x", k.Hi, k.Lo) }

// ParseKey inverts String: 32 lowercase hex digits back into a Key.
// ok is false for anything else. Useful where a key's hex form is used
// as an external identifier (job ids) and must be mapped back onto the
// ring.
func ParseKey(s string) (Key, bool) {
	if len(s) != 32 {
		return Key{}, false
	}
	var words [2]uint64
	for w := 0; w < 2; w++ {
		for i := 0; i < 16; i++ {
			c := s[w*16+i]
			var v uint64
			switch {
			case c >= '0' && c <= '9':
				v = uint64(c - '0')
			case c >= 'a' && c <= 'f':
				v = uint64(c-'a') + 10
			default:
				return Key{}, false
			}
			words[w] = words[w]<<4 | v
		}
	}
	return Key{Hi: words[0], Lo: words[1]}, true
}

// Type tags make the canonical encoding injective: every primitive is
// written as a tag byte followed by a fixed-width or length-prefixed
// payload, so no concatenation of values can collide with a different
// concatenation of values.
const (
	tagUint64 byte = 1 + iota
	tagInt64
	tagBool
	tagFloat64
	tagString
	tagBytes
	tagUint64s
	tagBools
)

// Enc accumulates the canonical binary encoding of one estimation
// input. Write the fields that determine the result, in a fixed order,
// then derive the content key with Key. The zero value is NOT ready to
// use; call NewEnc.
type Enc struct{ buf []byte }

// NewEnc returns an empty encoder.
func NewEnc() *Enc { return &Enc{buf: make([]byte, 0, 256)} }

func (e *Enc) word(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// Uint64 appends an unsigned 64-bit value.
func (e *Enc) Uint64(v uint64) {
	e.buf = append(e.buf, tagUint64)
	e.word(v)
}

// Int64 appends a signed 64-bit value.
func (e *Enc) Int64(v int64) {
	e.buf = append(e.buf, tagInt64)
	e.word(uint64(v))
}

// Int appends a platform int as its 64-bit value.
func (e *Enc) Int(v int) { e.Int64(int64(v)) }

// Bool appends a boolean.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, tagBool, b)
}

// Float64 appends a float by its IEEE-754 bit pattern, so the key
// distinguishes every representable value (including -0 from +0 and
// NaN payloads) and never depends on formatting.
func (e *Enc) Float64(v float64) {
	e.buf = append(e.buf, tagFloat64)
	e.word(math.Float64bits(v))
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.buf = append(e.buf, tagString)
	e.word(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bytes appends a length-prefixed byte slice.
func (e *Enc) Bytes(b []byte) {
	e.buf = append(e.buf, tagBytes)
	e.word(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// Uint64s appends a length-prefixed slice of 64-bit values — the
// encoding of an operand stream.
func (e *Enc) Uint64s(vs []uint64) {
	e.buf = append(e.buf, tagUint64s)
	e.word(uint64(len(vs)))
	for _, v := range vs {
		e.word(v)
	}
}

// Bools appends a length-prefixed bit-packed boolean slice — the
// encoding of one input vector.
func (e *Enc) Bools(vs []bool) {
	e.buf = append(e.buf, tagBools)
	e.word(uint64(len(vs)))
	var acc byte
	for i, v := range vs {
		if v {
			acc |= 1 << (uint(i) & 7)
		}
		if i&7 == 7 {
			e.buf = append(e.buf, acc)
			acc = 0
		}
	}
	if len(vs)&7 != 0 {
		e.buf = append(e.buf, acc)
	}
}

// Len reports the canonical encoding's size in bytes.
func (e *Enc) Len() int { return len(e.buf) }

// Data returns a copy of the canonical encoding, for callers that
// persist the bytes themselves (checkpoint snapshots) rather than
// hashing them into a key.
func (e *Enc) Data() []byte { return append([]byte(nil), e.buf...) }

// Key hashes the canonical encoding to the 128-bit content key. The
// encoder remains usable; appending more fields and calling Key again
// yields the key of the extended encoding.
func (e *Enc) Key() Key {
	sum := sha256.Sum256(e.buf)
	return Key{
		Hi: binary.BigEndian.Uint64(sum[0:8]),
		Lo: binary.BigEndian.Uint64(sum[8:16]),
	}
}

// encPool recycles the encoders KeyOf derives keys on.
var encPool = sync.Pool{New: func() any { return NewEnc() }}

// KeyOf returns the key of the encoding write appends to an empty
// encoder: the key NewEnc, write and Key give. The encoder comes from a
// pool and goes back to it, so once the pooled buffers have grown to
// the size of the keys derived, a key allocates no buffer of its own.
// write must not keep e.
func KeyOf(write func(e *Enc)) Key {
	e := encPool.Get().(*Enc)
	e.buf = e.buf[:0]
	write(e)
	k := e.Key()
	encPool.Put(e)
	return k
}

// Dec reads a canonical encoding back, for round-trip verification of
// the format. Errors are sticky: after the first tag mismatch or
// truncation every subsequent read fails.
type Dec struct {
	buf []byte
	off int
	err error
}

// NewDec wraps an encoder's accumulated bytes for decoding.
func NewDec(e *Enc) *Dec { return &Dec{buf: e.buf} }

// DecBytes wraps raw canonical-encoding bytes for decoding — the read
// side of Data. Every read validates its type tag, so feeding
// corrupted or truncated bytes yields a sticky error, never a panic.
func DecBytes(b []byte) *Dec { return &Dec{buf: b} }

// Err returns the sticky decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Done reports whether the whole encoding was consumed cleanly.
func (d *Dec) Done() bool { return d.err == nil && d.off == len(d.buf) }

func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("memo: decode at offset %d: %s", d.off, fmt.Sprintf(format, args...))
	}
}

func (d *Dec) tag(want byte) bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated: want tag %d", want)
		return false
	}
	if got := d.buf[d.off]; got != want {
		d.fail("tag mismatch: want %d, got %d", want, got)
		return false
	}
	d.off++
	return true
}

func (d *Dec) word() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("truncated word")
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Uint64 reads back an unsigned 64-bit value.
func (d *Dec) Uint64() uint64 {
	if !d.tag(tagUint64) {
		return 0
	}
	return d.word()
}

// Int64 reads back a signed 64-bit value.
func (d *Dec) Int64() int64 {
	if !d.tag(tagInt64) {
		return 0
	}
	return int64(d.word())
}

// Bool reads back a boolean.
func (d *Dec) Bool() bool {
	if !d.tag(tagBool) {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated bool")
		return false
	}
	v := d.buf[d.off]
	d.off++
	if v > 1 {
		d.fail("bad bool byte %d", v)
		return false
	}
	return v == 1
}

// Float64 reads back a float's bit pattern.
func (d *Dec) Float64() float64 {
	if !d.tag(tagFloat64) {
		return 0
	}
	return math.Float64frombits(d.word())
}

// String reads back a length-prefixed string.
func (d *Dec) String() string {
	if !d.tag(tagString) {
		return ""
	}
	n := d.word()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("string length %d exceeds remaining %d", n, len(d.buf)-d.off)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Bytes reads back a length-prefixed byte slice.
func (d *Dec) Bytes() []byte {
	if !d.tag(tagBytes) {
		return nil
	}
	n := d.word()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off) {
		d.fail("bytes length %d exceeds remaining %d", n, len(d.buf)-d.off)
		return nil
	}
	b := append([]byte(nil), d.buf[d.off:d.off+int(n)]...)
	d.off += int(n)
	return b
}

// Uint64s reads back a slice of 64-bit values.
func (d *Dec) Uint64s() []uint64 {
	if !d.tag(tagUint64s) {
		return nil
	}
	n := d.word()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)-d.off)/8 {
		d.fail("uint64s length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return nil
	}
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = d.word()
	}
	return vs
}

// Bools reads back a bit-packed boolean slice.
func (d *Dec) Bools() []bool {
	if !d.tag(tagBools) {
		return nil
	}
	n := d.word()
	if d.err != nil {
		return nil
	}
	bytes := (n + 7) / 8
	if bytes > uint64(len(d.buf)-d.off) {
		d.fail("bools length %d exceeds remaining %d bytes", n, len(d.buf)-d.off)
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		vs[i] = d.buf[d.off+i/8]>>(uint(i)&7)&1 == 1
	}
	d.off += int(bytes)
	return vs
}
