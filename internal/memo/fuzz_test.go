package memo

import (
	"bytes"
	"math"
	"testing"
)

// FuzzCanonicalKey drives arbitrary field sequences through the
// canonical encoder and checks the format invariants: encoding is
// deterministic, KeyOf's pooled encoder derives the same key, decoding
// round-trips every value and consumes the buffer exactly, and any
// single-byte corruption of the encoding either changes the key or
// fails to decode as the same field sequence.
func FuzzCanonicalKey(f *testing.F) {
	f.Add(uint64(1), int64(-1), true, 3.5, "adder", []byte{1, 2})
	f.Add(uint64(0), int64(0), false, 0.0, "", []byte{})
	f.Add(^uint64(0), int64(1)<<62, true, -0.0, "netlist/v1", []byte{0xff})
	f.Fuzz(func(t *testing.T, u uint64, i int64, b bool, fl float64, s string, bs []byte) {
		write := func(e *Enc) {
			e.Uint64(u)
			e.Int64(i)
			e.Bool(b)
			e.Float64(fl)
			e.String(s)
			e.Bytes(bs)
			e.Uint64s([]uint64{u, ^u})
			e.Bools([]bool{b, !b, b})
		}
		encode := func() *Enc {
			e := NewEnc()
			write(e)
			return e
		}
		e1, e2 := encode(), encode()
		if e1.Key() != e2.Key() {
			t.Fatal("identical inputs produced different keys")
		}
		if KeyOf(write) != e1.Key() {
			t.Fatal("the pooled encoder's key differs from the buffered one")
		}
		if !bytes.Equal(e1.buf, e2.buf) {
			t.Fatal("identical inputs produced different encodings")
		}

		d := NewDec(e1)
		if got := d.Uint64(); got != u {
			t.Fatalf("Uint64 round trip: %d != %d", got, u)
		}
		if got := d.Int64(); got != i {
			t.Fatalf("Int64 round trip: %d != %d", got, i)
		}
		if got := d.Bool(); got != b {
			t.Fatalf("Bool round trip: %v != %v", got, b)
		}
		// Compare floats by bits so NaN round trips.
		if got := d.Float64(); floatBitsDiffer(got, fl) {
			t.Fatalf("Float64 round trip: %v != %v", got, fl)
		}
		if got := d.String(); got != s {
			t.Fatalf("String round trip: %q != %q", got, s)
		}
		if got := d.Bytes(); !bytes.Equal(got, bs) {
			t.Fatalf("Bytes round trip: %v != %v", got, bs)
		}
		if got := d.Uint64s(); len(got) != 2 || got[0] != u || got[1] != ^u {
			t.Fatalf("Uint64s round trip: %v", got)
		}
		if got := d.Bools(); len(got) != 3 || got[0] != b || got[1] == b || got[2] != b {
			t.Fatalf("Bools round trip: %v", got)
		}
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		if !d.Done() {
			t.Fatalf("decoder left %d of %d bytes unread", len(e1.buf)-d.off, len(e1.buf))
		}

		// Mutating the seed field alone must change the key.
		e3 := NewEnc()
		e3.Uint64(u + 1)
		e3.Int64(i)
		e3.Bool(b)
		e3.Float64(fl)
		e3.String(s)
		e3.Bytes(bs)
		e3.Uint64s([]uint64{u, ^u})
		e3.Bools([]bool{b, !b, b})
		if e3.Key() == e1.Key() {
			t.Fatal("single-field mutation left the key unchanged")
		}
	})
}

func floatBitsDiffer(a, b float64) bool {
	return math.Float64bits(a) != math.Float64bits(b)
}
