package btree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sqltypes"
)

// randomKeyRow returns a row of 1-6 values of every key kind, weighted
// towards the encoding's edges: extreme integers, NaN, infinities and
// negative zero, text holding the escape bytes 0x00, 0x01 and 0xFF, empty
// text.
func randomKeyRow(rng *rand.Rand) sqltypes.Row {
	text := func() []byte {
		b := make([]byte, rng.Intn(8))
		for i := range b {
			b[i] = []byte{0x00, 0x01, 0xFF, 'A', byte(rng.Intn(256))}[rng.Intn(5)]
		}
		return b
	}
	row := make(sqltypes.Row, 1+rng.Intn(6))
	for i := range row {
		switch rng.Intn(6) {
		case 0:
			row[i] = sqltypes.Null
		case 1:
			row[i] = sqltypes.NewBool(rng.Intn(2) == 0)
		case 2:
			row[i] = sqltypes.NewInt([]int64{math.MinInt64, -1, 0, 1, math.MaxInt64, rng.Int63() - rng.Int63()}[rng.Intn(6)])
		case 3:
			row[i] = sqltypes.NewFloat([]float64{math.NaN(), math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, rng.NormFloat64() * 1e6,
				math.Float64frombits(rng.Uint64())}[rng.Intn(7)])
		case 4:
			row[i] = sqltypes.NewString(string(text()))
		default:
			row[i] = sqltypes.NewBytes(text())
		}
	}
	return row
}

// identical reports whether two values are the same kind and payload, a
// float's by its bits (NaN included).
func identical(a, b sqltypes.Value) bool {
	if a.K != b.K {
		return false
	}
	switch a.K {
	case sqltypes.KindFloat:
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	case sqltypes.KindString:
		return a.S == b.S
	case sqltypes.KindBytes:
		return bytes.Equal(a.B, b.B)
	}
	return a.I == b.I
}

// FuzzKeyDecode holds DecodeKey to AppendKey. A random row (from seed)
// encodes and decodes to itself, the bytes it took being the whole
// encoding, with data appended after it or not. Arbitrary bytes (data),
// decoded a value at a time, give an error or a value that re-encodes to
// exactly the bytes it took, and decoding those values at once takes the
// same bytes; never a panic.
func FuzzKeyDecode(f *testing.F) {
	f.Add(int64(1), []byte{tagInt, 0x80, 0, 0, 0, 0, 0, 0, 42, tagStr, 'a', 0x00, 0xFF, 'b', 0x00, 0x01})
	f.Add(int64(2), []byte{tagBool, 2})
	f.Add(int64(3), []byte{tagBytes, 'x', 0x00, 0x02})
	f.Add(int64(4), []byte{tagFloat, 0x7F, 0xF0})
	f.Add(int64(5), []byte{tagNull, tagStr, 0x00})
	f.Add(int64(6), []byte{0x06})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		row := randomKeyRow(rand.New(rand.NewSource(seed)))
		enc, err := AppendKey(nil, row)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range [][]byte{enc, append(enc[:len(enc):len(enc)], data...)} {
			got, n, err := DecodeKey(nil, key, len(row))
			if err != nil || n != len(enc) || len(got) != len(row) {
				t.Fatalf("%v encoded as %x: decoded %v, %d of %d bytes, %v", row, enc, got, n, len(enc), err)
			}
			for i := range row {
				if !identical(got[i], row[i]) {
					t.Fatalf("%v encoded as %x: value %d decoded as %v", row, enc, i, got[i])
				}
			}
		}

		var vals sqltypes.Row
		at := 0
		for at < len(data) {
			v, n, err := DecodeKey(nil, data[at:], 1)
			if err != nil {
				break
			}
			re, err := AppendKey(nil, v)
			if err != nil || !bytes.Equal(re, data[at:at+n]) {
				t.Fatalf("%x at byte %d decoded as %v, which encodes as %x (%v)", data, at, v, re, err)
			}
			vals, at = append(vals, v...), at+n
		}
		got, n, err := DecodeKey(nil, data, len(vals))
		if err != nil || n != at || len(got) != len(vals) {
			t.Fatalf("%x: %d values at once took %d bytes (%v), one at a time %d", data, len(vals), n, err, at)
		}
	})
}

// TestDecodeKeyRefusesMalformed: each way a key can be cut or corrupted
// is an error.
func TestDecodeKeyRefusesMalformed(t *testing.T) {
	for _, c := range []struct {
		key []byte
		n   int
	}{
		{[]byte{}, 1}, // fewer values than asked for
		{[]byte{tagInt, 0, 0, 0, 0, 0, 0, 0, 0}, 2}, // fewer values than asked for
		{[]byte{0x06}, 1},                    // unknown tag
		{[]byte{tagBool}, 1},                 // cut short
		{[]byte{tagBool, 2}, 1},              // not a BOOL byte
		{[]byte{tagInt, 1, 2, 3}, 1},         // cut short
		{[]byte{tagFloat}, 1},                // cut short
		{[]byte{tagStr, 'a', 'b'}, 1},        // no terminator
		{[]byte{tagStr, 'a', 0x00}, 1},       // a terminator cut in half
		{[]byte{tagBytes, 0x00, 0x02}, 1},    // not an escape
		{[]byte{tagStr, 0x00, 0xFF}, 1},      // an escape, then no terminator
		{[]byte{tagNull, tagInt, 0, 0x7}, 2}, // the second value cut short
	} {
		if got, _, err := DecodeKey(nil, c.key, c.n); err == nil {
			t.Errorf("%x decoded as %d values %v, want an error", c.key, c.n, got)
		}
	}
}
