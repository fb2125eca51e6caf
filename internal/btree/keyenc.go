// Package btree implements the disk-backed clustered B+-tree that backs
// tables with a clustered primary key — the physical design behind the
// paper's Query 3 merge join ("we can choose appropriate clustered indexes
// on those tables so that the query processor can do this join ... by using
// a parallel merge join", Section 5.3.3).
//
// Keys are composite column values encoded into memcmp-comparable bytes;
// leaf values hold the full encoded row (a clustered index stores the table
// itself). Durability is shadow-based: the tree file only changes at
// checkpoints, which write a fresh compacted file and atomically rename it
// over the old one, so crash recovery always sees a consistent tree and the
// WAL replays the delta.
package btree

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/sqltypes"
)

// Key-encoding tags, ordered consistently with sqltypes.Compare for
// homogeneous column kinds (the catalog guarantees each key column holds a
// single kind, so cross-kind numeric ordering never arises inside a column).
const (
	tagNull  = 0x00
	tagBool  = 0x01
	tagInt   = 0x02
	tagFloat = 0x03
	tagStr   = 0x04
	tagBytes = 0x05
)

// AppendKey appends the order-preserving encoding of the composite key
// values to dst. For any rows a, b consisting of the same column kinds:
//
//	bytes.Compare(AppendKey(nil, a), AppendKey(nil, b)) ==
//	sqltypes.CompareRows(a, b)
func AppendKey(dst []byte, key sqltypes.Row) ([]byte, error) {
	for _, v := range key {
		switch v.K {
		case sqltypes.KindNull:
			dst = append(dst, tagNull)
		case sqltypes.KindBool:
			dst = append(dst, tagBool, byte(v.I))
		case sqltypes.KindInt:
			dst = append(dst, tagInt)
			dst = appendUint64BE(dst, uint64(v.I)^(1<<63))
		case sqltypes.KindFloat:
			dst = append(dst, tagFloat)
			bits := math.Float64bits(v.F)
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			dst = appendUint64BE(dst, bits)
		case sqltypes.KindString:
			dst = append(dst, tagStr)
			dst = appendEscaped(dst, v.S)
		case sqltypes.KindBytes:
			dst = append(dst, tagBytes)
			dst = appendEscaped(dst, string(v.B))
		default:
			return nil, fmt.Errorf("btree: cannot encode key kind %s", v.K)
		}
	}
	return dst, nil
}

// appendEscaped encodes a variable-length byte string such that the
// encoding of a prefix sorts before any extension: 0x00 bytes become
// 0x00 0xFF, and the value is terminated by 0x00 0x01.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, s[i])
		}
	}
	return append(dst, 0x00, 0x01)
}

func appendUint64BE(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

// DecodeIntKeyPrefix extracts the leading integer column from an encoded
// key; ok=false when the key does not start with an integer column. Used
// by the planner to compute key ranges for partitioned merge joins.
func DecodeIntKeyPrefix(key []byte) (int64, bool) {
	if len(key) < 9 || key[0] != tagInt {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(key[1:]) ^ (1 << 63)), true
}

// DecodeKey is AppendKey's inverse: it decodes the first n values of an
// encoded key, appends them to dst, and returns them with the number of
// bytes they took. Text is copied out of key. Bytes no AppendKey call
// writes — an unknown tag, a value cut short, a BOOL byte other than 0 or
// 1, a 0x00 in text followed by anything but 0xFF or 0x01 — are an error.
func DecodeKey(dst sqltypes.Row, key []byte, n int) (sqltypes.Row, int, error) {
	at := 0
	for i := 0; i < n; i++ {
		if at == len(key) {
			return dst, at, fmt.Errorf("btree: key of %d bytes holds %d values, want %d", len(key), i, n)
		}
		tag := key[at]
		at++
		switch tag {
		case tagNull:
			dst = append(dst, sqltypes.Null)
		case tagBool:
			if at == len(key) || key[at] > 1 {
				return dst, at, fmt.Errorf("btree: bad BOOL at key byte %d", at)
			}
			dst = append(dst, sqltypes.NewBool(key[at] == 1))
			at++
		case tagInt, tagFloat:
			if len(key)-at < 8 {
				return dst, at, fmt.Errorf("btree: key cut short in a number at byte %d", at)
			}
			bits := binary.BigEndian.Uint64(key[at:])
			at += 8
			switch {
			case tag == tagInt:
				dst = append(dst, sqltypes.NewInt(int64(bits^(1<<63))))
			case bits&(1<<63) != 0: // a positive float
				dst = append(dst, sqltypes.NewFloat(math.Float64frombits(bits^(1<<63))))
			default:
				dst = append(dst, sqltypes.NewFloat(math.Float64frombits(^bits)))
			}
		case tagStr, tagBytes:
			b, w, err := unescape(key[at:])
			if err != nil {
				return dst, at, fmt.Errorf("btree: key byte %d: %w", at, err)
			}
			at += w
			if tag == tagStr {
				dst = append(dst, sqltypes.NewString(unsafe.String(unsafe.SliceData(b), len(b)))) // b is this value's alone
			} else {
				dst = append(dst, sqltypes.NewBytes(b))
			}
		default:
			return dst, at - 1, fmt.Errorf("btree: unknown key tag 0x%02x at byte %d", tag, at-1)
		}
	}
	return dst, at, nil
}

// unescape reverses appendEscaped on the front of src: it returns a copy
// of the value's bytes and the encoded bytes it took, terminator included.
func unescape(src []byte) ([]byte, int, error) {
	end, escapes := -1, 0
	for i := 0; i+1 < len(src) && end < 0; i++ {
		if src[i] != 0x00 {
			continue
		}
		switch src[i+1] {
		case 0x01:
			end = i
		case 0xFF:
			escapes++
			i++
		default:
			return nil, 0, fmt.Errorf("bad escape 0x00 0x%02x", src[i+1])
		}
	}
	if end < 0 {
		return nil, 0, fmt.Errorf("text without its terminator")
	}
	out := make([]byte, 0, end-escapes)
	for i := 0; i < end; i++ {
		out = append(out, src[i])
		if src[i] == 0x00 {
			i++
		}
	}
	return out, end + 2, nil
}
