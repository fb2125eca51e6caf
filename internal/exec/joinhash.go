package exec

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Join-key hashing. A row's key hashes once, to 64 bits, and everything
// the join needs comes from that value: the Bloom filter's block and bits,
// the level-salted partition and the hash-table slot. The hash is a
// function of the key's query-level value, not of the vector it arrived
// in, and agrees with the encoded-key equality of appendGroupKey: an INT
// column, a dictionary column, a boxed row-source column and an integral
// FLOAT holding the same number all hash alike, so the two sides of a join
// may arrive in any mix of forms.

const (
	hashMul       = 0x9E3779B97F4A7C15
	hashSeedStr   = 0x243F6A8885A308D3
	hashSeedBytes = 0x13198A2E03707344
	hashSeedFloat = 0xA4093822299F31D0
	hashNaN       = 0x082EFA98EC4E6C89
)

// mix64 is the 64-bit finalizer of MurmurHash3.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x
}

func hashInt(i int64) uint64 { return mix64(uint64(i)) }

// hashFloat hashes integral floats as the integer they equal (the
// encoded-key rule of appendFloatKey) and every NaN alike.
func hashFloat(f float64) uint64 {
	if f == float64(int64(f)) {
		return hashInt(int64(f))
	}
	if f != f {
		return hashNaN
	}
	return mix64(math.Float64bits(f) ^ hashSeedFloat)
}

// hashText hashes a string or byte slice eight bytes at a time.
func hashText[T string | []byte](seed uint64, s T) uint64 {
	h := seed ^ uint64(len(s))*hashMul
	for len(s) >= 8 {
		w := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
		h = (bits.RotateLeft64(h, 23) ^ w) * hashMul
		s = s[8:]
	}
	var w uint64
	for i := 0; i < len(s); i++ {
		w |= uint64(s[i]) << (8 * i)
	}
	return mix64(h ^ w)
}

// hashValue hashes a boxed non-NULL key value.
func hashValue(v sqltypes.Value) uint64 {
	switch v.K {
	case sqltypes.KindInt, sqltypes.KindBool:
		return hashInt(v.I)
	case sqltypes.KindFloat:
		return hashFloat(v.F)
	case sqltypes.KindString:
		return hashText(hashSeedStr, v.S)
	}
	return hashText(hashSeedBytes, v.B)
}

// combineHash folds the hash of a further key column into h.
func combineHash(h, col uint64) uint64 {
	return (bits.RotateLeft64(h, 5) ^ col) * hashMul
}

// joinPartition maps a key hash onto p partitions. level salts the remix
// so that the rows of a spilled partition spread over all p again when it
// is re-joined one level down, and so that the choice shares no bits with
// the Bloom filter's or the table's use of h.
func joinPartition(h uint64, level, p int) int {
	x := mix64(h ^ uint64(level+1)*hashMul)
	return int((x >> 32) * uint64(p) >> 32)
}

// hashNull is the hash of a NULL key. Only GROUP BY hashes one: it is a
// group like any other; a join drops NULL keys before hashing.
const hashNull = 0x452821E638D01377

// hashKeyColumn hashes column v at the given physical rows into h — h[k]
// belongs to rows[k]; the first key column sets it, later ones fold in —
// and returns the column in the form keys are compared and stored in:
// flat, typed where every value has one kind, sequences unpacked to their
// text, defined at the hashed rows only, with a null bit on every NULL
// row. A flat typed column is returned as it is; a dictionary column
// hashes and unpacks each distinct entry once.
func hashKeyColumn(v *vec.Vector, rows []int, h []uint64, first bool) (*vec.Vector, error) {
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	set := func(k int, x uint64) {
		if first {
			h[k] = x
		} else {
			h[k] = combineHash(h[k], x)
		}
	}
	if v.Codes != nil || v.Vals != nil || (v.Byts != nil && v.Packed) {
		return hashBoxedColumn(v, rows, set)
	}
	// A typed array has an entry under a null bit too: the loops run over
	// every row, then the NULL rows are hashed over.
	var before []uint64
	if v.Nulls != nil && !first {
		before = append(before, h...)
	}
	switch {
	case v.Ints != nil:
		for k, r := range rows {
			set(k, hashInt(v.Ints[r]))
		}
	case v.Floats != nil:
		for k, r := range rows {
			set(k, hashFloat(v.Floats[r]))
		}
	case v.Strs != nil:
		for k, r := range rows {
			set(k, hashText(hashSeedStr, v.Strs[r]))
		}
	case v.Byts != nil:
		for k, r := range rows {
			set(k, hashText(hashSeedBytes, v.Byts[r]))
		}
	default: // no array at all: a column of NULLs
		for k := range rows {
			set(k, hashNull)
		}
	}
	if v.Nulls != nil {
		for k, r := range rows {
			if !v.IsNull(r) {
				continue
			}
			if first {
				h[k] = hashNull
			} else {
				h[k] = combineHash(before[k], hashNull)
			}
		}
	}
	return v, nil
}

// hashBoxedColumn handles the columns whose values are boxed or packed:
// dictionary entries (rows index them through v.Codes), generic values,
// packed sequences. Packed sequences unpack here, once per dictionary
// entry or per hashed row. The result is typed when the values met all
// have one kind, generic otherwise.
func hashBoxedColumn(v *vec.Vector, rows []int, set func(int, uint64)) (*vec.Vector, error) {
	n := v.Len()
	null := func(r int) bool { return v.IsNull(r) || (v.Vals != nil && v.Vals[r].IsNull()) }
	at := func(r int) int { return r }
	todo := rows // the entries of vals to hash
	var vals []sqltypes.Value
	switch {
	case v.Codes != nil:
		vals = v.Dict
		if v.Packed {
			vals = append([]sqltypes.Value(nil), vals...)
		}
		at = func(r int) int { return int(v.Codes[r]) }
		todo = make([]int, len(vals))
		for i := range todo {
			todo[i] = i
		}
		for _, r := range rows {
			if c := v.Codes[r]; !null(r) && (c < 0 || int(c) >= len(vals)) {
				return nil, fmt.Errorf("exec: dictionary code %d out of range (%d entries)", c, len(vals))
			}
		}
	case v.Vals != nil:
		vals = v.Vals
	default: // flat packed sequences
		vals = make([]sqltypes.Value, n)
		for _, r := range rows {
			if !null(r) {
				vals[r] = sqltypes.NewBytes(v.Byts[r])
			}
		}
	}
	hashes := make([]uint64, len(vals))
	kind, mixed := sqltypes.KindNull, false
	for _, i := range todo {
		val := vals[i]
		if val.IsNull() {
			continue // a NULL row, or a dictionary entry no hashed row uses
		}
		if v.Packed && val.K == sqltypes.KindBytes {
			var err error
			if val, err = vec.UnpackValue(val); err != nil {
				return nil, err
			}
			vals[i] = val
		}
		hashes[i] = hashValue(val)
		if kind == sqltypes.KindNull {
			kind = val.K
		} else if kind != val.K {
			mixed = true
		}
	}
	out := &vec.Vector{Kind: kind}
	switch {
	case mixed || kind == sqltypes.KindNull:
		out.Kind = sqltypes.KindNull
		out.Vals = make([]sqltypes.Value, n)
	case kind == sqltypes.KindInt || kind == sqltypes.KindBool:
		out.Ints = make([]int64, n)
	case kind == sqltypes.KindFloat:
		out.Floats = make([]float64, n)
	case kind == sqltypes.KindString:
		out.Strs = make([]string, n)
	default:
		out.Byts = make([][]byte, n)
	}
	for k, r := range rows {
		if null(r) {
			set(k, hashNull)
			out.SetNull(r)
			continue
		}
		val := vals[at(r)]
		set(k, hashes[at(r)])
		switch {
		case out.Vals != nil:
			out.Vals[r] = val
		case out.Ints != nil:
			out.Ints[r] = val.I
		case out.Floats != nil:
			out.Floats[r] = val.F
		case out.Strs != nil:
			out.Strs[r] = val.S
		default:
			out.Byts[r] = val.B
		}
	}
	return out, nil
}

// keysEqual compares the key in row i of columns a with the key in row j
// of columns b, both in the form hashKeyColumn returns (or a column grown
// from one by AppendRows): typed when both sides hold a column in the same
// typed array, otherwise on the group-key encoding (appendValueKey) of
// both values — the encoding the hash agrees with, so mixed-kind and boxed
// columns match exactly the rows the typed path would. Two NULLs are equal
// (GROUP BY; joined keys are never NULL). buf is scratch.
func keysEqual(a []*vec.Vector, i int, b []*vec.Vector, j int, buf *[2][]byte) (bool, error) {
	for c, x := range a {
		y := b[c]
		if xn, yn := x.IsNull(i), y.IsNull(j); xn || yn {
			if xn != yn {
				return false, nil
			}
			continue
		}
		switch {
		case x.Ints != nil && y.Ints != nil:
			if x.Ints[i] != y.Ints[j] {
				return false, nil
			}
		case x.Strs != nil && y.Strs != nil:
			if x.Strs[i] != y.Strs[j] {
				return false, nil
			}
		case x.Byts != nil && y.Byts != nil && x.Packed == y.Packed:
			if !bytes.Equal(x.Byts[i], y.Byts[j]) {
				return false, nil
			}
		case x == y && x.Codes != nil && x.Codes[i] == y.Codes[j]:
			// one dictionary, one entry
		default:
			var err error
			if buf[0], err = encodedKey(buf[0], x, i); err == nil {
				buf[1], err = encodedKey(buf[1], y, j)
			}
			if err != nil {
				return false, err
			}
			if !bytes.Equal(buf[0], buf[1]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// encodedKey renders row i of a key column in the group-key encoding.
func encodedKey(buf []byte, col *vec.Vector, i int) ([]byte, error) {
	v, err := col.Value(i)
	if err != nil {
		return buf, err
	}
	return appendValueKey(buf[:0], v)
}

// vectorRowBytes approximates the memory row i of the columns retains,
// from the lengths of the vector entries that hold it.
func vectorRowBytes(cols []*vec.Vector, i int) int64 {
	var n int64
	for _, v := range cols {
		switch {
		case v.Strs != nil:
			n += 16 + int64(len(v.Strs[i]))
		case v.Byts != nil:
			n += 24 + int64(len(v.Byts[i]))
		case v.Vals != nil:
			n += 64 + int64(len(v.Vals[i].S)+len(v.Vals[i].B))
		default:
			n += 8
		}
	}
	return n
}
