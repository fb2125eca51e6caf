package exec

import (
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

// hashKeyColumn hashes column v at the given physical rows (none NULL)
// into h — h[k] belongs to rows[k]; the first key column sets it, later
// ones fold in — and returns the column in the form keys are compared and
// stored in: flat, typed where every value has one kind, sequences
// unpacked to their text, defined at the hashed rows only. A flat typed
// column is returned as it is; a dictionary column hashes and unpacks each
// distinct entry once.
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
	switch {
	case v.Codes != nil:
		return hashBoxedColumn(v, v.Dict, rows, set)
	case v.Ints != nil:
		for k, r := range rows {
			set(k, hashInt(v.Ints[r]))
		}
		return v, nil
	case v.Floats != nil:
		for k, r := range rows {
			set(k, hashFloat(v.Floats[r]))
		}
		return v, nil
	case v.Strs != nil:
		for k, r := range rows {
			set(k, hashText(hashSeedStr, v.Strs[r]))
		}
		return v, nil
	case v.Byts != nil && !v.Packed:
		for k, r := range rows {
			set(k, hashText(hashSeedBytes, v.Byts[r]))
		}
		return v, nil
	case v.Byts != nil:
		vals := make([]sqltypes.Value, len(v.Byts))
		for _, r := range rows {
			vals[r] = sqltypes.NewBytes(v.Byts[r])
		}
		return hashBoxedColumn(v, vals, rows, set)
	}
	return hashBoxedColumn(v, v.Vals, rows, set)
}

// hashBoxedColumn handles the columns whose values are boxed: vals is
// v's dictionary (rows index it through v.Codes) or one value per
// physical row. Packed sequences unpack here, once per dictionary entry
// or per hashed row. The result is typed when the values met all have one
// kind, generic otherwise.
func hashBoxedColumn(v *vec.Vector, vals []sqltypes.Value, rows []int, set func(int, uint64)) (*vec.Vector, error) {
	n := v.Len()
	at := func(r int) int { return r }
	todo := rows
	if v.Codes != nil {
		at = func(r int) int { return int(v.Codes[r]) }
		todo = make([]int, len(vals))
		for i := range todo {
			todo[i] = i
		}
		for _, r := range rows {
			if c := v.Codes[r]; int(c) >= len(vals) {
				return nil, fmt.Errorf("exec: dictionary code %d out of range (%d entries)", c, len(vals))
			}
		}
	}
	if v.Packed {
		vals = append([]sqltypes.Value(nil), vals...)
	}
	hashes := make([]uint64, len(vals))
	kind, mixed := sqltypes.KindNull, false
	for _, i := range todo {
		val := vals[i]
		if val.IsNull() {
			continue // a dictionary entry no hashed row uses
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
	for k, r := range rows {
		set(k, hashes[at(r)])
	}
	out := &vec.Vector{Kind: kind}
	switch {
	case mixed || kind == sqltypes.KindNull:
		out.Kind = sqltypes.KindNull
		out.Vals = make([]sqltypes.Value, n)
		for _, r := range rows {
			out.Vals[r] = vals[at(r)]
		}
	case kind == sqltypes.KindInt || kind == sqltypes.KindBool:
		out.Ints = make([]int64, n)
		for _, r := range rows {
			out.Ints[r] = vals[at(r)].I
		}
	case kind == sqltypes.KindFloat:
		out.Floats = make([]float64, n)
		for _, r := range rows {
			out.Floats[r] = vals[at(r)].F
		}
	case kind == sqltypes.KindString:
		out.Strs = make([]string, n)
		for _, r := range rows {
			out.Strs[r] = vals[at(r)].S
		}
	default:
		out.Byts = make([][]byte, n)
		for _, r := range rows {
			out.Byts[r] = vals[at(r)].B
		}
	}
	return out, nil
}
