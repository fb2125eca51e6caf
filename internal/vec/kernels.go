package vec

import (
	"fmt"

	"repro/internal/sqltypes"
)

// Column-at-a-time copy kernels: AppendRows grows a flat column from
// selected rows of batch columns (the build side of a hash join), Gather
// picks rows of a column by index (the join's output). Both move typed
// array entries; a cell is boxed only on the generic fallback.

// arrayClass names the array a vector's rows live in once it is flat.
type arrayClass uint8

const (
	classNone arrayClass = iota // no rows yet
	classInts
	classFloats
	classStrs
	classByts
	classVals
)

func classOfKind(k sqltypes.Kind) arrayClass {
	switch k {
	case sqltypes.KindInt, sqltypes.KindBool:
		return classInts
	case sqltypes.KindFloat:
		return classFloats
	case sqltypes.KindString:
		return classStrs
	case sqltypes.KindBytes:
		return classByts
	}
	return classVals
}

// class reports where v's decoded rows live (a dictionary vector by the
// kind of its entries). v must not be lazy.
func (v *Vector) class() arrayClass {
	switch {
	case v.Codes != nil:
		return classOfKind(v.Kind)
	case v.Ints != nil:
		return classInts
	case v.Floats != nil:
		return classFloats
	case v.Strs != nil:
		return classStrs
	case v.Byts != nil:
		return classByts
	case v.Vals != nil:
		return classVals
	}
	return classNone
}

// AppendRows appends the given physical rows of src to v, a flat column
// that grows across batches. v takes src's kind and array on the first
// call; dictionary codes are resolved, packed sequences stay packed. When
// a later src arrives in another form (a typed page after a boxed
// in-memory tail, say) v turns generic: its rows are boxed once into
// their query-level values and every later row is appended boxed.
func (v *Vector) AppendRows(src *Vector, rows []int) error {
	if len(rows) == 0 {
		return nil
	}
	if err := src.Materialize(); err != nil {
		return err
	}
	sc := src.class()
	if v.class() == classNone && sc != classVals {
		v.Kind, v.Packed = src.Kind, src.Packed
	} else if v.class() != sc || v.Kind != src.Kind || v.Packed != src.Packed || sc == classVals {
		return v.appendBoxed(src, rows)
	}
	base := v.Len()
	if src.Codes != nil {
		for i, r := range rows {
			if src.IsNull(r) {
				v.SetNull(base + i)
				v.appendTyped(sc, sqltypes.Value{})
				continue
			}
			c := src.Codes[r]
			if int(c) >= len(src.Dict) {
				return fmt.Errorf("vec: dictionary code %d out of range (%d entries)", c, len(src.Dict))
			}
			dv := src.Dict[c]
			if classOfKind(dv.K) != sc {
				return fmt.Errorf("vec: dictionary entry of kind %s in a %s column", dv.K, src.Kind)
			}
			v.appendTyped(sc, dv)
		}
		return nil
	}
	switch sc {
	case classInts:
		for _, r := range rows {
			v.Ints = append(v.Ints, src.Ints[r])
		}
	case classFloats:
		for _, r := range rows {
			v.Floats = append(v.Floats, src.Floats[r])
		}
	case classStrs:
		for _, r := range rows {
			v.Strs = append(v.Strs, src.Strs[r])
		}
	case classByts:
		for _, r := range rows {
			v.Byts = append(v.Byts, src.Byts[r])
		}
	}
	if src.Nulls != nil {
		for i, r := range rows {
			if src.IsNull(r) {
				v.SetNull(base + i)
			}
		}
	}
	return nil
}

func (v *Vector) appendTyped(c arrayClass, val sqltypes.Value) {
	switch c {
	case classInts:
		v.Ints = append(v.Ints, val.I)
	case classFloats:
		v.Floats = append(v.Floats, val.F)
	case classStrs:
		v.Strs = append(v.Strs, val.S)
	case classByts:
		v.Byts = append(v.Byts, val.B)
	}
}

// appendBoxed is AppendRows' fallback: v becomes (or already is) generic
// and takes src's rows as boxed query-level values.
func (v *Vector) appendBoxed(src *Vector, rows []int) error {
	if v.class() != classVals {
		vals := make([]sqltypes.Value, v.Len(), v.Len()+len(rows))
		for i := range vals {
			val, err := v.Value(i)
			if err != nil {
				return err
			}
			vals[i] = val
		}
		*v = Vector{Kind: sqltypes.KindNull, Nulls: v.Nulls, Vals: vals}
	}
	for _, r := range rows {
		val, err := src.Value(r)
		if err != nil {
			return err
		}
		v.Append(val)
	}
	return nil
}

// Gather returns a new vector holding v's rows idx[0], idx[1], ... in
// that order. Encodings survive: a dictionary vector gathers codes and
// shares the dictionary, packed sequences stay packed. A lazy v decodes
// first.
func (v *Vector) Gather(idx []int) (*Vector, error) {
	if err := v.Materialize(); err != nil {
		return nil, err
	}
	out := &Vector{Kind: v.Kind, Packed: v.Packed, Dict: v.Dict}
	switch {
	case v.Codes != nil:
		out.Codes = make([]int32, len(idx))
		for i, r := range idx {
			out.Codes[i] = v.Codes[r]
		}
	case v.Ints != nil:
		out.Ints = make([]int64, len(idx))
		for i, r := range idx {
			out.Ints[i] = v.Ints[r]
		}
	case v.Floats != nil:
		out.Floats = make([]float64, len(idx))
		for i, r := range idx {
			out.Floats[i] = v.Floats[r]
		}
	case v.Strs != nil:
		out.Strs = make([]string, len(idx))
		for i, r := range idx {
			out.Strs[i] = v.Strs[r]
		}
	case v.Byts != nil:
		out.Byts = make([][]byte, len(idx))
		for i, r := range idx {
			out.Byts[i] = v.Byts[r]
		}
	default:
		out.Vals = make([]sqltypes.Value, len(idx))
		for i, r := range idx {
			out.Vals[i] = v.Vals[r]
		}
	}
	if v.Nulls != nil {
		for i, r := range idx {
			if v.IsNull(r) {
				out.SetNull(i)
			}
		}
	}
	return out, nil
}
