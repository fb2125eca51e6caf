package vec

import "repro/internal/sqltypes"

// Column-at-a-time copy kernels: AppendRows grows a flat column from
// selected rows of batch columns (the build side of a hash join), Gather
// picks rows of a column by index (the join's output). Both move typed
// array entries — text cells as bytes into one run; a cell is boxed only
// on the generic fallback.

// arrayClass names the array a vector's rows live in once it is flat.
type arrayClass uint8

const (
	classNone arrayClass = iota // no rows yet
	classInts
	classFloats
	classText
	classVals
)

func classOfKind(k sqltypes.Kind) arrayClass {
	switch k {
	case sqltypes.KindInt, sqltypes.KindBool:
		return classInts
	case sqltypes.KindFloat:
		return classFloats
	case sqltypes.KindString, sqltypes.KindBytes:
		return classText
	}
	return classVals
}

// class reports where v's decoded rows live (a dictionary vector's in its
// dictionary). v must not be lazy.
func (v *Vector) class() arrayClass {
	switch {
	case v.Codes != nil:
		return v.Dict.class()
	case v.Ints != nil:
		return classInts
	case v.Floats != nil:
		return classFloats
	case v.Offs != nil:
		return classText
	case v.Vals != nil:
		return classVals
	}
	return classNone
}

// makeArray gives v, which has none, an empty array of class c with room
// for n rows.
func (v *Vector) makeArray(c arrayClass, n int) {
	switch c {
	case classInts:
		v.Ints = make([]int64, 0, n)
	case classFloats:
		v.Floats = make([]float64, 0, n)
	case classText:
		v.Offs = make([]int, 1, n+1)
	default:
		v.Vals = make([]sqltypes.Value, 0, n)
	}
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
	if v.class() == classNone && sc != classVals && sc != classNone {
		v.Kind, v.Packed = src.Kind, src.Packed
		v.makeArray(sc, len(rows))
	} else if v.class() != sc || v.Kind != src.Kind || v.Packed != src.Packed || sc == classVals || sc == classNone {
		return v.appendBoxed(src, rows)
	}
	base := v.Len()
	if src.Codes != nil {
		// Resolve codes to dictionary rows; a NULL row takes entry 0's
		// cell (any will do under the null bit) unless there is none.
		at := make([]int, len(rows))
		for i, r := range rows {
			if src.IsNull(r) {
				continue
			}
			c := src.Codes[r]
			if c < 0 || int(c) >= src.Dict.Len() {
				return src.codeError(c)
			}
			at[i] = int(c)
		}
		if src.Dict.Len() == 0 {
			return v.appendBoxed(src, rows) // every row is NULL
		}
		v.appendCells(sc, src.Dict, at)
	} else {
		v.appendCells(sc, src, rows)
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

// appendCells appends the entries of src's rows to v's array of class c,
// which src's is too.
func (v *Vector) appendCells(c arrayClass, src *Vector, rows []int) {
	switch c {
	case classInts:
		for _, r := range rows {
			v.Ints = append(v.Ints, src.Ints[r])
		}
	case classFloats:
		for _, r := range rows {
			v.Floats = append(v.Floats, src.Floats[r])
		}
	case classText:
		size, run := 0, len(rows) > 0
		for i, r := range rows {
			size += src.Offs[r+1] - src.Offs[r]
			run = run && r == rows[0]+i
		}
		v.GrowText(len(rows), size)
		if run { // consecutive rows: one copy of their bytes, offsets shifted
			lo, hi := rows[0], rows[len(rows)-1]+1
			shift := len(v.Data) - src.Offs[lo]
			v.Data = append(v.Data, src.Data[src.Offs[lo]:src.Offs[hi]]...)
			for _, o := range src.Offs[lo+1 : hi+1] {
				v.Offs = append(v.Offs, o+shift)
			}
			return
		}
		for _, r := range rows {
			v.Data = append(v.Data, src.Data[src.Offs[r]:src.Offs[r+1]]...)
			v.Offs = append(v.Offs, len(v.Data))
		}
	case classVals:
		for _, r := range rows {
			v.Vals = append(v.Vals, src.Vals[r])
		}
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
	if v.Codes != nil {
		out.Codes = make([]int32, len(idx))
		for i, r := range idx {
			out.Codes[i] = v.Codes[r]
		}
	} else {
		c := v.class()
		out.makeArray(c, len(idx))
		out.appendCells(c, v, idx)
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
