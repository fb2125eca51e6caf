// Package vec defines the columnar batch representation of the
// vectorized executor: a Batch of ~1024 rows holds one Vector per
// column (typed arrays plus a null bitmap), and a selection vector of
// surviving row indexes that filters shrink instead of copying rows.
// Vectors may stay dictionary-encoded straight off a compressed page, so
// predicates compare small integer codes and dropped rows are never
// decompressed — the executor-side counterpart of the paper's page
// compression observations (Section 2.3.5 / 5.1.2).
package vec

import (
	"fmt"

	"repro/internal/seq"
	"repro/internal/sqltypes"
)

// DefaultBatchSize is the target number of rows per batch: large enough
// to amortize per-batch dispatch, small enough that a batch's working
// set stays cache-resident.
const DefaultBatchSize = 1024

// Vector is one column of a batch in one of four physical encodings:
//
//   - typed flat: the kind-matched array (Ints, Floats, Strs, Byts)
//     holds one entry per row;
//   - dictionary: Codes holds one small integer per row indexing Dict
//     (run-length pages expand to codes on read — runs of equal codes);
//   - generic: Vals holds boxed values (what a row source is packed
//     into: its column kinds are unknown);
//   - lazy: Lazy holds the still-encoded column of a scanned page, which
//     becomes typed flat the first time a cell is read.
//
// Nulls, when non-nil, marks NULL rows; their array entries are
// undefined. Packed marks a BYTES column (flat or dictionary) holding
// 2-bit packed sequences (seq.Packed wire format) whose query-level
// representation is the unpacked string; Value unpacks lazily, so rows
// dropped by a selection vector are never unpacked.
type Vector struct {
	Kind   sqltypes.Kind
	Nulls  []uint64 // bitmap, nil = no nulls
	Packed bool     // BYTES entries are packed sequences (query kind STRING)

	// Typed flat arrays (exactly one is populated for a flat vector).
	Ints   []int64 // INT and BOOL (0/1)
	Floats []float64
	Strs   []string
	Byts   [][]byte

	// Dictionary encoding: Codes[i] indexes Dict.
	Codes []int32
	Dict  []sqltypes.Value

	// Generic boxed fallback.
	Vals []sqltypes.Value

	// Lazy, when non-nil, is a flat column the scan has located on its
	// page but not decoded: Nulls is already valid, the typed array is
	// filled by the first Value or Materialize call. Columns a query
	// never reads are never decoded.
	Lazy LazyColumn
}

// LazyColumn is the still-encoded form of one flat column of one page.
type LazyColumn interface {
	// Len returns the physical row count.
	Len() int
	// Fill sets v's kind-matched typed array (Ints, Floats, Strs or Byts)
	// to one entry per physical row; entries under a null bit are zero.
	Fill(v *Vector) error
}

// NewVector returns an empty flat vector of the given kind with capacity
// for n rows.
func NewVector(kind sqltypes.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	switch kind {
	case sqltypes.KindInt, sqltypes.KindBool:
		v.Ints = make([]int64, 0, n)
	case sqltypes.KindFloat:
		v.Floats = make([]float64, 0, n)
	case sqltypes.KindString:
		v.Strs = make([]string, 0, n)
	case sqltypes.KindBytes:
		v.Byts = make([][]byte, 0, n)
	default:
		v.Vals = make([]sqltypes.Value, 0, n)
	}
	return v
}

// NewGenericVector returns an empty boxed-value vector (what rows are
// packed into: their column kinds are unknown).
func NewGenericVector(n int) *Vector {
	return &Vector{Kind: sqltypes.KindNull, Vals: make([]sqltypes.Value, 0, n)}
}

// Len returns the physical row count.
func (v *Vector) Len() int {
	switch {
	case v.Codes != nil:
		return len(v.Codes)
	case v.Lazy != nil:
		return v.Lazy.Len()
	case v.Ints != nil:
		return len(v.Ints)
	case v.Floats != nil:
		return len(v.Floats)
	case v.Strs != nil:
		return len(v.Strs)
	case v.Byts != nil:
		return len(v.Byts)
	}
	return len(v.Vals)
}

// IsNull reports whether row i is NULL.
func (v *Vector) IsNull(i int) bool {
	w := i >> 6
	if w >= len(v.Nulls) {
		// The bitmap grows lazily to the last NULL row; rows past it are
		// non-null.
		return false
	}
	return v.Nulls[w]&(1<<uint(i&63)) != 0
}

// SetNull marks row i NULL, growing the bitmap to cover at least i+1
// rows.
func (v *Vector) SetNull(i int) {
	for len(v.Nulls) <= i>>6 {
		v.Nulls = append(v.Nulls, 0)
	}
	v.Nulls[i>>6] |= 1 << uint(i&63)
}

// Append adds one boxed value to a flat or generic vector.
func (v *Vector) Append(val sqltypes.Value) {
	i := v.Len()
	if val.IsNull() {
		v.SetNull(i)
		val = sqltypes.Value{} // zero entry under the null bit
	}
	switch {
	case v.Vals != nil || (v.Ints == nil && v.Floats == nil && v.Strs == nil && v.Byts == nil):
		v.Vals = append(v.Vals, val)
	case v.Ints != nil:
		v.Ints = append(v.Ints, val.I)
	case v.Floats != nil:
		v.Floats = append(v.Floats, val.F)
	case v.Strs != nil:
		v.Strs = append(v.Strs, val.S)
	case v.Byts != nil:
		v.Byts = append(v.Byts, val.B)
	}
}

// Value boxes row i into the query-level representation: dictionary
// codes resolve through the dictionary, and packed sequence bytes unpack
// to their textual form. Only rows reached through the selection vector
// are ever boxed or unpacked; a lazy column decodes as a whole on the
// first call.
func (v *Vector) Value(i int) (sqltypes.Value, error) {
	if v.IsNull(i) {
		return sqltypes.Null, nil
	}
	if v.Lazy != nil { // checked here too: Materialize does not inline, Value runs per cell
		if err := v.Materialize(); err != nil {
			return sqltypes.Null, err
		}
	}
	var val sqltypes.Value
	switch {
	case v.Codes != nil:
		c := v.Codes[i]
		if int(c) >= len(v.Dict) {
			return sqltypes.Null, fmt.Errorf("vec: dictionary code %d out of range (%d entries)", c, len(v.Dict))
		}
		val = v.Dict[c]
	case v.Ints != nil:
		if v.Kind == sqltypes.KindBool {
			return sqltypes.NewBool(v.Ints[i] != 0), nil
		}
		return sqltypes.NewInt(v.Ints[i]), nil
	case v.Floats != nil:
		return sqltypes.NewFloat(v.Floats[i]), nil
	case v.Strs != nil:
		return sqltypes.NewString(v.Strs[i]), nil
	case v.Byts != nil:
		val = sqltypes.NewBytes(v.Byts[i])
	default:
		val = v.Vals[i]
	}
	if v.Packed && val.K == sqltypes.KindBytes {
		return UnpackValue(val)
	}
	return val, nil
}

// Materialize decodes a lazy vector into its typed flat form, all
// physical rows at once; on any other vector it does nothing. Predicate
// kernels call it before reading the typed arrays, Value calls it on the
// first cell read.
func (v *Vector) Materialize() error {
	if v.Lazy == nil {
		return nil
	}
	if err := v.Lazy.Fill(v); err != nil {
		return err
	}
	v.Lazy = nil
	return nil
}

// UnpackValue converts a packed-sequence BYTES value to its query-level
// string form.
func UnpackValue(val sqltypes.Value) (sqltypes.Value, error) {
	p, err := seq.Decode(val.B)
	if err != nil {
		return sqltypes.Null, fmt.Errorf("vec: bad packed sequence: %w", err)
	}
	return sqltypes.NewString(p.Unpack()), nil
}

// Batch is a horizontal slice of a table in columnar form. Sel is the
// selection vector: the physical row indexes (ascending) still alive
// after filters and limits; operators iterate Sel, never 0..n. Base is
// the global row index of physical row 0 — the coordinate MVCC
// visibility ranges are expressed in.
type Batch struct {
	Cols []*Vector
	Sel  []int
	Base int64
}

// NewBatch returns a batch over the given columns with all rows
// selected.
func NewBatch(cols []*Vector, n int) *Batch {
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return &Batch{Cols: cols, Sel: sel}
}

// Len returns the number of selected rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Rows returns the physical row count (selected or not). A batch without
// columns (SELECT 1: rows, no cells) has as many as its selection reaches.
func (b *Batch) Rows() int {
	if len(b.Cols) > 0 {
		return b.Cols[0].Len()
	}
	if len(b.Sel) == 0 {
		return 0
	}
	return b.Sel[len(b.Sel)-1] + 1
}

// ReadRow materializes physical row i into dst (grown as needed),
// boxing only this row's cells.
func (b *Batch) ReadRow(i int, dst sqltypes.Row) (sqltypes.Row, error) {
	return b.ReadRowCols(i, dst, nil)
}

// ReadRowCols is ReadRow restricted to the columns marked in needed
// (nil = all): unneeded cells are set to NULL without decoding, so a
// pruned consumer never pays for columns it will not read.
func (b *Batch) ReadRowCols(i int, dst sqltypes.Row, needed []bool) (sqltypes.Row, error) {
	if cap(dst) < len(b.Cols) {
		dst = make(sqltypes.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for c, col := range b.Cols {
		if needed != nil && (c >= len(needed) || !needed[c]) {
			dst[c] = sqltypes.Null
			continue
		}
		v, err := col.Value(i)
		if err != nil {
			return nil, err
		}
		dst[c] = v
	}
	return dst, nil
}
