// Package vec defines the columnar batch representation of the
// vectorized executor: a Batch of ~1024 rows holds one Vector per column
// (typed arrays plus a null bitmap), and a selection vector of surviving
// row indexes that filters shrink instead of copying rows. All text —
// STRING, BYTES, packed sequences — has one layout, Apache Arrow's
// variable-size binary (offsets over one byte run), which is this
// package's alone: other packages build text with NewVector, AppendText
// and GrowText and read it with Value, Str and Bytes. Vectors may stay
// dictionary-encoded straight off a compressed page, so predicates
// compare small integer codes and dropped rows are never decompressed —
// the executor-side counterpart of the paper's page compression
// observations (Section 2.3.5 / 5.1.2).
package vec

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/seq"
	"repro/internal/sqltypes"
)

// DefaultBatchSize is the target number of rows per batch: large enough
// to amortize per-batch dispatch, small enough that a batch's working
// set stays cache-resident.
const DefaultBatchSize = 1024

// Vector is one column of a batch in one of four physical encodings:
//
//   - typed flat: Ints (INT, BOOL) or Floats holds one entry per row; text
//     (STRING or BYTES, as Kind says) holds cell i in
//     Data[Offs[i]:Offs[i+1]], one offset more than there are rows;
//   - dictionary: Codes holds one small integer per row indexing Dict, a
//     flat vector of the column's kind (run-length pages expand to codes
//     on read — runs of equal codes);
//   - generic: Vals holds boxed values (what a row source is packed
//     into: its column kinds are unknown);
//   - lazy: Lazy holds the still-encoded column of a scanned page, which
//     becomes typed flat the first time a cell is read.
//
// Nulls, when non-nil, marks NULL rows; their array entries are
// undefined. Every NULL cell is marked there, in every form, the generic
// one included (Append marks a boxed NULL), so IsNull alone answers for a
// cell. Packed marks a BYTES column (flat or dictionary) holding
// 2-bit packed sequences (seq.Packed wire format) whose query-level
// representation is the unpacked string; Value unpacks lazily, so rows
// dropped by a selection vector are never unpacked.
//
// Once a vector holds its arrays, nothing writes them: not the producer,
// not a kept page form it is a header over, not a consumer. Vectors grow
// only past their arrays' lengths, and arrays headers share are clipped
// (Clip), so an append reallocates instead of writing into a neighbour's
// cells. So Value and Str box a STRING cell over Data without copying.
type Vector struct {
	Kind   sqltypes.Kind
	Nulls  []uint64 // bitmap, nil = no nulls
	Packed bool     // BYTES entries are packed sequences (query kind STRING)

	// Typed flat arrays (exactly one of Ints, Floats and Offs is
	// populated for a flat vector).
	Ints   []int64 // INT and BOOL (0/1)
	Floats []float64
	Offs   []int  // text: cell i is Data[Offs[i]:Offs[i+1]]
	Data   []byte // text: the cells back to back

	// Dictionary encoding: Codes[i] indexes Dict.
	Codes []int32
	Dict  *Vector

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
	// Fill sets v's kind-matched typed array (Ints, Floats or the text
	// arrays, say by ShareArrays) to one entry per physical row; entries
	// under a null bit are zero.
	Fill(v *Vector) error
}

// NewVector returns an empty flat vector of the given kind with capacity
// for n rows; of KindNull, a generic one (what rows are packed into: their
// column kinds are unknown).
func NewVector(kind sqltypes.Kind, n int) *Vector {
	v := &Vector{Kind: kind}
	v.makeArray(classOfKind(kind), n)
	return v
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
	case v.Offs != nil:
		return len(v.Offs) - 1
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
	switch v.class() {
	case classNone, classVals:
		v.Vals = append(v.Vals, val)
	case classInts:
		v.Ints = append(v.Ints, val.I)
	case classFloats:
		v.Floats = append(v.Floats, val.F)
	case classText:
		if v.Kind == sqltypes.KindString {
			AppendText(v, val.S)
		} else {
			AppendText(v, val.B)
		}
	}
}

// AppendText appends a copy of cell to v, a flat STRING or BYTES vector
// (one without an array yet becomes one).
func AppendText[T string | []byte](v *Vector, cell T) {
	if v.Offs == nil {
		v.Offs = []int{len(v.Data)}
	}
	v.Data = append(v.Data, cell...)
	v.Offs = append(v.Offs, len(v.Data))
}

// GrowText makes room in v, a flat STRING or BYTES vector (one without an
// array yet becomes one), for cells more cells holding size more bytes.
// When the bytes must move, they get room for as many cells as the offsets
// have, at this call's mean cell size: a producer that appends a page or a
// leaf at a time to a batch sized by NewVector moves its bytes about once.
func (v *Vector) GrowText(cells, size int) {
	if v.Offs == nil {
		v.Offs = make([]int, 1, cells+1)
	}
	v.Offs = grow(v.Offs, cells)
	if cap(v.Data)-len(v.Data) < size && cells > 0 {
		size = max(size, size*(cap(v.Offs)-len(v.Offs))/cells)
	}
	v.Data = grow(v.Data, size)
}

// grow returns s with room for n more entries, at least doubling its
// capacity when it moves (slices.Grow allocates twice under the race
// detector).
func grow[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	g := make([]T, len(s), max(len(s)+n, 2*cap(s)))
	copy(g, s)
	return g
}

// Str returns text cell i as a string over the vector's bytes, without
// copying them (nothing writes them).
func (v *Vector) Str(i int) string {
	b := v.Data[v.Offs[i]:v.Offs[i+1]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// Bytes returns text cell i, clipped to its length.
func (v *Vector) Bytes(i int) []byte {
	o, e := v.Offs[i], v.Offs[i+1]
	return v.Data[o:e:e]
}

// Value boxes row i into the query-level representation: dictionary
// codes resolve through the dictionary, and packed sequence bytes unpack
// to their textual form. Only rows reached through the selection vector
// are ever boxed or unpacked; a lazy column decodes as a whole on the
// first call. A STRING cell boxes without allocating.
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
		if c < 0 || int(c) >= v.Dict.Len() {
			return sqltypes.Null, v.codeError(c)
		}
		return v.DictEntry(int(c))
	case v.Ints != nil:
		if v.Kind == sqltypes.KindBool {
			return sqltypes.NewBool(v.Ints[i] != 0), nil
		}
		return sqltypes.NewInt(v.Ints[i]), nil
	case v.Floats != nil:
		return sqltypes.NewFloat(v.Floats[i]), nil
	case v.Offs != nil:
		if v.Kind == sqltypes.KindString {
			return sqltypes.NewString(v.Str(i)), nil
		}
		val = sqltypes.NewBytes(v.Bytes(i))
	default:
		val = v.Vals[i]
	}
	if v.Packed && val.K == sqltypes.KindBytes {
		return UnpackValue(val)
	}
	return val, nil
}

// DictEntry boxes dictionary entry d of v into its query-level value, a
// packed sequence unpacked.
func (v *Vector) DictEntry(d int) (sqltypes.Value, error) {
	val, err := v.Dict.Value(d)
	if err == nil && v.Packed && val.K == sqltypes.KindBytes {
		return UnpackValue(val)
	}
	return val, err
}

func (v *Vector) codeError(c int32) error {
	return fmt.Errorf("vec: dictionary code %d out of range (%d entries)", c, v.Dict.Len())
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

// ShareArrays points v's flat arrays at src's: a header over a decoded
// column. Neither writes them afterwards.
func (v *Vector) ShareArrays(src *Vector) {
	v.Ints, v.Floats, v.Offs, v.Data = src.Ints, src.Floats, src.Offs, src.Data
}

// Clip clips every array of v, and of its dictionary, to its length, so
// that an append to a header sharing them reallocates instead of writing
// past the shared length.
func (v *Vector) Clip() {
	v.Nulls, v.Ints, v.Floats = slices.Clip(v.Nulls), slices.Clip(v.Ints), slices.Clip(v.Floats)
	v.Offs, v.Data, v.Codes, v.Vals = slices.Clip(v.Offs), slices.Clip(v.Data), slices.Clip(v.Codes), slices.Clip(v.Vals)
	if v.Dict != nil {
		v.Dict.Clip()
	}
}

// ArrayBytes estimates the memory v's typed arrays hold (its null bitmap
// aside), its dictionary's included.
func (v *Vector) ArrayBytes() int64 {
	b := 8*int64(len(v.Ints)+len(v.Floats)+len(v.Offs)) + int64(len(v.Data)) + 4*int64(len(v.Codes))
	if v.Dict != nil {
		b += v.Dict.ArrayBytes()
	}
	return b
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
