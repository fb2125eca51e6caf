package vec_test

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// lazyInts is a LazyColumn whose cell i decodes to the integer i,
// counting the cells it decodes; with fail set, Fill errors instead.
type lazyInts struct {
	n       int
	decodes int
	fail    error
}

func (l *lazyInts) Len() int { return l.n }

func (l *lazyInts) Fill(v *vec.Vector) error {
	if l.fail != nil {
		return l.fail
	}
	v.Ints = make([]int64, l.n)
	for i := range v.Ints {
		v.Ints[i] = int64(i)
	}
	l.decodes += l.n
	return nil
}

func lazyIntVector(n int) (*vec.Vector, *lazyInts) {
	l := &lazyInts{n: n}
	return &vec.Vector{Kind: sqltypes.KindInt, Lazy: l}, l
}

// TestIsNullPastLazilyGrownBitmap: SetNull grows the bitmap only as far as
// the last NULL row, so every later row must read as non-null instead of
// indexing past the bitmap (the PR 7 fuzz found IsNull panicking there).
func TestIsNullPastLazilyGrownBitmap(t *testing.T) {
	v := vec.NewVector(sqltypes.KindInt, 200)
	for i := 0; i < 200; i++ {
		if i == 3 {
			v.Append(sqltypes.Null)
		} else {
			v.Append(sqltypes.NewInt(int64(i)))
		}
	}
	if len(v.Nulls) != 1 {
		t.Fatalf("bitmap has %d words for a last NULL at row 3, want 1", len(v.Nulls))
	}
	if !v.IsNull(3) {
		t.Error("row 3 should be NULL")
	}
	for _, i := range []int{0, 63, 64, 127, 199} {
		if v.IsNull(i) {
			t.Errorf("row %d reads as NULL past the bitmap", i)
		}
		val, err := v.Value(i)
		if err != nil || val.I != int64(i) {
			t.Errorf("Value(%d) = %v, %v", i, val, err)
		}
	}

	v.SetNull(130)
	if len(v.Nulls) != 3 {
		t.Fatalf("bitmap has %d words after SetNull(130), want 3", len(v.Nulls))
	}
	if !v.IsNull(130) || v.IsNull(64) || v.IsNull(129) || v.IsNull(199) {
		t.Error("SetNull(130) changed rows other than 130")
	}
}

// TestSelectionShrinkInPlace: a filter compacts Sel inside its backing
// array and reslices it. Len follows the selection, Rows stays physical,
// nothing is copied, and a lazy column the filter does not read stays
// encoded until a selected row is read, when it decodes once.
func TestSelectionShrinkInPlace(t *testing.T) {
	ids := vec.NewVector(sqltypes.KindInt, 8)
	for i := 0; i < 8; i++ {
		ids.Append(sqltypes.NewInt(int64(i)))
	}
	payload, lazy := lazyIntVector(8)
	b := vec.NewBatch([]*vec.Vector{ids, payload}, 8)
	if b.Len() != 8 || b.Rows() != 8 {
		t.Fatalf("fresh batch: Len %d Rows %d, want 8 and 8", b.Len(), b.Rows())
	}
	first := &b.Sel[0]

	idAtLeast4 := &expr.Cmp{Op: expr.CmpGe, L: &expr.Col{Idx: 0}, R: &expr.Lit{V: sqltypes.NewInt(4)}}
	if err := expr.CompileFilter(idAtLeast4).Apply(b); err != nil {
		t.Fatal(err)
	}

	if b.Len() != 4 || b.Rows() != 8 {
		t.Fatalf("after the filter: Len %d Rows %d, want 4 and 8", b.Len(), b.Rows())
	}
	if lazy.decodes != 0 || payload.Lazy == nil {
		t.Errorf("the filter on column 0 decoded %d cells of column 1", lazy.decodes)
	}
	if &b.Sel[0] != first {
		t.Error("shrinking reallocated the selection vector")
	}
	var row sqltypes.Row
	for i, s := range b.Sel {
		var err error
		row, err = b.ReadRow(s, row)
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(i + 4); row[0].I != want || row[1].I != want {
			t.Errorf("selected row %d = %v, want [%d %d]", i, row, want, want)
		}
	}
	if lazy.decodes != 8 || payload.Lazy != nil {
		t.Errorf("reading 4 selected rows decoded %d payload cells, want the column's 8 once", lazy.decodes)
	}
}

// TestReadRowColsSkipsUnmarkedColumns: a column not marked in needed
// comes back NULL and is not decoded; a needed slice shorter than the
// batch leaves the columns past its end unmarked; nil means every column.
func TestReadRowColsSkipsUnmarkedColumns(t *testing.T) {
	ids := vec.NewVector(sqltypes.KindInt, 2)
	ids.Append(sqltypes.NewInt(10))
	ids.Append(sqltypes.NewInt(11))
	lazy, hook := lazyIntVector(2)
	failing := &vec.Vector{
		Kind: sqltypes.KindInt,
		Lazy: &lazyInts{n: 2, fail: fmt.Errorf("decoded a column nobody asked for")},
	}
	b := vec.NewBatch([]*vec.Vector{ids, lazy, failing}, 2)

	dst := make(sqltypes.Row, 3)
	for _, needed := range [][]bool{{true, false, false}, {true}} {
		row, err := b.ReadRowCols(1, dst, needed)
		if err != nil {
			t.Fatalf("needed %v: %v", needed, err)
		}
		if &row[0] != &dst[0] {
			t.Errorf("needed %v: a large enough dst was not reused", needed)
		}
		if row[0].I != 11 || !row[1].IsNull() || !row[2].IsNull() {
			t.Errorf("needed %v: row = %v, want [11 NULL NULL]", needed, row)
		}
	}
	if hook.decodes != 0 {
		t.Errorf("unmarked lazy column decoded %d cells", hook.decodes)
	}

	row, err := b.ReadRowCols(1, nil, []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if row[1].I != 1 || hook.decodes != 2 {
		t.Errorf("marked lazy column: value %v after %d decodes, want 1 after the column's 2", row[1], hook.decodes)
	}
	if _, err := b.ReadRow(1, nil); err == nil {
		t.Error("ReadRow (every column) did not reach the failing column")
	}
	if _, err := b.ReadRow(0, nil); err == nil {
		t.Error("a column whose decode failed served a cell on the next read")
	}
}

// TestAppendRowsAndGather: the join's two copy kernels against the boxed
// reading of the same cells. A column grown from a lazy typed page, a
// dictionary page and a packed-sequence page of one kind stays typed; a
// boxed batch (an in-memory tail, a row source) turns it generic without
// changing a value. Gather keeps the encoding it is given.
func TestAppendRowsAndGather(t *testing.T) {
	lazy, _ := lazyIntVector(6)
	flat := vec.NewVector(sqltypes.KindInt, 4)
	for _, v := range []sqltypes.Value{sqltypes.NewInt(40), sqltypes.Null, sqltypes.NewInt(42), sqltypes.NewInt(43)} {
		flat.Append(v)
	}
	dict := dictionaryOf(sqltypes.KindInt, []sqltypes.Value{sqltypes.NewInt(7), sqltypes.NewInt(9)}, []int32{1, 0, 1, 0})
	dict.SetNull(3)
	boxed := vec.NewVector(sqltypes.KindNull, 2)
	boxed.Append(sqltypes.NewString("tail"))
	boxed.Append(sqltypes.Null)

	var want []sqltypes.Value
	store := &vec.Vector{}
	add := func(src *vec.Vector, rows []int) {
		t.Helper()
		if err := store.AppendRows(src, rows); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			v, err := src.Value(r)
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, v)
		}
	}
	check := func(v *vec.Vector, want []sqltypes.Value) {
		t.Helper()
		if v.Len() != len(want) {
			t.Fatalf("%d rows, want %d", v.Len(), len(want))
		}
		for i, w := range want {
			if got, err := v.Value(i); err != nil || fmt.Sprint(got) != fmt.Sprint(w) || got.K != w.K {
				t.Errorf("row %d = %v (%v), want %v", i, got, err, w)
			}
		}
	}
	add(lazy, []int{5, 1})
	add(flat, []int{0, 1, 3})
	add(dict, []int{0, 1, 3})
	check(store, want)
	if store.Ints == nil || store.Vals != nil {
		t.Error("a column grown from INT pages only should be a typed array")
	}
	add(boxed, []int{0, 1})
	add(flat, []int{2})
	check(store, want)
	if store.Vals == nil {
		t.Error("a boxed batch should turn the column generic")
	}

	idx := []int{3, 0, 3, 1}
	for name, src := range map[string]*vec.Vector{"flat": flat, "dict": dict, "generic": store} {
		got, err := src.Gather(idx)
		if err != nil {
			t.Fatal(err)
		}
		var want []sqltypes.Value
		for _, r := range idx {
			v, _ := src.Value(r)
			want = append(want, v)
		}
		check(got, want)
		if name == "dict" && (got.Codes == nil || got.Dict.Len() != 2) {
			t.Error("gathering a dictionary vector should gather codes")
		}
	}

	packed := dictionaryOf(sqltypes.KindBytes, []sqltypes.Value{sqltypes.NewBytes([]byte{0xFF})}, []int32{0})
	packed.Packed = true
	seqs := &vec.Vector{}
	if err := seqs.AppendRows(packed, []int{0}); err != nil {
		t.Fatal(err)
	}
	if !seqs.Packed || seqs.Offs == nil || seqs.Len() != 1 {
		t.Errorf("packed sequences should stay packed bytes, got %+v", seqs)
	}
}

// textColumn is a flat STRING vector of n 36-byte cells, each distinct.
func textColumn(n int) *vec.Vector {
	v := vec.NewVector(sqltypes.KindString, n)
	for i := range n {
		v.Append(sqltypes.NewString(fmt.Sprintf("ACGTACGTACGTACGTACGTACGTACGTAC%06d", i)))
	}
	return v
}

// BenchmarkGatherText gathers a whole 1 024-row batch of 36-byte text
// cells in reverse order: the join's output copy.
func BenchmarkGatherText(b *testing.B) {
	v := textColumn(vec.DefaultBatchSize)
	idx := make([]int, vec.DefaultBatchSize)
	for i := range idx {
		idx[i] = len(idx) - 1 - i
	}
	b.ReportAllocs()
	for range b.N {
		if _, err := v.Gather(idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendRowsText appends every row of a 1 024-row batch of
// 36-byte text cells to an empty column: the build side's copy.
func BenchmarkAppendRowsText(b *testing.B) {
	v := textColumn(vec.DefaultBatchSize)
	rows := make([]int, vec.DefaultBatchSize)
	for i := range rows {
		rows[i] = i
	}
	b.ReportAllocs()
	for range b.N {
		var dst vec.Vector
		if err := dst.AppendRows(v, rows); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStringValueDoesNotAllocate: boxing a flat STRING cell is a string
// header over the vector's bytes, not a copy (Query 1's CHARINDEX filter
// boxes every selected cell).
func TestStringValueDoesNotAllocate(t *testing.T) {
	v := textColumn(64)
	var sink sqltypes.Value
	allocs := testing.AllocsPerRun(100, func() {
		for i := range v.Len() {
			sink, _ = v.Value(i)
		}
	})
	if allocs != 0 {
		t.Errorf("Value on a flat STRING vector: %.1f allocations a run of 64 cells, want 0", allocs)
	}
	if sink.S != "ACGTACGTACGTACGTACGTACGTACGTAC000063" {
		t.Errorf("last cell = %q", sink.S)
	}
}
