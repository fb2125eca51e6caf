package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

func i64(v int64) sqltypes.Value     { return sqltypes.NewInt(v) }
func str(s string) sqltypes.Value    { return sqltypes.NewString(s) }
func lit(v sqltypes.Value) expr.Expr { return &expr.Lit{V: v} }
func col(i int) expr.Expr            { return &expr.Col{Idx: i} }

func rowsOf(vals ...[]sqltypes.Value) []sqltypes.Row {
	out := make([]sqltypes.Row, len(vals))
	for i, v := range vals {
		out[i] = sqltypes.Row(v)
	}
	return out
}

// NewValues returns an operator yielding the given rows.
func NewValues(rows []sqltypes.Row) *Source {
	return &Source{Factory: func(*Context) (RowIterator, error) { return &SliceIterator{Rows: rows}, nil }}
}

func run(t *testing.T, op Operator) []sqltypes.Row {
	t.Helper()
	rows, err := Run(&Context{DOP: 2}, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestValuesFilterProject(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{i64(1), str("a")},
		[]sqltypes.Value{i64(2), str("b")},
		[]sqltypes.Value{i64(3), str("c")},
	))
	op := &Project{
		Exprs: []expr.Expr{col(1), &expr.Arith{Op: expr.OpMul, L: col(0), R: lit(i64(10))}},
		Child: &Filter{
			Pred:  &expr.Cmp{Op: expr.CmpGt, L: col(0), R: lit(i64(1))},
			Child: src,
		},
	}
	rows := run(t, op)
	want := rowsOf(
		[]sqltypes.Value{str("b"), i64(20)},
		[]sqltypes.Value{str("c"), i64(30)},
	)
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("got %v, want %v", rows, want)
	}
}

func TestFilterNullFails(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{sqltypes.Null},
		[]sqltypes.Value{i64(5)},
	))
	op := &Filter{
		Pred:  &expr.Cmp{Op: expr.CmpEq, L: col(0), R: lit(i64(5))},
		Child: src,
	}
	rows := run(t, op)
	if len(rows) != 1 || rows[0][0].I != 5 {
		t.Errorf("NULL predicate row passed filter: %v", rows)
	}
}

// countRows is n one-column rows 0..n-1.
func countRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{i64(int64(i))}
	}
	return rows
}

// TestLimit: the first N rows in input order, whether N falls inside a
// batch, on a batch boundary, past the input or at zero; after the limit
// no further batch is pulled.
func TestLimit(t *testing.T) {
	const size = vec.DefaultBatchSize
	input := countRows(2*size + 10)
	for _, n := range []int{0, 2, size - 1, size, size + 1, 2 * size, len(input), len(input) + 5} {
		src := &countBatches{Operator: NewValues(input)}
		rows := run(t, &Limit{N: int64(n), Child: src})
		if want := min(n, len(input)); len(rows) != want {
			t.Fatalf("TOP %d kept %d rows, want %d", n, len(rows), want)
		}
		for i, r := range rows {
			if r[0].I != int64(i) {
				t.Fatalf("TOP %d: row %d = %v", n, i, r)
			}
		}
		if want := min((n+size-1)/size, 3); src.batches > want {
			t.Errorf("TOP %d pulled %d batches, want at most %d", n, src.batches, want)
		}
	}
	// A filter below may leave batches the limit must step over.
	odd := &Filter{Pred: &expr.Cmp{Op: expr.CmpEq, L: &expr.Arith{Op: expr.OpMod, L: col(0), R: lit(i64(2))}, R: lit(i64(1))}, Child: NewValues(input)}
	if rows := run(t, &Limit{N: 600, Child: odd}); len(rows) != 600 || rows[599][0].I != 1199 {
		t.Errorf("TOP 600 of the odd rows: %d rows ending %v", len(rows), rows[len(rows)-1])
	}
}

// countBatches counts the non-nil batches pulled through it.
type countBatches struct {
	Operator
	batches int
}

func (c *countBatches) NextBatch() (*vec.Batch, error) {
	b, err := c.Operator.NextBatch()
	if b != nil {
		c.batches++
	}
	return b, err
}

func TestHashAggregate(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{str("a"), i64(1)},
		[]sqltypes.Value{str("b"), i64(2)},
		[]sqltypes.Value{str("a"), i64(3)},
		[]sqltypes.Value{str("a"), sqltypes.Null},
	))
	op := &HashAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs: []AggSpec{
			{Name: "COUNT", Factory: BuiltinAggregate("count")},                            // COUNT(*)
			{Name: "COUNT", Factory: BuiltinAggregate("count"), Args: []expr.Expr{col(1)}}, // COUNT(x)
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}},
			{Name: "MIN", Factory: BuiltinAggregate("min"), Args: []expr.Expr{col(1)}},
			{Name: "MAX", Factory: BuiltinAggregate("max"), Args: []expr.Expr{col(1)}},
			{Name: "AVG", Factory: BuiltinAggregate("avg"), Args: []expr.Expr{col(1)}},
		},
		Child: src,
	}
	rows := run(t, op)
	if len(rows) != 2 {
		t.Fatalf("%d groups", len(rows))
	}
	byGroup := map[string]sqltypes.Row{}
	for _, r := range rows {
		byGroup[r[0].S] = r
	}
	a := byGroup["a"]
	if a[1].I != 3 || a[2].I != 2 || a[3].I != 4 || a[4].I != 1 || a[5].I != 3 || a[6].F != 2 {
		t.Errorf("group a = %v", a)
	}
	b := byGroup["b"]
	if b[1].I != 1 || b[3].I != 2 {
		t.Errorf("group b = %v", b)
	}
}

func TestHashAggregateGlobalEmptyInput(t *testing.T) {
	op := &HashAggregate{
		Aggs:  []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child: NewValues(nil),
	}
	rows := run(t, op)
	if len(rows) != 1 || rows[0][0].I != 0 {
		t.Errorf("global count over empty = %v", rows)
	}
}

func TestStreamAggregateMatchesHash(t *testing.T) {
	// Sorted input: stream agg must equal hash agg results.
	var vals []sqltypes.Row
	for g := 0; g < 5; g++ {
		for i := 0; i < 10; i++ {
			vals = append(vals, sqltypes.Row{str(fmt.Sprintf("g%d", g)), i64(int64(i))})
		}
	}
	mk := func() []AggSpec {
		return []AggSpec{
			{Name: "COUNT", Factory: BuiltinAggregate("count")},
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}},
		}
	}
	sRows := run(t, &StreamAggregate{GroupBy: []expr.Expr{col(0)}, Aggs: mk(), Child: NewValues(vals)})
	hRows := run(t, &HashAggregate{GroupBy: []expr.Expr{col(0)}, Aggs: mk(), Child: NewValues(vals)})
	sortByFirst := func(rows []sqltypes.Row) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].S < rows[j][0].S })
	}
	sortByFirst(sRows)
	sortByFirst(hRows)
	if !reflect.DeepEqual(sRows, hRows) {
		t.Errorf("stream %v != hash %v", sRows, hRows)
	}
}

func TestStreamAggregateEmitsEagerly(t *testing.T) {
	// The stream aggregate must emit group g0 before consuming all of g1:
	// its first batch goes out after the input batch that completes g0.
	rows := rowsOf(
		[]sqltypes.Value{str("g0"), i64(1)},
		[]sqltypes.Value{str("g1"), i64(2)},
		[]sqltypes.Value{str("g1"), i64(3)},
		[]sqltypes.Value{str("g1"), i64(4)},
	)
	src := &countBatches{Operator: batchSources(t, batchesOf(t, rows, []colForm{formFlat, formFlat}, 2), 1)[0]}
	op := &StreamAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    []AggSpec{{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}}},
		Child:   src,
	}
	if err := op.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, err := op.NextBatch()
	if err != nil || first == nil {
		t.Fatal(first, err)
	}
	if row, _ := first.ReadRow(first.Sel[0], nil); first.Len() != 1 || row[0].S != "g0" || row[1].I != 1 || src.batches != 1 {
		t.Errorf("first batch = %d groups starting %v after %d input batches, want g0 alone after 1", first.Len(), row, src.batches)
	}
	second, _ := op.NextBatch()
	if row, _ := second.ReadRow(second.Sel[0], nil); second.Len() != 1 || row[0].S != "g1" || row[1].I != 9 {
		t.Errorf("second batch = %d groups starting %v", second.Len(), row)
	}
	if b, _ := op.NextBatch(); b != nil {
		t.Error("extra group")
	}
}

// TestParallelAggregateMatchesSerial: the two-phase SpillableAggregate
// (one partial per worker, AggState.Merge final pass) must equal the
// serial hash aggregate.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var all []sqltypes.Row
	var parts [2][]sqltypes.Row
	for i := 0; i < 2000; i++ {
		r := sqltypes.Row{str(fmt.Sprintf("g%d", rng.Intn(50))), i64(int64(rng.Intn(100)))}
		all = append(all, r)
		parts[i%2] = append(parts[i%2], r)
	}
	mk := func() []AggSpec {
		return []AggSpec{
			{Name: "COUNT", Factory: BuiltinAggregate("count")},
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}},
			{Name: "MAX", Factory: BuiltinAggregate("max"), Args: []expr.Expr{col(1)}},
		}
	}
	serial := run(t, &HashAggregate{GroupBy: []expr.Expr{col(0)}, Aggs: mk(), Child: NewValues(all)})
	parallel := run(t, &SpillableAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    mk(),
		Parts:   []Operator{NewValues(parts[0]), NewValues(parts[1])},
	})
	key := func(rows []sqltypes.Row) {
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].S < rows[j][0].S })
	}
	key(serial)
	key(parallel)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel aggregate differs from serial")
	}
}

func TestSortAscDescAndNulls(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{i64(3), str("c")},
		[]sqltypes.Value{sqltypes.Null, str("n")},
		[]sqltypes.Value{i64(1), str("a")},
		[]sqltypes.Value{i64(2), str("b")},
	))
	rows := run(t, &Sort{Keys: []SortKey{{Col: 0}}, Child: src})
	if !rows[0][0].IsNull() || rows[1][0].I != 1 || rows[3][0].I != 3 {
		t.Errorf("asc sort = %v", rows)
	}
	src2 := NewValues(rowsOf(
		[]sqltypes.Value{i64(1)}, []sqltypes.Value{i64(3)}, []sqltypes.Value{i64(2)},
	))
	rows2 := run(t, &Sort{Keys: []SortKey{{Col: 0, Desc: true}}, Child: src2})
	if rows2[0][0].I != 3 || rows2[2][0].I != 1 {
		t.Errorf("desc sort = %v", rows2)
	}
}

func TestSortStableMultiKey(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{str("b"), i64(1)},
		[]sqltypes.Value{str("a"), i64(2)},
		[]sqltypes.Value{str("a"), i64(1)},
		[]sqltypes.Value{str("b"), i64(0)},
	))
	rows := run(t, &Sort{
		Keys:  []SortKey{{Col: 0}, {Col: 1, Desc: true}},
		Child: src,
	})
	want := rowsOf(
		[]sqltypes.Value{str("a"), i64(2)},
		[]sqltypes.Value{str("a"), i64(1)},
		[]sqltypes.Value{str("b"), i64(1)},
		[]sqltypes.Value{str("b"), i64(0)},
	)
	if !reflect.DeepEqual(rows, want) {
		t.Errorf("multikey sort = %v", rows)
	}
}

func TestRowNumber(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{str("low"), i64(1)},
		[]sqltypes.Value{str("high"), i64(9)},
		[]sqltypes.Value{str("mid"), i64(5)},
	))
	rows := run(t, &RowNumber{Child: &Sort{Keys: []SortKey{{Col: 1, Desc: true}}, Child: src}})
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].S != "high" || rows[0][2].I != 1 {
		t.Errorf("first = %v", rows[0])
	}
	if rows[2][0].S != "low" || rows[2][2].I != 3 {
		t.Errorf("last = %v", rows[2])
	}
}

func TestTopN(t *testing.T) {
	var vals []sqltypes.Row
	for i := 0; i < 100; i++ {
		vals = append(vals, sqltypes.Row{i64(int64((i * 37) % 100))})
	}
	rows := run(t, &TopN{N: 5, Keys: []SortKey{{Col: 0}}, Child: NewValues(vals)})
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Errorf("topn[%d] = %v", i, r)
		}
	}
}

// TestTopNEqualsSortThenLimit: over keys with many ties (the second column
// tells tied rows apart), TOP N is the stable Sort's first N rows — for
// N = 0, N inside the input, N past it, ascending and descending — and the
// planner's parallel shape (per-partition TopN, Gather, final TopN) over
// contiguous partitions returns the same rows as the serial one.
func TestTopNEqualsSortThenLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	input := make([]sqltypes.Row, 3000)
	for i := range input {
		input[i] = sqltypes.Row{i64(int64(rng.Intn(12))), i64(int64(i))}
	}
	for _, keys := range [][]SortKey{{{Col: 0}}, {{Col: 0, Desc: true}}} {
		sorted := run(t, &Sort{Keys: keys, Child: NewValues(input)})
		for _, n := range []int{0, 1, 7, 1500, len(input), len(input) + 9} {
			want := sorted[:min(n, len(input))]
			serial := run(t, &TopN{N: int64(n), Keys: keys, Child: NewValues(input)})
			if len(want) == 0 {
				want, serial = nil, append([]sqltypes.Row(nil), serial...)
			}
			if !reflect.DeepEqual(serial, want) {
				t.Fatalf("TOP %d (desc=%v) differs from Sort + first %d", n, keys[0].Desc, n)
			}
			parts := make([]Operator, 4)
			for p := range parts {
				lo, hi := len(input)*p/4, len(input)*(p+1)/4
				parts[p] = &TopN{N: int64(n), Keys: keys, Child: NewValues(input[lo:hi])}
			}
			// Ordered: partition order is input order, which ties fall back on.
			merged := run(t, &TopN{N: int64(n), Keys: keys, Child: &Gather{Children: parts, Ordered: true}})
			if len(merged) != len(serial) || (len(serial) > 0 && !reflect.DeepEqual(merged, serial)) {
				t.Fatalf("TOP %d (desc=%v): per-partition-then-merge differs from serial", n, keys[0].Desc)
			}
		}
	}
}

func TestHashJoin(t *testing.T) {
	left := NewValues(rowsOf(
		[]sqltypes.Value{i64(1), str("l1")},
		[]sqltypes.Value{i64(2), str("l2")},
		[]sqltypes.Value{i64(3), str("l3")},
		[]sqltypes.Value{sqltypes.Null, str("lnull")},
	))
	right := NewValues(rowsOf(
		[]sqltypes.Value{i64(2), str("r2a")},
		[]sqltypes.Value{i64(2), str("r2b")},
		[]sqltypes.Value{i64(3), str("r3")},
		[]sqltypes.Value{sqltypes.Null, str("rnull")},
		[]sqltypes.Value{i64(9), str("r9")},
	))
	rows := run(t, &PartitionedHashJoin{
		LeftKeys:  []expr.Expr{col(0)},
		RightKeys: []expr.Expr{col(0)},
		Left:      left,
		Right:     right,
	})
	if len(rows) != 3 {
		t.Fatalf("join produced %d rows: %v", len(rows), rows)
	}
	// NULL keys must not join.
	for _, r := range rows {
		if r[1].S == "lnull" || r[3].S == "rnull" {
			t.Errorf("NULL key joined: %v", r)
		}
	}
}

func TestMergeJoinMatchesHashJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var left, right []sqltypes.Row
	for i := 0; i < 500; i++ {
		left = append(left, sqltypes.Row{i64(int64(rng.Intn(100))), str(fmt.Sprintf("l%d", i))})
	}
	for i := 0; i < 700; i++ {
		right = append(right, sqltypes.Row{i64(int64(rng.Intn(100))), str(fmt.Sprintf("r%d", i))})
	}
	sortByKey := func(rows []sqltypes.Row) {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i][0].I < rows[j][0].I })
	}
	sortByKey(left)
	sortByKey(right)

	mergeRows := run(t, &MergeJoin{
		LeftKeys:  []expr.Expr{col(0)},
		RightKeys: []expr.Expr{col(0)},
		Left:      NewValues(left),
		Right:     NewValues(right),
	})
	hashRows := run(t, &PartitionedHashJoin{
		LeftKeys:  []expr.Expr{col(0)},
		RightKeys: []expr.Expr{col(0)},
		Left:      NewValues(left),
		Right:     NewValues(right),
	})
	if len(mergeRows) != len(hashRows) {
		t.Fatalf("merge %d rows, hash %d rows", len(mergeRows), len(hashRows))
	}
	canon := func(rows []sqltypes.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(canon(mergeRows), canon(hashRows)) {
		t.Error("merge join result set differs from hash join")
	}
}

func TestMergeJoinEmptySides(t *testing.T) {
	empty := NewValues(nil)
	one := NewValues(rowsOf([]sqltypes.Value{i64(1)}))
	if rows := run(t, &MergeJoin{
		LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
		Left: empty, Right: one,
	}); len(rows) != 0 {
		t.Errorf("empty left joined: %v", rows)
	}
	if rows := run(t, &MergeJoin{
		LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
		Left: NewValues(rowsOf([]sqltypes.Value{i64(1)})), Right: NewValues(nil),
	}); len(rows) != 0 {
		t.Errorf("empty right joined: %v", rows)
	}
}

func TestApply(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{i64(2)},
		[]sqltypes.Value{i64(0)},
		[]sqltypes.Value{i64(3)},
	))
	// Inner: yields n rows (0..n-1) for outer value n - like PivotAlignment
	// yielding one row per base.
	op := &Apply{
		Child: src, Args: []expr.Expr{col(0)}, OuterWidth: 1,
		Func: &rowFunc{width: 1, expand: func(args sqltypes.Row) ([]sqltypes.Row, error) {
			var rows []sqltypes.Row
			for i := int64(0); i < args[0].I; i++ {
				rows = append(rows, sqltypes.Row{i64(i)})
			}
			return rows, nil
		}},
	}
	rows := run(t, op)
	if len(rows) != 5 {
		t.Fatalf("apply produced %d rows", len(rows))
	}
	if rows[0][0].I != 2 || rows[0][1].I != 0 || rows[4][0].I != 3 || rows[4][1].I != 2 {
		t.Errorf("apply rows = %v", rows)
	}
}

// failingClose is a row iterator whose Close fails.
type failingClose struct{ SliceIterator }

func (*failingClose) Close() error { return fmt.Errorf("inner close") }

// TestApplyCloseReturnsInnerError: a consumer that stops in the middle of
// an inner stream (TOP over CROSS APPLY) closes the apply with the inner
// iterator still open; the iterator's Close error reaches the caller.
func TestApplyCloseReturnsInnerError(t *testing.T) {
	op := &Apply{
		Child: NewValues(countRows(1)), OuterWidth: 1,
		Func: &rowFunc{width: 1, closeErr: fmt.Errorf("inner close"), expand: func(sqltypes.Row) ([]sqltypes.Row, error) {
			return countRows(vec.DefaultBatchSize + 1), nil
		}},
	}
	if err := op.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	if b, err := op.NextBatch(); err != nil || b == nil || b.Len() != vec.DefaultBatchSize {
		t.Fatalf("first batch = %v, %v; want a full batch", b, err)
	}
	if err := op.Close(); err == nil || err.Error() != "inner close" {
		t.Fatalf("Close = %v, want the inner iterator's error", err)
	}
}

// TestGatherCloseReturnsChildError: each producer closes its chain when the
// chain ends or the consumer leaves; the first error such a Close returns
// reaches the caller through Gather.Close, ordered or not.
func TestGatherCloseReturnsChildError(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		failing := &Source{Factory: func(*Context) (RowIterator, error) {
			return &failingClose{SliceIterator{Rows: countRows(3)}}, nil
		}}
		g := &Gather{Children: []Operator{NewValues(countRows(5)), failing}, Ordered: ordered}
		if rows, err := Run(&Context{DOP: 2}, g); err == nil || err.Error() != "inner close" || len(rows) != 8 {
			t.Errorf("ordered=%v: Run = %d rows, %v; want all 8 and the chain's Close error", ordered, len(rows), err)
		}
	}
}

func TestGatherUnordered(t *testing.T) {
	parts := make([]Operator, 4)
	total := 0
	for i := range parts {
		var rows []sqltypes.Row
		for j := 0; j < 100; j++ {
			rows = append(rows, sqltypes.Row{i64(int64(i*1000 + j))})
			total++
		}
		parts[i] = NewValues(rows)
	}
	rows := run(t, &Gather{Children: parts})
	if len(rows) != total {
		t.Fatalf("gathered %d of %d", len(rows), total)
	}
	seen := map[int64]bool{}
	for _, r := range rows {
		seen[r[0].I] = true
	}
	if len(seen) != total {
		t.Error("duplicate or lost rows in gather")
	}
}

func TestGatherOrderedPreservesPartitionOrder(t *testing.T) {
	parts := []Operator{
		NewValues(rowsOf([]sqltypes.Value{i64(1)}, []sqltypes.Value{i64(2)})),
		NewValues(rowsOf([]sqltypes.Value{i64(3)}, []sqltypes.Value{i64(4)})),
		NewValues(nil),
		NewValues(rowsOf([]sqltypes.Value{i64(5)})),
	}
	rows := run(t, &Gather{Children: parts, Ordered: true})
	for i, r := range rows {
		if r[0].I != int64(i+1) {
			t.Fatalf("ordered gather[%d] = %v", i, r)
		}
	}
}

func TestGatherPropagatesError(t *testing.T) {
	bad := &Source{Factory: func(*Context) (RowIterator, error) {
		return nil, fmt.Errorf("boom")
	}}
	for _, ordered := range []bool{false, true} {
		op := &Gather{Children: []Operator{bad, NewValues(nil)}, Ordered: ordered}
		if _, err := Run(&Context{}, op); err == nil {
			t.Errorf("gather (ordered=%v) swallowed child error", ordered)
		}
	}
}

// failNthBatch fails its nth NextBatch.
type failNthBatch struct {
	Operator
	n int
}

func (f *failNthBatch) NextBatch() (*vec.Batch, error) {
	if f.n--; f.n < 0 {
		return nil, fmt.Errorf("late boom")
	}
	return f.Operator.NextBatch()
}

// TestGatherErrorFromLateChild: a child that fails after the others have
// long finished, several batches into its own stream, still fails the
// exchange, in both modes, and Close returns with every producer gone.
func TestGatherErrorFromLateChild(t *testing.T) {
	for _, ordered := range []bool{false, true} {
		late := &failNthBatch{Operator: NewValues(countRows(5 * vec.DefaultBatchSize)), n: 3}
		op := &Gather{Children: []Operator{NewValues(countRows(10)), NewValues(nil), late}, Ordered: ordered}
		rows, err := Run(&Context{}, op)
		if err == nil || err.Error() != "late boom" {
			t.Errorf("ordered=%v: %d rows and error %v, want the late child's", ordered, len(rows), err)
		}
	}
}

// TestGatherEarlyClose: closing an exchange before draining it must not
// deadlock producers that are blocked on a full buffer — each child here
// has more batches than the buffer holds — in either mode, with Close
// called twice.
func TestGatherEarlyClose(t *testing.T) {
	rows := countRows((gatherBuffer + 4) * vec.DefaultBatchSize)
	for _, ordered := range []bool{false, true} {
		op := &Gather{Children: []Operator{NewValues(rows), NewValues(rows), NewValues(rows)}, Ordered: ordered}
		if err := op.Open(&Context{}); err != nil {
			t.Fatal(err)
		}
		if b, err := op.NextBatch(); err != nil || b == nil {
			t.Fatal(b, err)
		}
		for len(op.out[len(op.out)-1]) < gatherBuffer { // the last producer has filled its buffer
			runtime.Gosched()
		}
		for i := 0; i < 2; i++ {
			if err := op.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
