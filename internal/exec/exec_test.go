package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
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

func TestLimit(t *testing.T) {
	src := NewValues(rowsOf(
		[]sqltypes.Value{i64(1)}, []sqltypes.Value{i64(2)}, []sqltypes.Value{i64(3)},
	))
	rows := run(t, &Limit{N: 2, Child: src})
	if len(rows) != 2 {
		t.Errorf("limit kept %d rows", len(rows))
	}
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
	// The stream aggregate must emit group g0 before consuming all of g1.
	rows := rowsOf(
		[]sqltypes.Value{str("g0"), i64(1)},
		[]sqltypes.Value{str("g1"), i64(2)},
		[]sqltypes.Value{str("g1"), i64(3)},
	)
	op := &StreamAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    []AggSpec{{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}}},
		Child:   NewValues(rows),
	}
	if err := op.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	first, ok, err := op.Next()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if first[0].S != "g0" || first[1].I != 1 {
		t.Errorf("first group = %v", first)
	}
	second, ok, _ := op.Next()
	if !ok || second[0].S != "g1" || second[1].I != 5 {
		t.Errorf("second group = %v", second)
	}
	if _, ok, _ := op.Next(); ok {
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
	rows := run(t, &Sort{Keys: []SortKey{{Expr: col(0)}}, Child: src})
	if !rows[0][0].IsNull() || rows[1][0].I != 1 || rows[3][0].I != 3 {
		t.Errorf("asc sort = %v", rows)
	}
	src2 := NewValues(rowsOf(
		[]sqltypes.Value{i64(1)}, []sqltypes.Value{i64(3)}, []sqltypes.Value{i64(2)},
	))
	rows2 := run(t, &Sort{Keys: []SortKey{{Expr: col(0), Desc: true}}, Child: src2})
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
		Keys:  []SortKey{{Expr: col(0)}, {Expr: col(1), Desc: true}},
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
	rows := run(t, &RowNumber{
		OrderBy: []SortKey{{Expr: col(1), Desc: true}},
		Child:   src,
	})
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
	rows := run(t, &TopN{N: 5, Keys: []SortKey{{Expr: col(0)}}, Child: NewValues(vals)})
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].I != int64(i) {
			t.Errorf("topn[%d] = %v", i, r)
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
		Child: src,
		Inner: func(ctx *Context, outer sqltypes.Row) (RowIterator, error) {
			n := outer[0].I
			var rows []sqltypes.Row
			for i := int64(0); i < n; i++ {
				rows = append(rows, sqltypes.Row{i64(i)})
			}
			return &SliceIterator{Rows: rows}, nil
		},
	}
	rows := run(t, op)
	if len(rows) != 5 {
		t.Fatalf("apply produced %d rows", len(rows))
	}
	if rows[0][0].I != 2 || rows[0][1].I != 0 || rows[4][0].I != 3 || rows[4][1].I != 2 {
		t.Errorf("apply rows = %v", rows)
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
	op := &Gather{Children: []Operator{bad, NewValues(nil)}}
	if _, err := Run(&Context{}, op); err == nil {
		t.Error("gather swallowed child error")
	}
}

func TestGatherEarlyClose(t *testing.T) {
	// Closing a gather before draining must not deadlock producers.
	var rows []sqltypes.Row
	for i := 0; i < 10_000; i++ {
		rows = append(rows, sqltypes.Row{i64(int64(i))})
	}
	op := &Gather{Children: []Operator{NewValues(rows), NewValues(rows)}}
	if err := op.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	op.Next()
	if err := op.Close(); err != nil {
		t.Fatal(err)
	}
}
