package exec

import (
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// pruneSpy is an input that records the columns it was asked for.
type pruneSpy struct {
	Operator
	got []bool
}

func (p *pruneSpy) PruneColumns(needed []bool) { p.got = needed }

// TestJoinsForwardColumnPruning: every join maps the needed output
// columns (left row, then right row) back to its inputs, adds each
// side's own key columns, and reaches inputs behind an Instrument; a
// join built without LeftWidth prunes nothing.
func TestJoinsForwardColumnPruning(t *testing.T) {
	leftKeys, rightKeys := []expr.Expr{col(0)}, []expr.Expr{col(1)}
	needed := []bool{false, true, false /* right: */, false, false}
	wantLeft, wantRight := []bool{true, true, false}, []bool{false, true}
	prof := &obs.OpProfile{}
	for name, build := range map[string]func(l, r Operator, width int) Operator{
		"merge": func(l, r Operator, w int) Operator {
			return &MergeJoin{LeftKeys: leftKeys, RightKeys: rightKeys, Left: l, Right: r, LeftWidth: w}
		},
		"partitioned": func(l, r Operator, w int) Operator {
			return &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys, Left: l, Right: r, LeftWidth: w}
		},
		"partitioned-parts": func(l, r Operator, w int) Operator {
			return &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys,
				LeftParts: []Operator{l}, RightParts: []Operator{r}, LeftWidth: w}
		},
		"instrumented": func(l, r Operator, w int) Operator {
			j := &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys,
				Left: InstrumentOp(l, prof), Right: InstrumentOp(r, prof), LeftWidth: w}
			return InstrumentOp(j, prof)
		},
	} {
		l, r := &pruneSpy{Operator: NewValues(nil)}, &pruneSpy{Operator: NewValues(nil)}
		build(l, r, 3).PruneColumns(needed)
		if !reflect.DeepEqual(l.got, wantLeft) || !reflect.DeepEqual(r.got, wantRight) {
			t.Errorf("%s: left pruned to %v, right to %v; want %v and %v", name, l.got, r.got, wantLeft, wantRight)
		}
		l, r = &pruneSpy{Operator: NewValues(nil)}, &pruneSpy{Operator: NewValues(nil)}
		build(l, r, 0).PruneColumns(needed)
		if l.got != nil || r.got != nil {
			t.Errorf("%s without LeftWidth: pruned to %v and %v", name, l.got, r.got)
		}
	}
	if needed[0] || needed[3] {
		t.Error("pruning wrote into the caller's needed slice")
	}
}

// TestOperatorsForwardColumnPruning: the one downward call. Each operator
// passes on the columns its consumer marked plus the ones its own
// expressions read (column 2 here); an operator that reads every input
// column, or cannot know which, stops the call. A nil call (all columns, as
// the result boundary makes it) passes through as nil, except that a
// projection turns it into the columns its expressions read.
func TestOperatorsForwardColumnPruning(t *testing.T) {
	needed := []bool{false, true, false, false}
	same, plusOwn := needed, []bool{false, true, true, false}
	order := []SortKey{{Col: 2}}
	for name, c := range map[string]struct {
		build func(child Operator) Operator
		want  []bool
	}{
		"Filter": {func(c Operator) Operator {
			return &Filter{Pred: &expr.Cmp{Op: expr.CmpEq, L: col(2), R: lit(i64(1))}, Child: c}
		}, plusOwn},
		"Limit":      {func(c Operator) Operator { return &Limit{N: 1, Child: c} }, same},
		"Gather":     {func(c Operator) Operator { return &Gather{Children: []Operator{c}} }, same},
		"Instrument": {func(c Operator) Operator { return InstrumentOp(c, &obs.OpProfile{}) }, same},
		"TopN":       {func(c Operator) Operator { return &TopN{N: 1, Keys: order, Child: c} }, plusOwn},
		"Sort":       {func(c Operator) Operator { return &Sort{Keys: order, Child: c} }, plusOwn},
		"MergeSorted": {func(c Operator) Operator {
			return &MergeSorted{Keys: order, Children: []*Sort{{Keys: order, Child: c}}}
		}, plusOwn},
		// ROW_NUMBER's output is its input plus the number: five columns.
		"RowNumber": {func(c Operator) Operator { return &RowNumber{Child: &Sort{Keys: order, Child: c}} }, plusOwn},
		// A projection maps its marked outputs back to the inputs they read...
		"Project": {func(c Operator) Operator {
			return &Project{Exprs: []expr.Expr{col(3), &expr.Arith{Op: expr.OpAdd, L: col(1), R: col(2)}, col(0)}, Child: c, InputWidth: 4}
		}, plusOwn},
		// ...and stops the call when it was not told how wide they are.
		"Project/unsized": {func(c Operator) Operator { return &Project{Exprs: []expr.Expr{col(3)}, Child: c} }, nil},
		// The apply's output is its outer rows, then its function's.
		"Apply": {func(c Operator) Operator {
			return &Apply{Child: c, Args: []expr.Expr{col(2)}, Func: &rowFunc{width: 1}, OuterWidth: 4}
		}, plusOwn},
		"StreamAggregate": {func(c Operator) Operator {
			return &StreamAggregate{GroupBy: []expr.Expr{col(2)}, Child: c}
		}, nil},
		"SpillableAggregate": {func(c Operator) Operator {
			return &SpillableAggregate{GroupBy: []expr.Expr{col(2)}, Child: c}
		}, nil},
	} {
		spy := &pruneSpy{Operator: NewValues(nil)}
		asked := needed
		if name == "RowNumber" {
			asked = append(append([]bool(nil), needed...), true)
		}
		c.build(spy).PruneColumns(asked)
		if !reflect.DeepEqual(spy.got, c.want) {
			t.Errorf("%s asked its child for %v, want %v", name, spy.got, c.want)
		}
	}
	if needed[2] {
		t.Error("pruning wrote into the caller's needed slice")
	}
	spy := &pruneSpy{Operator: NewValues(nil)}
	root := &Project{Exprs: []expr.Expr{col(1)}, InputWidth: 3,
		Child: &Limit{N: 1, Child: &Filter{Pred: &expr.Cmp{Op: expr.CmpEq, L: col(2), R: lit(i64(1))}, Child: spy}}}
	if _, err := Run(&Context{}, root); err != nil || !reflect.DeepEqual(spy.got, []bool{false, true, true}) {
		t.Errorf("Run asked the leaf for %v (%v), want columns 1 and 2", spy.got, err)
	}
}

// TestPrunedSourcePacksOnlyMarkedColumns: a row source copies the marked
// columns into its batches and stands the shared NullColumn in for the
// rest; a cursor reading the batch sees NULL there.
func TestPrunedSourcePacksOnlyMarkedColumns(t *testing.T) {
	src := NewValues(rowsOf([]sqltypes.Value{i64(7), str("dropped")}, []sqltypes.Value{i64(8), str("dropped")}))
	src.PruneColumns([]bool{true, false})
	if err := src.Open(&Context{}); err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	b, err := src.NextBatch()
	if err != nil || b == nil || b.Len() != 2 {
		t.Fatal(b, err)
	}
	if b.Cols[0] == NullColumn || b.Cols[1] != NullColumn {
		t.Errorf("columns packed: %v", []bool{b.Cols[0] != NullColumn, b.Cols[1] != NullColumn})
	}
	if row, err := b.ReadRow(1, nil); err != nil || row[0].I != 8 || !row[1].IsNull() {
		t.Errorf("row 1 = %v, %v", row, err)
	}
}
