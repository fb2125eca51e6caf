package exec

import (
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// pruneSpy is a join input that records the columns it was asked for.
type pruneSpy struct {
	Operator
	got []bool
}

func (p *pruneSpy) PruneColumns(needed []bool) { p.got = needed }

// TestJoinsForwardColumnPruning: every join maps the needed output
// columns (left row, then right row) back to its inputs, adds each
// side's own key columns, and reaches inputs behind a row Instrument; a
// join built without LeftWidth prunes nothing.
func TestJoinsForwardColumnPruning(t *testing.T) {
	leftKeys, rightKeys := []expr.Expr{col(0)}, []expr.Expr{col(1)}
	needed := []bool{false, true, false /* right: */, false, false}
	wantLeft, wantRight := []bool{true, true, false}, []bool{false, true}
	prof := &obs.OpProfile{}
	for name, build := range map[string]func(l, r Operator, width int) ColumnPruner{
		"merge": func(l, r Operator, w int) ColumnPruner {
			return &MergeJoin{LeftKeys: leftKeys, RightKeys: rightKeys, Left: l, Right: r, LeftWidth: w}
		},
		"partitioned": func(l, r Operator, w int) ColumnPruner {
			return &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys, Left: l, Right: r, LeftWidth: w}
		},
		"partitioned-parts": func(l, r Operator, w int) ColumnPruner {
			return &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys,
				LeftParts: []Operator{l}, RightParts: []Operator{r}, LeftWidth: w}
		},
		"instrumented": func(l, r Operator, w int) ColumnPruner {
			j := &PartitionedHashJoin{LeftKeys: leftKeys, RightKeys: rightKeys,
				Left: InstrumentOp(l, prof), Right: InstrumentOp(r, prof), LeftWidth: w}
			return InstrumentOp(j, prof).(ColumnPruner)
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

// batchRows is a scan iterator with both interfaces; it counts which
// one served.
type batchRows struct {
	rowCalls, batchCalls int
	done                 bool
}

func (b *batchRows) Next() (sqltypes.Row, bool, error) {
	b.rowCalls++
	if b.done {
		return nil, false, nil
	}
	b.done = true
	return sqltypes.Row{i64(1), str("row path")}, true, nil
}

func (b *batchRows) NextBatch() (*vec.Batch, error) {
	b.batchCalls++
	if b.done {
		return nil, nil
	}
	b.done = true
	ids, tags := vec.NewVector(sqltypes.KindInt, 1), vec.NewVector(sqltypes.KindString, 1)
	ids.Append(i64(1))
	tags.Append(str("batch path"))
	return vec.NewBatch([]*vec.Vector{ids, tags}, 1), nil
}

func (b *batchRows) Close() error { return nil }

// TestPrunedSourceServesRowsFromBatches: Next on an unpruned source uses
// the iterator's row interface; once pruned, a batch-capable iterator
// serves the rows through its batches with unneeded cells NULL, and an
// iterator without batches keeps its row interface.
func TestPrunedSourceServesRowsFromBatches(t *testing.T) {
	it := &batchRows{}
	src := &Source{Factory: func(*Context) (RowIterator, error) { return it, nil }}
	if got := run(t, src); len(got) != 1 || got[0][1].S != "row path" || it.batchCalls != 0 {
		t.Fatalf("unpruned source: rows %v after %d batch calls", got, it.batchCalls)
	}
	*it = batchRows{}
	src.PruneColumns([]bool{true, false})
	if got := run(t, src); len(got) != 1 || got[0][0].I != 1 || !got[0][1].IsNull() || it.rowCalls != 0 {
		t.Fatalf("pruned source: rows %v after %d row calls", got, it.rowCalls)
	}
	vals := NewValues(rowsOf([]sqltypes.Value{i64(7), str("kept")}))
	vals.PruneColumns([]bool{true, false})
	if got := run(t, vals); len(got) != 1 || got[0][1].S != "kept" {
		t.Fatalf("pruned row-only source: %v", got)
	}
}
