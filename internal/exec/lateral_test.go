package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// rowFunc is a TableFunc for tests: expand gives an outer row's inner rows
// from its argument values, and they leave in boxed batches of up to size
// rows (vec.DefaultBatchSize if 0), an outer row's rows straddling batches.
// Rows skip accepts stay out of their batch's selection. Close returns
// closeErr.
type rowFunc struct {
	width    int
	size     int
	expand   func(args sqltypes.Row) ([]sqltypes.Row, error)
	skip     func(row sqltypes.Row) bool
	closeErr error
}

func (f *rowFunc) Open(_ *Context, args []*vec.Vector, sel []int, needed []bool) (TableIterator, error) {
	return &rowFuncIter{f: f, args: args, sel: sel, needed: needed}, nil
}

type rowFuncIter struct {
	f      *rowFunc
	args   []*vec.Vector
	sel    []int
	needed []bool
	k      int // rows holds what is left of outer row sel[k-1]
	rows   []sqltypes.Row
	outer  []int
}

func (it *rowFuncIter) NextBatch() (*vec.Batch, error) {
	size := it.f.size
	if size == 0 {
		size = vec.DefaultBatchSize
	}
	cols := make([]*vec.Vector, it.f.width)
	for c := range cols {
		cols[c] = NullColumn
		if it.needed == nil || (c < len(it.needed) && it.needed[c]) {
			cols[c] = vec.NewVector(sqltypes.KindNull, size)
		}
	}
	it.outer = it.outer[:0]
	sel := []int{}
	for len(it.outer) < size {
		if len(it.rows) == 0 {
			if it.k == len(it.sel) {
				break
			}
			args := make(sqltypes.Row, len(it.args))
			for i, a := range it.args {
				v, err := a.Value(it.sel[it.k])
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			rows, err := it.f.expand(args)
			if err != nil {
				return nil, err
			}
			it.rows, it.k = rows, it.k+1
			continue
		}
		row := it.rows[0]
		it.rows = it.rows[1:]
		for c, v := range row {
			if cols[c] != NullColumn {
				cols[c].Append(v)
			}
		}
		if it.f.skip == nil || !it.f.skip(row) {
			sel = append(sel, len(it.outer))
		}
		it.outer = append(it.outer, it.sel[it.k-1])
	}
	if len(it.outer) == 0 {
		return nil, nil
	}
	return &vec.Batch{Cols: cols, Sel: sel}, nil
}

func (it *rowFuncIter) Outer() []int { return it.outer }
func (it *rowFuncIter) Close() error { return it.f.closeErr }

// lateralOracle is CROSS APPLY a row at a time: every selected outer row,
// in order, followed by each of its inner rows that skip leaves.
func lateralOracle(t *testing.T, batches []*vec.Batch, args []expr.Expr, f *rowFunc) []sqltypes.Row {
	t.Helper()
	var out []sqltypes.Row
	for _, b := range batches {
		for _, s := range b.Sel {
			outer, err := b.ReadRow(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			argv := make(sqltypes.Row, len(args))
			for i, a := range args {
				if argv[i], err = a.Eval(outer); err != nil {
					t.Fatal(err)
				}
			}
			inner, err := f.expand(argv)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range inner {
				if f.skip == nil || !f.skip(in) {
					out = append(out, append(outer.Clone(), in...))
				}
			}
		}
	}
	return out
}

// FuzzLateralMatchesApply holds the lateral Apply kernel to CROSS APPLY a
// row at a time: random outer batches (flat, dictionary, lazy and boxed
// columns, batch sizes 1 to 1024, thinned selections), NULL arguments,
// inner batches of 1 to 1024 rows with outer rows straddling them and rows
// left out of their selection, and pruned outputs. A pruned column must
// read NULL or its value; every other must match.
func FuzzLateralMatchesApply(f *testing.F) {
	f.Add([]byte{0, 40, 3, 1, 0, 0x00, 1})
	f.Add([]byte{1, 200, 7, 2, 4, 0x3f, 9})
	f.Add([]byte{3, 120, 1, 0, 2, 0x15, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		rng := rand.New(rand.NewSource(int64(at(6))))
		forms := []colForm{formFlat, formDict, formLazy, formGeneric}
		sizes := []int{1, 2, 3, 7, 64, 1024}
		// Outer rows (n INT, s VARCHAR, id INT); n and s are sometimes NULL.
		rows := make([]sqltypes.Row, at(1))
		for i := range rows {
			n, s := i64(int64(rng.Intn(5))), str(fmt.Sprintf("s%d", rng.Intn(9)))
			if rng.Intn(5) == 0 {
				n = sqltypes.Null
			}
			if rng.Intn(6) == 0 {
				s = sqltypes.Null
			}
			rows[i] = sqltypes.Row{n, s, i64(int64(i))}
		}
		var batches []*vec.Batch
		if len(rows) > 0 {
			batches = batchesOf(t, rows, []colForm{forms[at(0)%4], forms[at(2)%4], forms[at(3)%4]}, sizes[at(4)%len(sizes)])
		}
		for _, b := range batches {
			if at(5)&0x20 != 0 { // thin the selection
				b.Sel = thinSel(rng, b.Sel)
			}
		}
		// Inner rows of (n, s): n rows (i, s, n*10+i); every third left out
		// of its batch's selection when byte 5 says so.
		fn := &rowFunc{width: 3, size: sizes[at(2)%len(sizes)], expand: func(args sqltypes.Row) ([]sqltypes.Row, error) {
			if args[0].IsNull() {
				return nil, nil
			}
			out := make([]sqltypes.Row, args[0].I)
			for i := range out {
				out[i] = sqltypes.Row{i64(int64(i)), args[1], i64(args[0].I*10 + int64(i))}
			}
			return out, nil
		}}
		if at(5)&0x10 != 0 {
			fn.skip = func(row sqltypes.Row) bool { return row[0].I%3 == 2 }
		}
		args := []expr.Expr{col(0), col(1)}
		var needed []bool
		if m := at(5); m&0x08 != 0 {
			needed = []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&1 == 0, m&2 == 0, m&4 == 0}
		}
		op := &Apply{Child: batchSources(t, batches, 1)[0], Args: args, Func: fn, OuterWidth: 3}
		op.PruneColumns(needed)
		if err := op.Open(&Context{}); err != nil {
			t.Fatal(err)
		}
		got, err := Drain(op)
		if cerr := op.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		// After the run: reading the oracle's rows decodes lazy columns.
		want := lateralOracle(t, batches, args, fn)
		if len(got) != len(want) {
			t.Fatalf("%v: %d rows, want %d", data, len(got), len(want))
		}
		for i := range want {
			for c := range want[i] {
				if needed != nil && !needed[c] {
					got[i][c], want[i][c] = sqltypes.Null, sqltypes.Null
				}
			}
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%v: row %d = %v, want %v", data, i, got[i], want[i])
			}
		}
	})
}

// thinSel keeps about two thirds of sel, in order.
func thinSel(rng *rand.Rand, sel []int) []int {
	kept := sel[:0]
	for _, s := range sel {
		if rng.Intn(3) != 0 {
			kept = append(kept, s)
		}
	}
	return kept
}
