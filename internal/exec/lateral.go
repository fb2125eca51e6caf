package exec

import (
	"repro/internal/expr"
	"repro/internal/vec"
)

// TableFunc is a table-valued function: the paper's pull-model extension
// (Section 4.1), a set at a time. Open expands a batch of outer rows at
// once — args are its argument vectors, sel the outer rows to expand, in
// order — and is told which of its output columns are read (needed, as
// PruneColumns says it; nil = all). A FROM-clause call is one outer row of
// constants; CROSS APPLY hands it each outer batch.
type TableFunc interface {
	Open(ctx *Context, args []*vec.Vector, sel []int, needed []bool) (TableIterator, error)
}

// TableIterator streams a TableFunc's output. NextBatch returns batches of
// its output columns (NullColumn, or any vector, where needed is unset)
// under the batch contract; Outer then says, for every physical row of the
// last batch, the outer row (a position in args) it expands. The outer rows
// come in sel order, each one's inner rows in their own order. A FROM-clause
// leaf reads a TableIterator as the BatchIterator it is and ignores Outer.
type TableIterator interface {
	BatchIterator
	Outer() []int
}

// Apply implements CROSS APPLY as a lateral batch kernel: for each outer
// batch it evaluates the argument expressions as vectors, opens Func once
// over the batch's selection, and joins every inner batch to the outer rows
// it came from by gathering the outer columns the consumer reads — the
// paper's PivotAlignment in Query 3, a batch of alignments at a time.
// Output rows are the outer columns followed by the inner ones, in outer
// order.
type Apply struct {
	Child Operator
	Args  []expr.Expr // over the outer row
	Func  TableFunc
	// OuterWidth is the column count of the outer rows: where the inner
	// columns start.
	OuterWidth int

	needed []bool // output columns the consumer reads; nil = all
	ctx    *Context
	proj   *expr.Projection
	outer  *vec.Batch // the batch inner expands
	inner  TableIterator
}

// PruneColumns keeps the marked columns, asks the outer child for the
// marked outer ones plus those the arguments read, and tells Func which of
// its columns are read.
func (a *Apply) PruneColumns(needed []bool) {
	a.needed = needed
	if needed == nil {
		a.Child.PruneColumns(nil)
		return
	}
	outer := make([]bool, a.OuterWidth)
	copy(outer, needed)
	a.Child.PruneColumns(withExprColumns(outer, a.Args...))
}

// Open opens the outer child.
func (a *Apply) Open(ctx *Context) error {
	a.ctx, a.outer, a.inner = ctx, nil, nil
	a.proj = expr.CompileProjection(a.Args)
	return a.Child.Open(ctx)
}

// NextBatch returns the next inner batch with its outer columns, opening
// Func over the next outer batch when the current one is expanded.
func (a *Apply) NextBatch() (*vec.Batch, error) {
	for {
		if a.inner != nil {
			b, err := a.inner.NextBatch()
			if err != nil {
				return nil, err
			}
			if b != nil {
				if b.Len() == 0 {
					continue
				}
				return a.lateral(b, a.inner.Outer())
			}
			err = a.inner.Close()
			a.inner = nil
			if err != nil {
				return nil, err
			}
		}
		ob, err := a.Child.NextBatch()
		if err != nil || ob == nil {
			return nil, err
		}
		if ob.Len() == 0 {
			continue
		}
		args, err := a.proj.Eval(ob)
		if err != nil {
			return nil, err
		}
		var innerNeeded []bool
		if a.needed != nil {
			innerNeeded = a.needed[min(a.OuterWidth, len(a.needed)):]
		}
		if a.inner, err = a.Func.Open(a.ctx, args, ob.Sel, innerNeeded); err != nil {
			return nil, err
		}
		a.outer = ob
	}
}

// lateral puts the outer columns in front of inner batch b: each read one
// gathered at outer, the others NullColumn.
func (a *Apply) lateral(b *vec.Batch, outer []int) (*vec.Batch, error) {
	cols := make([]*vec.Vector, a.OuterWidth+len(b.Cols))
	for c := 0; c < a.OuterWidth; c++ {
		if !Reads(a.needed, c) {
			cols[c] = NullColumn
			continue
		}
		g, err := a.outer.Cols[c].Gather(outer)
		if err != nil {
			return nil, err
		}
		cols[c] = g
	}
	copy(cols[a.OuterWidth:], b.Cols)
	b.Cols = cols // the batch is ours
	return b, nil
}

// Close closes any open inner iterator and the outer child, returning the
// first error.
func (a *Apply) Close() error {
	var err error
	if a.inner != nil {
		err = a.inner.Close()
		a.inner = nil
	}
	if cerr := a.Child.Close(); err == nil {
		err = cerr
	}
	a.outer = nil
	return err
}
