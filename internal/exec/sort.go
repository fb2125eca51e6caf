package exec

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// SortKey is one ORDER BY term.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// sortKeyExprs lists the key expressions of the sort terms.
func sortKeyExprs(keys []SortKey) []expr.Expr {
	exprs := make([]expr.Expr, len(keys))
	for i, k := range keys {
		exprs[i] = k.Expr
	}
	return exprs
}

// compareKeyRows orders two precomputed key rows under the sort terms:
// negative when a sorts before b.
func compareKeyRows(a, b sqltypes.Row, by []SortKey) int {
	for i := range by {
		c := sqltypes.Compare(a[i], b[i])
		if c == 0 {
			continue
		}
		if by[i].Desc {
			return -c
		}
		return c
	}
	return 0
}

// rowSorter stably sorts rows and their precomputed keys in place — no
// permutation scratch slices, so repeated sorts (TopN's lazy trim, run
// spilling) allocate nothing per call. Holders embed one and reuse it.
type rowSorter struct {
	rows, keys []sqltypes.Row
	by         []SortKey
}

func (s *rowSorter) Len() int { return len(s.rows) }
func (s *rowSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
func (s *rowSorter) Less(i, j int) bool {
	return compareKeyRows(s.keys[i], s.keys[j], s.by) < 0
}

// sortStable sorts rows (stably) by their keys, permuting both in place.
func (s *rowSorter) sortStable(rows, keys []sqltypes.Row, by []SortKey) {
	s.rows, s.keys, s.by = rows, keys, by
	sort.Stable(s)
	s.rows, s.keys = nil, nil // don't pin the slices between sorts
}

// sortRows sorts rows (stably) by their precomputed keys, keeping the
// keys aligned so callers can keep using them.
func sortRows(rows, keys []sqltypes.Row, by []SortKey) {
	var s rowSorter
	s.sortStable(rows, keys, by)
}

// Sort emits its input ordered by the keys. It is an external merge
// sort: rows buffer up to MemoryBudget, overflowing spans spill as
// stably-sorted runs through Spill, and the output streams either the
// in-memory buffer or a loser-tree merge of the runs. Equal keys stay in
// input order even when runs spill (merge ties break by run index). It
// works a row at a time inside: the child is read through a RowCursor and
// the sorted rows leave through a rowPacker.
type Sort struct {
	Keys  []SortKey
	Child Operator
	// MemoryBudget caps the bytes of buffered rows (0 = unlimited);
	// exceeding it spills sorted runs through Spill.
	MemoryBudget int64
	// Spill creates temp run files. Required only when MemoryBudget can
	// be exceeded.
	Spill SpillStore

	sorter *extSorter
	it     RowIterator
	needed []bool // child columns the consumer or the keys read; nil = all
	out    rowPacker
}

// Open drains and sorts the child, spilling runs past the budget.
func (s *Sort) Open(ctx *Context) (err error) {
	s.out.reset()
	s.sorter, s.it, err = sortChild(ctx, s.Child, s.needed, s.Keys, s.MemoryBudget, s.Spill)
	return err
}

// sortChild opens child, feeds its rows to an external sorter and closes
// it again: the blocking phase of Sort and RowNumber. Callers do not Close
// an operator whose Open failed, so the error paths release any spilled
// runs here.
func sortChild(ctx *Context, child Operator, needed []bool, keys []SortKey, budget int64, spill SpillStore) (*extSorter, RowIterator, error) {
	if err := child.Open(ctx); err != nil {
		return nil, nil, err
	}
	defer child.Close()
	es := newExtSorter(keys, budget, spill, ctx.Sink)
	in := RowCursor{Op: child, needed: needed}
	for {
		row, ok, err := in.Next()
		if err == nil && ok {
			err = es.Add(row)
		}
		if err != nil {
			es.Release()
			return nil, nil, err
		}
		if !ok {
			break
		}
	}
	it, err := es.Finish()
	if err != nil {
		es.Release()
		return nil, nil, err
	}
	return es, it, nil
}

// NextBatch packs the next sorted rows.
func (s *Sort) NextBatch() (*vec.Batch, error) { return s.out.next(s.next) }

func (s *Sort) next() (sqltypes.Row, bool, error) {
	if s.it == nil {
		return nil, false, nil
	}
	return s.it.Next()
}

// nextKeyed is the sorted stream with its precomputed sort keys: both
// shapes (in-memory buffer and loser-tree merge) carry them, so a merge
// exchange above per-partition sorts reuses them for free.
func (s *Sort) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	if s.it == nil {
		return nil, nil, false, nil
	}
	return s.it.(keyedSource).nextKeyed()
}

// sortedBuffers hands the fully in-memory sorted result (rows plus
// keys) to a merge exchange, which then merges arrays in tight loops
// instead of streaming row-at-a-time. Returns ok=false when runs
// spilled (the result must stream through the loser tree) or the sort
// is not open.
func (s *Sort) sortedBuffers() (rows, keys []sqltypes.Row, ok bool) {
	it, isMem := s.it.(*keyedSliceIterator)
	if !isMem || it.pos != 0 {
		return nil, nil, false
	}
	return it.rows, it.keys, true
}

// PruneColumns reads, keeps and emits only the marked columns and the keys'.
func (s *Sort) PruneColumns(needed []bool) {
	s.needed = withExprColumns(needed, sortKeyExprs(s.Keys)...)
	s.out.needed = needed
	s.Child.PruneColumns(s.needed)
}

// Close releases the buffered rows and any spilled runs.
func (s *Sort) Close() error {
	if s.it != nil {
		s.it.Close() // a slice or a run merge: flushes a counter, cannot fail
		s.it = nil
	}
	if s.sorter != nil {
		s.sorter.Release()
		s.sorter = nil
	}
	return nil
}

// RowNumber implements ROW_NUMBER() OVER (ORDER BY ...): it orders its
// input by the window ordering and appends the 1-based row number as an
// extra trailing column (projections then place it wherever the SELECT
// list wants it). This is the paper's Query 1 ranking construct. The
// sort is external (same budget/spill machinery as Sort); when the
// planner already ordered the input (per-partition sorts under a
// MergeSorted exchange) InputSorted skips the sort and the operator
// streams, numbering rows as they arrive. Row-internal, like Sort.
type RowNumber struct {
	OrderBy      []SortKey
	Child        Operator
	MemoryBudget int64
	Spill        SpillStore
	InputSorted  bool

	sorter *extSorter
	it     RowIterator // the sorted rows...
	in     RowCursor   // ...or the ordered child, open while in.Op is set
	needed []bool      // child columns the consumer or the ordering read; nil = all
	n      int64
	row    sqltypes.Row
	out    rowPacker
}

// Open materializes and sorts (or, for pre-sorted input, just opens).
func (r *RowNumber) Open(ctx *Context) (err error) {
	r.n = 0
	r.out.reset()
	if !r.InputSorted {
		r.sorter, r.it, err = sortChild(ctx, r.Child, r.needed, r.OrderBy, r.MemoryBudget, r.Spill)
		return err
	}
	if err := r.Child.Open(ctx); err != nil {
		return err
	}
	r.in = RowCursor{Op: r.Child, needed: r.needed}
	return nil
}

// next emits the next row with its number appended.
func (r *RowNumber) next() (row sqltypes.Row, ok bool, err error) {
	switch {
	case r.in.Op != nil:
		row, ok, err = r.in.Next()
	case r.it != nil:
		row, ok, err = r.it.Next()
	}
	if err != nil || !ok {
		return nil, false, err
	}
	r.n++
	r.row = append(append(r.row[:0], row...), sqltypes.NewInt(r.n))
	return r.row, true, nil
}

// NextBatch packs the next numbered rows.
func (r *RowNumber) NextBatch() (*vec.Batch, error) { return r.out.next(r.next) }

// PruneColumns reads the marked input columns and the ordering's; the
// number is the last output column.
func (r *RowNumber) PruneColumns(needed []bool) {
	r.out.needed = needed
	if len(needed) > 0 {
		r.needed = withExprColumns(needed[:len(needed)-1], sortKeyExprs(r.OrderBy)...)
	}
	r.Child.PruneColumns(r.needed)
}

// Close releases buffered rows, runs, and the streaming child.
func (r *RowNumber) Close() error {
	if r.it != nil {
		r.it.Close() // as in Sort.Close
		r.it = nil
	}
	if r.sorter != nil {
		r.sorter.Release()
		r.sorter = nil
	}
	if r.in.Op != nil {
		r.in.Op = nil
		return r.Child.Close()
	}
	return nil
}
