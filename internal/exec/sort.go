package exec

import (
	"sort"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The sort family. Sort is the one operator that orders rows: ORDER BY, the
// per-partition sorts under a MergeSorted exchange and CREATE INDEX's
// partition sorts are Sorts, ROW_NUMBER is a counter over one, and TopN
// keeps its N rows with the same kernel (runSorter). extsort.go holds the
// external sort behind Sort and the loser tree behind MergeSorted.

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

// runSorter is the sort kernel: rows with their precomputed keys, ordered
// by pdqsort (sort.Sort) with each row's sequence — its position when
// added — as the tie-break, which is the order of a stable sort at a
// fraction of sort.Stable's element moves. Sort's run buffer and TopN's
// kept rows are each one.
type runSorter struct {
	rows, keys []sqltypes.Row
	seqs       []int32
	by         []SortKey
}

func (s *runSorter) Len() int { return len(s.rows) }
func (s *runSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
}
func (s *runSorter) Less(i, j int) bool {
	if c := compareKeyRows(s.keys[i], s.keys[j], s.by); c != 0 {
		return c < 0
	}
	return s.seqs[i] < s.seqs[j]
}

// add appends a row and its key.
func (s *runSorter) add(row, key sqltypes.Row) {
	s.rows = append(s.rows, row)
	s.keys = append(s.keys, key)
	s.seqs = append(s.seqs, int32(len(s.seqs)))
}

// sort orders the rows, then renumbers the sequences by position, so rows
// added later still sort after the equal rows kept from before.
func (s *runSorter) sort() {
	sort.Sort(s)
	for i := range s.seqs {
		s.seqs[i] = int32(i)
	}
}

// truncate keeps the first n rows: the rest are let go, the capacity kept.
func (s *runSorter) truncate(n int) {
	clear(s.rows[n:])
	clear(s.keys[n:])
	s.rows, s.keys, s.seqs = s.rows[:n], s.keys[:n], s.seqs[:n]
}

// Sort emits its input ordered by the keys. It is an external merge sort:
// rows buffer up to MemoryBudget, overflowing spans spill as sorted runs
// through Spill, and the output streams either the buffer or a loser-tree
// merge of the runs and the buffer. Equal keys stay in input order even
// when runs spill (merge ties break by run index). It works a row at a time
// inside: the child is read through a RowCursor and the sorted rows leave
// through a rowPacker.
type Sort struct {
	Keys  []SortKey
	Child Operator
	// MemoryBudget caps the bytes of buffered rows (0 = unlimited);
	// exceeding it spills sorted runs through Spill.
	MemoryBudget int64
	// Spill creates the run file. Required only when MemoryBudget can be
	// exceeded.
	Spill SpillStore

	sorter *extSorter
	src    keyedSource // the sorted rows, with their keys (MergeSorted merges on them)
	needed []bool      // child columns the consumer or the keys read; nil = all
	out    rowPacker
}

// Open drains and sorts the child, spilling runs past the budget, and
// closes it again. Callers do not Close an operator whose Open failed, so
// the error paths release any spilled runs here.
func (s *Sort) Open(ctx *Context) error {
	s.out.reset()
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	defer s.Child.Close()
	es := newExtSorter(s.Keys, s.MemoryBudget, s.Spill, ctx.Sink)
	in := RowCursor{Op: s.Child, needed: s.needed}
	for {
		row, ok, err := in.Next()
		switch {
		case err == nil && ok:
			err = es.add(row)
		case err == nil:
			s.src, err = es.finish()
		}
		if err != nil {
			es.release()
			return err
		}
		if !ok {
			s.sorter = es
			s.out.last = min(es.n, vec.DefaultBatchSize) // the first batch's size
			return nil
		}
	}
}

// NextBatch packs the next sorted rows.
func (s *Sort) NextBatch() (*vec.Batch, error) { return s.out.next(s.next) }

func (s *Sort) next() (sqltypes.Row, bool, error) {
	row, _, ok, err := s.src.nextKeyed()
	return row, ok, err
}

// PruneColumns reads, keeps and emits only the marked columns and the keys'.
func (s *Sort) PruneColumns(needed []bool) {
	s.needed = withExprColumns(needed, sortKeyExprs(s.Keys)...)
	s.out.needed = needed
	s.Child.PruneColumns(s.needed)
}

// Close releases the buffered rows and any spilled runs.
func (s *Sort) Close() error {
	s.src = nil
	if s.sorter != nil {
		s.sorter.release()
		s.sorter = nil
	}
	return nil
}

// RowNumber implements ROW_NUMBER() OVER (ORDER BY ...), the paper's Query 1
// ranking construct, over a child that already delivers its rows in the
// window order (a Sort, a MergeSorted, or a scan in index order): it
// appends the 1-based row number as an extra trailing INT column, numbering
// each batch's selected rows in Sel order (projections then place it
// wherever the SELECT list wants it).
type RowNumber struct {
	Child Operator

	n int64
}

// Open opens the child and restarts the count.
func (r *RowNumber) Open(ctx *Context) error {
	r.n = 0
	return r.Child.Open(ctx)
}

// NextBatch numbers the next batch's selected rows.
func (r *RowNumber) NextBatch() (*vec.Batch, error) {
	b, err := r.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	num := &vec.Vector{Kind: sqltypes.KindInt, Ints: make([]int64, b.Rows())}
	for _, i := range b.Sel {
		r.n++
		num.Ints[i] = r.n
	}
	b.Cols = append(b.Cols[:len(b.Cols):len(b.Cols)], num) // a Cols array of its own
	return b, nil
}

// PruneColumns asks the child for the marked columns but the last, which
// is the number.
func (r *RowNumber) PruneColumns(needed []bool) {
	var in []bool // nil = all
	if len(needed) > 0 {
		in = needed[:len(needed)-1]
	}
	r.Child.PruneColumns(in)
}

// Close closes the child.
func (r *RowNumber) Close() error { return r.Child.Close() }
