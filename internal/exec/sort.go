package exec

import (
	"slices"
	"sort"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The sort family. Sort is the one operator that orders rows: ORDER BY, the
// per-partition sorts under a MergeSorted exchange and CREATE INDEX's
// partition sorts are Sorts, ROW_NUMBER is a counter over one, and TopN
// keeps its N rows with the same kernel (runSorter). extsort.go holds the
// external sort behind Sort and the loser tree behind MergeSorted. Every
// key is a column of the input rows — the planner computes a key that is
// an expression into a column below the sort — so the family compares
// cells and evaluates nothing.

// SortKey is one ORDER BY term: a column of the input rows.
type SortKey struct {
	Col  int
	Desc bool
}

// order compares two cells of the key's column: negative when a sorts
// before b.
func (k SortKey) order(a, b sqltypes.Value) int {
	c := sqltypes.Compare(a, b)
	if k.Desc {
		return -c
	}
	return c
}

// compareKeyRows orders two rows at the key columns: negative when a
// sorts before b.
func compareKeyRows(a, b sqltypes.Row, by []SortKey) int {
	for _, k := range by {
		if c := k.order(a[k.Col], b[k.Col]); c != 0 {
			return c
		}
	}
	return 0
}

// withKeyColumns returns needed with the key columns marked as well; nil
// (all columns) stays nil.
func withKeyColumns(needed []bool, keys []SortKey) []bool {
	if needed == nil {
		return nil
	}
	mark := slices.Clone(needed)
	for _, k := range keys {
		mark[k.Col] = true
	}
	return mark
}

// runSorter is the sort kernel: rows ordered at their key columns by
// pdqsort (sort.Sort) with each row's sequence — its position when added —
// as the tie-break, which is the order of a stable sort at a fraction of
// sort.Stable's element moves. Sort's run buffer and TopN's kept rows are
// each one.
type runSorter struct {
	rows []sqltypes.Row
	seqs []int32
	by   []SortKey
}

func (s *runSorter) Len() int { return len(s.rows) }
func (s *runSorter) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.seqs[i], s.seqs[j] = s.seqs[j], s.seqs[i]
}
func (s *runSorter) Less(i, j int) bool {
	if c := compareKeyRows(s.rows[i], s.rows[j], s.by); c != 0 {
		return c < 0
	}
	return s.seqs[i] < s.seqs[j]
}

// add appends a row.
func (s *runSorter) add(row sqltypes.Row) {
	s.rows = append(s.rows, row)
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
	s.rows, s.seqs = s.rows[:n], s.seqs[:n]
}

// Sort emits its input ordered by the keys. It is an external merge sort
// (extsort.go): rows buffer up to MemoryBudget, overflowing spans spill as
// sorted runs through Spill, and the output streams either the buffer or a
// loser-tree merge of the runs and the buffer. Equal keys stay in input
// order even when runs spill (merge ties break by run index). It works a
// row at a time inside: each selected row of the child's batches is read
// into a row of its own, and the sorted rows leave through a rowPacker.
type Sort struct {
	Keys  []SortKey
	Child Operator
	// MemoryBudget caps the bytes of buffered rows (0 = unlimited);
	// exceeding it spills sorted runs through Spill.
	MemoryBudget int64
	// Spill creates the run file. Required only when MemoryBudget can be
	// exceeded.
	Spill SpillStore

	sink   obs.Sink
	buf    runSorter // the rows added since the last spilled run
	n      int       // rows added
	bytes  int64     // the buffered rows' size
	runs   SpillFile // every spilled run, sealed back to back; nil until the first
	spans  []RunSpan
	src    RowIterator // the sorted rows, once Open sorted them (MergeSorted merges them)
	needed []bool      // child columns the consumer or the keys read; nil = all
	out    rowPacker
}

// Open drains and sorts the child, spilling runs past the budget, and
// closes it again. Callers do not Close an operator whose Open failed, so
// the error paths release any spilled runs here.
func (s *Sort) Open(ctx *Context) error {
	s.out.reset()
	s.sink, s.buf, s.n, s.bytes, s.spans = ctx.Sink, runSorter{by: s.Keys}, 0, 0, nil
	if err := s.Child.Open(ctx); err != nil {
		return err
	}
	defer s.Child.Close()
	err := s.drain()
	if err == nil {
		s.src, err = s.finish()
	}
	if err != nil {
		s.Close()
		return err
	}
	s.out.last = min(s.n, vec.DefaultBatchSize) // the first batch's size
	return nil
}

// drain adds every selected row of the child's batches.
func (s *Sort) drain() error {
	for {
		b, err := s.Child.NextBatch()
		if err != nil || b == nil {
			return err
		}
		for _, r := range b.Sel {
			row, err := b.ReadRowCols(r, nil, s.needed)
			if err != nil {
				return err
			}
			if err := s.add(row); err != nil {
				return err
			}
		}
	}
}

// NextBatch packs the next sorted rows.
func (s *Sort) NextBatch() (*vec.Batch, error) { return s.out.next(s.src.Next) }

// PruneColumns reads, keeps and emits only the marked columns and the keys'.
func (s *Sort) PruneColumns(needed []bool) {
	s.needed = withKeyColumns(needed, s.Keys)
	s.out.needed = needed
	s.Child.PruneColumns(s.needed)
}

// Close writes a merge's row count and releases the buffered rows and any
// spilled runs.
func (s *Sort) Close() error {
	if s.src != nil {
		s.src.Close()
		s.src = nil
	}
	if s.runs != nil {
		s.runs.Release()
		s.runs = nil
	}
	s.buf = runSorter{}
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
