package exec

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// External merge sort: Sort and RowNumber buffer rows up to a memory
// budget, spill stably-sorted runs to temp files, and k-way merge the
// runs with a loser tree as they emit. Runs are cut from consecutive input
// spans and the merge breaks key ties by run index, so ORDER BY stays
// stable for equal keys even when runs spill — the same observable order
// as the in-memory stable sort.

// RunStore is an optional SpillStore extension for sorted runs: files
// read exactly once, sequentially, whose iterators bypass the buffer
// pool so a wide merge fan-in cannot evict the workload's hot pages.
type RunStore interface {
	SpillStore
	CreateRun() (SpillFile, error)
}

// RunSpan locates one sealed sorted run inside a multi-run spill file.
type RunSpan struct {
	Start, End int64 // page range [Start, End)
	Rows       int64
	Bytes      int64 // encoded payload bytes
}

// MultiRunFile is a spill file that packs many sorted runs back to back:
// the sorter appends a run's rows, seals it, and later streams each run
// independently. One temp file per sort operator instead of one per run
// keeps a budget-constrained sort from drowning in file churn.
type MultiRunFile interface {
	SpillFile
	SealRun() (RunSpan, error)
	IterRun(RunSpan) (RowIterator, error)
}

// singleColKey reports the column index when the sort key is exactly one
// plain column reference.
func singleColKey(by []SortKey) (int, bool) {
	if len(by) != 1 {
		return 0, false
	}
	c, ok := by[0].Expr.(*expr.Col)
	if !ok {
		return 0, false
	}
	return c.Idx, true
}

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// createRun picks the run-flavored file when the store offers one.
func createRun(store SpillStore) (SpillFile, error) {
	if rs, ok := store.(RunStore); ok {
		return rs.CreateRun()
	}
	return store.Create()
}

// extSorter is the shared engine of Sort and RowNumber: it accumulates
// (row, evaluated key) pairs and doubles as the reusable run-writer —
// when the buffer exceeds the budget it is stably sorted, written out as
// one run, and the buffer slices are recycled for the next run.
type extSorter struct {
	by     []SortKey
	budget int64
	spill  SpillStore
	sink   obs.Sink

	rows   []sqltypes.Row
	keys   []sqltypes.Row
	seqs   []int32 // buffer insertion order, the pdqsort tie-break
	bytes  int64
	sorter runSorter

	// Spilled runs live in one multi-run file when the store supports it
	// (runFile + spans); otherwise one file per run (runs).
	runFile MultiRunFile
	spans   []RunSpan
	runs    []SpillFile
}

// runSorter sorts a run buffer with pdqsort (sort.Sort) instead of the
// O(n·log²n)-moves sort.Stable, using the insertion sequence as an
// explicit tie-break — the output order is identical to a stable sort,
// at a fraction of the element moves.
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

func newExtSorter(by []SortKey, budget int64, spill SpillStore, sink obs.Sink) *extSorter {
	return &extSorter{by: by, budget: budget, spill: spill, sink: sink}
}

// Add buffers one row (cloned) with its evaluated sort key, spilling a
// run when the buffered bytes exceed the budget. A single plain-column
// key (the dominant ORDER BY shape) borrows a one-value view of the
// cloned row instead of allocating a key row.
func (s *extSorter) Add(row sqltypes.Row) error {
	clone := row.Clone()
	var key sqltypes.Row
	if c, ok := singleColKey(s.by); ok && c < len(clone) {
		key = clone[c : c+1]
	} else {
		key = make(sqltypes.Row, len(s.by))
		for i, k := range s.by {
			v, err := k.Expr.Eval(clone)
			if err != nil {
				return err
			}
			key[i] = v
		}
	}
	s.rows = append(s.rows, clone)
	s.keys = append(s.keys, key)
	s.seqs = append(s.seqs, int32(len(s.seqs)))
	s.bytes += rowMemBytes(clone) + rowMemBytes(key)
	if s.budget > 0 && s.bytes > s.budget {
		return s.spillRun()
	}
	return nil
}

// spillRun sorts the buffer and writes it as one run, recycling the
// buffer for the next span of input. Runs pack into one multi-run file
// when the store's files support sealing; otherwise each run gets its
// own file.
func (s *extSorter) spillRun() error {
	if len(s.rows) == 0 {
		return nil
	}
	if s.spill == nil {
		return fmt.Errorf("exec: sort memory budget %d exceeded and no spill store configured", s.budget)
	}
	s.sortBuffer()
	var f SpillFile
	if s.runFile != nil {
		f = s.runFile
	} else {
		created, err := createRun(s.spill)
		if err != nil {
			return err
		}
		if mrf, ok := created.(MultiRunFile); ok {
			s.runFile = mrf
		}
		f = created
	}
	for _, r := range s.rows {
		if err := f.Append(r); err != nil {
			if s.runFile == nil {
				f.Release()
			}
			return err
		}
	}
	var runBytes int64
	if s.runFile != nil {
		span, err := s.runFile.SealRun()
		if err != nil {
			return err
		}
		s.spans = append(s.spans, span)
		runBytes = span.Bytes
	} else {
		s.runs = append(s.runs, f)
		runBytes = f.Bytes()
	}
	s.sink.Add(obs.SortSpilledBytes, runBytes)
	s.sink.Add(obs.SortRuns, 1)
	s.sink.Add(obs.SortSpilledRows, int64(len(s.rows)))
	for i := range s.rows {
		s.rows[i], s.keys[i] = nil, nil // release references, keep capacity
	}
	s.rows, s.keys, s.seqs = s.rows[:0], s.keys[:0], s.seqs[:0]
	s.bytes = 0
	return nil
}

func (s *extSorter) sortBuffer() {
	s.sorter.rows, s.sorter.keys, s.sorter.seqs, s.sorter.by = s.rows, s.keys, s.seqs, s.by
	sort.Sort(&s.sorter)
	s.sorter.rows, s.sorter.keys, s.sorter.seqs = nil, nil, nil
}

// keyedSource yields sorted rows together with their precomputed sort
// keys, so a merge exchange stacked on top never re-evaluates key
// expressions. Sort and both extSorter iterators implement it.
type keyedSource interface {
	nextKeyed() (row, key sqltypes.Row, ok bool, err error)
}

// keyedSliceIterator is the in-memory sorted result with its keys.
type keyedSliceIterator struct {
	rows, keys []sqltypes.Row
	pos        int
}

func (it *keyedSliceIterator) Next() (sqltypes.Row, bool, error) {
	row, _, ok, err := it.nextKeyed()
	return row, ok, err
}

func (it *keyedSliceIterator) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	if it.pos >= len(it.rows) {
		return nil, nil, false, nil
	}
	it.pos++
	return it.rows[it.pos-1], it.keys[it.pos-1], true, nil
}

func (it *keyedSliceIterator) Close() error { return nil }

// Finish seals the input and returns the sorted stream: a zero-copy
// in-memory iterator when nothing spilled, otherwise a loser-tree merge
// over the runs plus the sorted in-memory tail (which holds the latest
// input rows and therefore merges with the highest tie-break index).
func (s *extSorter) Finish() (RowIterator, error) {
	s.sink.Add(obs.SortSorts, 1)
	s.sortBuffer()
	if len(s.runs) == 0 && len(s.spans) == 0 {
		return &keyedSliceIterator{rows: s.rows, keys: s.keys}, nil
	}
	cursors := make([]mergeCursor, 0, len(s.runs)+len(s.spans)+1)
	for _, span := range s.spans {
		it, err := s.runFile.IterRun(span)
		if err != nil {
			return nil, err
		}
		cursors = append(cursors, &streamCursor{next: it.Next, by: s.by})
	}
	for _, f := range s.runs {
		it, err := f.Iter(s.sink)
		if err != nil {
			return nil, err
		}
		cursors = append(cursors, &streamCursor{next: it.Next, by: s.by})
	}
	if len(s.rows) > 0 {
		cursors = append(cursors, &memCursor{rows: s.rows, keys: s.keys})
	}
	return newLoserTree(cursors, s.by, s.sink), nil
}

// Release frees every spilled run (Close and error paths).
func (s *extSorter) Release() {
	if s.runFile != nil {
		s.runFile.Release()
		s.runFile = nil
	}
	for _, f := range s.runs {
		f.Release()
	}
	s.runs, s.spans = nil, nil
	s.rows, s.keys = nil, nil
}

// mergeCursor is one sorted input of a loser-tree merge. Cursors are
// advanced lazily — the previous winner's row stays valid until the next
// pull — so sources may reuse their row buffers per the RowIterator
// contract.
type mergeCursor interface {
	// advance steps to the next row; the cursor reports done once the
	// source is exhausted.
	advance() error
	done() bool
	// cur returns the current row and its evaluated sort key.
	cur() (row, key sqltypes.Row)
}

// streamCursor adapts a row stream, evaluating sort keys as rows arrive
// (single plain-column keys borrow a view of the row instead).
type streamCursor struct {
	next func() (sqltypes.Row, bool, error)
	by   []SortKey
	row  sqltypes.Row
	key  sqltypes.Row
	eof  bool
}

func (c *streamCursor) advance() error {
	row, ok, err := c.next()
	if err != nil {
		return err
	}
	if !ok {
		c.eof, c.row = true, nil
		return nil
	}
	c.row = row
	if ci, ok := singleColKey(c.by); ok && ci < len(row) {
		c.key = row[ci : ci+1]
		return nil
	}
	if c.key == nil || len(c.key) != len(c.by) {
		c.key = make(sqltypes.Row, len(c.by))
	}
	for i, k := range c.by {
		v, err := k.Expr.Eval(row)
		if err != nil {
			return err
		}
		c.key[i] = v
	}
	return nil
}

func (c *streamCursor) done() bool                        { return c.eof }
func (c *streamCursor) cur() (sqltypes.Row, sqltypes.Row) { return c.row, c.key }

// keyedCursor reads a keyedSource (a per-partition Sort), reusing its
// precomputed keys instead of re-evaluating the sort expressions per
// merged row.
type keyedCursor struct {
	src      keyedSource
	row, key sqltypes.Row
	eof      bool
}

func (c *keyedCursor) advance() error {
	row, key, ok, err := c.src.nextKeyed()
	if err != nil {
		return err
	}
	if !ok {
		c.eof, c.row, c.key = true, nil, nil
		return nil
	}
	c.row, c.key = row, key
	return nil
}

func (c *keyedCursor) done() bool                        { return c.eof }
func (c *keyedCursor) cur() (sqltypes.Row, sqltypes.Row) { return c.row, c.key }

// memCursor serves the sorter's in-memory tail, whose keys are already
// evaluated.
type memCursor struct {
	rows, keys []sqltypes.Row
	pos        int
	eof        bool
}

func (c *memCursor) advance() error {
	if c.pos >= len(c.rows) {
		c.eof = true
		return nil
	}
	c.pos++
	return nil
}

func (c *memCursor) done() bool { return c.eof }
func (c *memCursor) cur() (sqltypes.Row, sqltypes.Row) {
	return c.rows[c.pos-1], c.keys[c.pos-1]
}

// loserTree is a tournament tree over k sorted cursors: node[0] holds
// the overall winner and each internal node the loser of its subtree, so
// replacing the winner costs one leaf-to-root path of ⌈log₂k⌉
// comparisons instead of the 2·log₂k of a binary heap. Ties break by
// cursor index, which is what makes spilled sorts stable (earlier runs
// hold earlier input rows).
type loserTree struct {
	cursors []mergeCursor
	by      []SortKey
	node    []int // node[0] winner; node[1..k-1] subtree losers
	sink    obs.Sink
	merged  int64 // rows emitted and not yet written to sink
	started bool
}

func newLoserTree(cursors []mergeCursor, by []SortKey, sink obs.Sink) *loserTree {
	return &loserTree{cursors: cursors, by: by, node: make([]int, len(cursors)), sink: sink}
}

// beats reports whether cursor a's current row sorts before cursor b's.
// Exhausted cursors lose to everything, so they sink to the leaves.
func (t *loserTree) beats(a, b int) bool {
	ca, cb := t.cursors[a], t.cursors[b]
	if ca.done() {
		return false
	}
	if cb.done() {
		return true
	}
	_, ka := ca.cur()
	_, kb := cb.cur()
	if c := compareKeyRows(ka, kb, t.by); c != 0 {
		return c < 0
	}
	return a < b // stability: lower run index = earlier input
}

// replay re-runs the tournament along cursor i's leaf-to-root path. A -1
// node is an empty init slot: the incumbent parks there and the walk
// stops (the sibling's walk completes the comparison later).
func (t *loserTree) replay(i int) {
	winner := i
	for n := (len(t.cursors) + i) / 2; n >= 1; n /= 2 {
		if t.node[n] < 0 {
			t.node[n] = winner
			return
		}
		if t.beats(t.node[n], winner) {
			winner, t.node[n] = t.node[n], winner
		}
	}
	t.node[0] = winner
}

// Next pulls the merged stream. The previous winner advances lazily so
// its returned row stayed valid across the last pull.
func (t *loserTree) Next() (sqltypes.Row, bool, error) {
	row, _, ok, err := t.nextKeyed()
	return row, ok, err
}

// nextKeyed pulls the merged stream with the winner's sort key.
func (t *loserTree) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	if !t.started {
		t.started = true
		for i := 1; i < len(t.node); i++ {
			t.node[i] = -1
		}
		for i := range t.cursors {
			if err := t.cursors[i].advance(); err != nil {
				return nil, nil, false, err
			}
		}
		for i := range t.cursors {
			t.replay(i)
		}
	} else {
		w := t.node[0]
		if err := t.cursors[w].advance(); err != nil {
			return nil, nil, false, err
		}
		t.replay(w)
	}
	w := t.node[0]
	if t.cursors[w].done() {
		t.flush()
		return nil, nil, false, nil
	}
	row, key := t.cursors[w].cur()
	t.merged++
	return row, key, true, nil
}

// flush writes the merged-row count: once when the merge runs dry, and at
// Close for a consumer that stopped early.
func (t *loserTree) flush() {
	t.sink.Add(obs.SortMergeRows, t.merged)
	t.merged = 0
}

// Close satisfies RowIterator; run files are released by their owner.
func (t *loserTree) Close() error {
	t.flush()
	return nil
}

// MergeSorted is the order-preserving exchange above per-partition
// sorts: children Open concurrently (each per-partition Sort drains and
// sorts during Open), then their sorted streams merge by the sort keys.
// Key ties break by child index, so a parallel sort over a heap's
// sequential page-range partitions emits equal keys in table order —
// identical to the serial stable sort.
//
// The sorts and their merge are one row-internal unit: a child that sorted
// fully in memory hands its (rows, keys) buffers to the merge, which then
// indexes the arrays directly; children with spilled runs stream through
// their own run merge. Rows become batches once, on the way out.
type MergeSorted struct {
	Keys     []SortKey
	Children []*Sort

	it     RowIterator
	opened []bool
	out    rowPacker
}

// Open opens all children in parallel and builds the merge tree. On a
// single-P runtime the opens run sequentially instead: the sorts are
// CPU-bound, so goroutines could only add scheduling latency and cache
// interleave.
func (m *MergeSorted) Open(ctx *Context) error {
	m.out.reset()
	m.opened = make([]bool, len(m.Children))
	errs := make([]error, len(m.Children))
	if runtime.GOMAXPROCS(0) == 1 {
		for i, ch := range m.Children {
			errs[i] = ch.Open(ctx)
		}
	} else {
		var wg sync.WaitGroup
		for i, ch := range m.Children {
			wg.Add(1)
			go func(i int, ch *Sort) {
				defer wg.Done()
				errs[i] = ch.Open(ctx)
			}(i, ch)
		}
		wg.Wait()
	}
	var firstErr error
	for i, err := range errs {
		if err == nil {
			m.opened[i] = true
		} else if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		m.closeChildren()
		return firstErr
	}
	cursors := make([]mergeCursor, len(m.Children))
	for i, ch := range m.Children {
		if rows, keys, ok := ch.sortedBuffers(); ok {
			cursors[i] = &memCursor{rows: rows, keys: keys}
		} else {
			cursors[i] = &keyedCursor{src: ch}
		}
	}
	m.it = newLoserTree(cursors, m.Keys, ctx.Sink)
	return nil
}

// NextBatch packs the next globally ordered rows.
func (m *MergeSorted) NextBatch() (*vec.Batch, error) { return m.out.next(m.next) }

func (m *MergeSorted) next() (sqltypes.Row, bool, error) {
	if m.it == nil {
		return nil, false, nil
	}
	return m.it.Next()
}

// PruneColumns passes the call to every sort.
func (m *MergeSorted) PruneColumns(needed []bool) {
	m.out.needed = needed
	for _, ch := range m.Children {
		ch.PruneColumns(needed)
	}
}

func (m *MergeSorted) closeChildren() error {
	var firstErr error
	for i, ch := range m.Children {
		if !m.opened[i] {
			continue
		}
		m.opened[i] = false
		if err := ch.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close closes the merge and the children.
func (m *MergeSorted) Close() error {
	if m.it != nil {
		m.it.Close()
		m.it = nil
	}
	return m.closeChildren()
}
