package exec

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// External merge sort, behind Sort: rows buffer with their evaluated keys up
// to a memory budget; an overflowing buffer is sorted and spilled as one
// run, every run of a Sort back to back in one spill file (SealRun); the
// sorted stream is the buffer alone, or a loser-tree merge of the runs and
// the buffer. Runs are cut from consecutive input spans and the merge
// breaks key ties by source index, so ORDER BY stays stable for equal keys
// even when runs spill — the same order as the in-memory sort. The same
// loser tree, over the partition Sorts, is the MergeSorted exchange.

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

// sortKeyOf evaluates row's sort key into key (reused when it is the right
// length). A single plain-column key, the dominant ORDER BY shape, is a
// one-value view of the row instead.
func sortKeyOf(by []SortKey, row, key sqltypes.Row) (sqltypes.Row, error) {
	if c, ok := singleColKey(by); ok && c < len(row) {
		return row[c : c+1], nil
	}
	if len(key) != len(by) {
		key = make(sqltypes.Row, len(by))
	}
	for i, k := range by {
		v, err := k.Expr.Eval(row)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// extSorter is Sort's buffer and run writer: it accumulates (row, key)
// pairs, and when the buffer exceeds the budget sorts it, appends it to the
// run file as one run and reuses the buffer for the next span of input.
type extSorter struct {
	budget int64
	spill  SpillStore
	sink   obs.Sink

	buf   runSorter
	n     int // rows added
	bytes int64
	runs  SpillFile // every spilled run, sealed back to back; nil until the first
	spans []RunSpan
	merge *loserTree // the runs' merge, once finished
}

func newExtSorter(by []SortKey, budget int64, spill SpillStore, sink obs.Sink) *extSorter {
	return &extSorter{budget: budget, spill: spill, sink: sink, buf: runSorter{by: by}}
}

// add buffers one row (cloned) with its sort key, spilling a run when the
// buffered bytes exceed the budget.
func (s *extSorter) add(row sqltypes.Row) error {
	clone := row.Clone()
	key, err := sortKeyOf(s.buf.by, clone, nil)
	if err != nil {
		return err
	}
	s.buf.add(clone, key)
	s.n++
	s.bytes += rowMemBytes(clone) + rowMemBytes(key)
	if s.budget > 0 && s.bytes > s.budget {
		return s.spillRun()
	}
	return nil
}

// spillRun sorts the buffer and appends it to the run file as one run.
func (s *extSorter) spillRun() error {
	if s.spill == nil {
		return fmt.Errorf("exec: sort memory budget %d exceeded and no spill store configured", s.budget)
	}
	s.buf.sort()
	if s.runs == nil {
		f, err := s.spill.Create()
		if err != nil {
			return err
		}
		s.runs = f
	}
	for _, r := range s.buf.rows {
		if err := s.runs.Append(r); err != nil {
			return err
		}
	}
	span, err := s.runs.SealRun()
	if err != nil {
		return err
	}
	s.spans = append(s.spans, span)
	s.sink.Add(obs.SortSpilledBytes, span.Bytes)
	s.sink.Add(obs.SortRuns, 1)
	s.sink.Add(obs.SortSpilledRows, span.Rows)
	s.buf.truncate(0)
	s.bytes = 0
	return nil
}

// finish seals the input and returns the sorted stream: the sorted buffer
// when nothing spilled, otherwise a loser-tree merge of the runs and the
// buffer (which holds the latest input rows, so it merges last among
// equals).
func (s *extSorter) finish() (keyedSource, error) {
	s.sink.Add(obs.SortSorts, 1)
	s.buf.sort()
	mem := &keyedSlice{rows: s.buf.rows, keys: s.buf.keys}
	if len(s.spans) == 0 {
		return mem, nil
	}
	srcs := make([]keyedSource, 0, len(s.spans)+1)
	for _, span := range s.spans {
		it, err := s.runs.IterRun(span)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, &spilledRun{it: it, by: s.buf.by})
	}
	if len(s.buf.rows) > 0 {
		srcs = append(srcs, mem)
	}
	s.merge = newLoserTree(srcs, s.buf.by, s.sink)
	return s.merge, nil
}

// release writes the merge's row count and frees the run file (Close and
// error paths).
func (s *extSorter) release() {
	if s.merge != nil {
		s.merge.flush()
	}
	if s.runs != nil {
		s.runs.Release()
	}
}

// keyedSource is a sorted stream of rows with their sort keys: the sorted
// buffer, a spilled run, a loser-tree merge — what a loser tree merges. A
// returned row and key stay valid until the next call.
type keyedSource interface {
	nextKeyed() (row, key sqltypes.Row, ok bool, err error)
}

// keyedSlice is the sorted buffer.
type keyedSlice struct {
	rows, keys []sqltypes.Row
	pos        int
}

func (s *keyedSlice) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	if s.pos >= len(s.rows) {
		return nil, nil, false, nil
	}
	s.pos++
	return s.rows[s.pos-1], s.keys[s.pos-1], true, nil
}

// spilledRun reads one spilled run back, evaluating each row's sort key as
// it arrives (runs hold rows, not keys).
type spilledRun struct {
	it  RowIterator
	by  []SortKey
	key sqltypes.Row
}

func (r *spilledRun) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	row, ok, err := r.it.Next()
	if err != nil || !ok {
		return nil, nil, false, err
	}
	if r.key, err = sortKeyOf(r.by, row, r.key); err != nil {
		return nil, nil, false, err
	}
	return row, r.key, true, nil
}

// loserTree is a tournament tree over k sorted sources: node[0] holds the
// overall winner and each internal node the loser of its subtree, so
// replacing the winner costs one leaf-to-root path of ⌈log₂k⌉ comparisons
// instead of the 2·log₂k of a binary heap. It keeps each source's current
// row and key; a source advances only when its row has been emitted and
// the next one is wanted, so the emitted row stays valid across that pull.
// Ties break by source index, which is what makes spilled sorts stable
// (earlier runs hold earlier input rows).
type loserTree struct {
	srcs       []keyedSource
	rows, keys []sqltypes.Row // each source's current row and key
	done       []bool         // the source is exhausted
	by         []SortKey
	node       []int // node[0] winner; node[1..k-1] subtree losers
	sink       obs.Sink
	merged     int64 // rows emitted and not yet written to sink
	started    bool
}

func newLoserTree(srcs []keyedSource, by []SortKey, sink obs.Sink) *loserTree {
	k := len(srcs)
	return &loserTree{srcs: srcs, rows: make([]sqltypes.Row, k), keys: make([]sqltypes.Row, k),
		done: make([]bool, k), by: by, node: make([]int, k), sink: sink}
}

// advance steps source i to its next row.
func (t *loserTree) advance(i int) error {
	var ok bool
	var err error
	t.rows[i], t.keys[i], ok, err = t.srcs[i].nextKeyed()
	t.done[i] = !ok
	return err
}

// beats reports whether source a's current row sorts before source b's.
// Exhausted sources lose to everything, so they sink to the leaves.
func (t *loserTree) beats(a, b int) bool {
	if t.done[a] {
		return false
	}
	if t.done[b] {
		return true
	}
	if c := compareKeyRows(t.keys[a], t.keys[b], t.by); c != 0 {
		return c < 0
	}
	return a < b // stability: lower source index = earlier input
}

// replay re-runs the tournament along source i's leaf-to-root path. A -1
// node is an empty init slot: the incumbent parks there and the walk stops
// (the sibling's walk completes the comparison later).
func (t *loserTree) replay(i int) {
	winner := i
	for n := (len(t.srcs) + i) / 2; n >= 1; n /= 2 {
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

// nextKeyed pulls the merged stream with the winner's sort key. The
// previous winner advances first, lazily.
func (t *loserTree) nextKeyed() (sqltypes.Row, sqltypes.Row, bool, error) {
	if !t.started {
		t.started = true
		for i := 1; i < len(t.node); i++ {
			t.node[i] = -1
		}
		for i := range t.srcs {
			if err := t.advance(i); err != nil {
				return nil, nil, false, err
			}
		}
		for i := range t.srcs {
			t.replay(i)
		}
	} else {
		w := t.node[0]
		if err := t.advance(w); err != nil {
			return nil, nil, false, err
		}
		t.replay(w)
	}
	w := t.node[0]
	if t.done[w] {
		t.flush()
		return nil, nil, false, nil
	}
	t.merged++
	return t.rows[w], t.keys[w], true, nil
}

// flush writes the merged-row count: once when the merge runs dry, and at
// Close for a consumer that stopped early. A tree over one source merges
// nothing and counts nothing.
func (t *loserTree) flush() {
	if len(t.srcs) > 1 {
		t.sink.Add(obs.SortMergeRows, t.merged)
	}
	t.merged = 0
}

// MergeSorted is the order-preserving exchange above per-partition sorts:
// children Open concurrently (each Sort drains and sorts during Open), then
// a loser tree merges their sorted streams on the keys the sorts already
// evaluated. Key ties break by child index, so a parallel sort over a
// heap's sequential page-range partitions emits equal keys in table order —
// identical to the serial stable sort. The sorts and their merge are one
// row-internal unit; rows become batches once, on the way out.
type MergeSorted struct {
	Keys     []SortKey
	Children []*Sort

	tree   *loserTree
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
	srcs := make([]keyedSource, len(m.Children))
	for i, ch := range m.Children {
		srcs[i] = ch.src
	}
	m.tree = newLoserTree(srcs, m.Keys, ctx.Sink)
	return nil
}

// NextBatch packs the next globally ordered rows.
func (m *MergeSorted) NextBatch() (*vec.Batch, error) { return m.out.next(m.next) }

func (m *MergeSorted) next() (sqltypes.Row, bool, error) {
	row, _, ok, err := m.tree.nextKeyed()
	return row, ok, err
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

// Close writes the merge's row count and closes the children.
func (m *MergeSorted) Close() error {
	if m.tree != nil {
		m.tree.flush()
		m.tree = nil
	}
	return m.closeChildren()
}
