package exec

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The external merge sort behind Sort: rows buffer up to a memory budget; an
// overflowing buffer is sorted and spilled as one run, every run of a Sort
// back to back in one spill file (SealRun); the sorted stream is the
// buffer alone, or a loser-tree merge of the runs and the buffer. Runs are
// cut from consecutive input spans and the merge breaks key ties by source
// index, so ORDER BY stays stable for equal keys even when runs spill —
// the same order as the in-memory sort. The same loser tree, over the
// partition Sorts, is the MergeSorted exchange.

// rowMemBytes approximates the retained size of a buffered row.
func rowMemBytes(row sqltypes.Row) int64 {
	n := int64(len(row)) * 48 // Value header
	for _, v := range row {
		n += int64(len(v.S)) + int64(len(v.B))
	}
	return n + 24 // slice header
}

// add buffers one row, which the sort now owns, spilling a run when the
// buffered bytes exceed the budget.
func (s *Sort) add(row sqltypes.Row) error {
	s.buf.add(row)
	s.n++
	s.bytes += rowMemBytes(row)
	if s.MemoryBudget > 0 && s.bytes > s.MemoryBudget {
		return s.spillRun()
	}
	return nil
}

// spillRun sorts the buffer and appends it to the run file as one run.
func (s *Sort) spillRun() error {
	if s.Spill == nil {
		return fmt.Errorf("exec: sort memory budget %d exceeded and no spill store configured", s.MemoryBudget)
	}
	s.buf.sort()
	if s.runs == nil {
		f, err := s.Spill.Create()
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
func (s *Sort) finish() (RowIterator, error) {
	s.sink.Add(obs.SortSorts, 1)
	s.buf.sort()
	mem := &SliceIterator{Rows: s.buf.rows}
	if len(s.spans) == 0 {
		return mem, nil
	}
	srcs := make([]RowIterator, 0, len(s.spans)+1)
	for _, span := range s.spans {
		it, err := s.runs.IterRun(span)
		if err != nil {
			return nil, err
		}
		srcs = append(srcs, it)
	}
	if len(s.buf.rows) > 0 {
		srcs = append(srcs, mem)
	}
	return newLoserTree(srcs, s.Keys, s.sink), nil
}

// loserTree is a tournament tree over k sorted row streams: node[0] holds
// the overall winner and each internal node the loser of its subtree, so
// replacing the winner costs one leaf-to-root path of ⌈log₂k⌉ comparisons
// instead of the 2·log₂k of a binary heap. It keeps each source's current
// row; a source advances only when its row has been emitted and the next
// one is wanted, so the emitted row stays valid across that pull. Ties
// break by source index, which is what makes spilled sorts stable
// (earlier runs hold earlier input rows).
type loserTree struct {
	srcs    []RowIterator
	rows    []sqltypes.Row // each source's current row
	done    []bool         // the source is exhausted
	by      []SortKey
	node    []int // node[0] winner; node[1..k-1] subtree losers
	sink    obs.Sink
	merged  int64 // rows emitted and not yet written to sink
	started bool
}

func newLoserTree(srcs []RowIterator, by []SortKey, sink obs.Sink) *loserTree {
	k := len(srcs)
	return &loserTree{srcs: srcs, rows: make([]sqltypes.Row, k), done: make([]bool, k), by: by,
		node: make([]int, k), sink: sink}
}

// advance steps source i to its next row.
func (t *loserTree) advance(i int) error {
	var ok bool
	var err error
	t.rows[i], ok, err = t.srcs[i].Next()
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
	if c := compareKeyRows(t.rows[a], t.rows[b], t.by); c != 0 {
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

// Next pulls the merged stream. The previous winner advances first,
// lazily.
func (t *loserTree) Next() (sqltypes.Row, bool, error) {
	if !t.started {
		t.started = true
		for i := 1; i < len(t.node); i++ {
			t.node[i] = -1
		}
		for i := range t.srcs {
			if err := t.advance(i); err != nil {
				return nil, false, err
			}
		}
		for i := range t.srcs {
			t.replay(i)
		}
	} else {
		w := t.node[0]
		if err := t.advance(w); err != nil {
			return nil, false, err
		}
		t.replay(w)
	}
	w := t.node[0]
	if t.done[w] {
		return nil, false, t.Close()
	}
	t.merged++
	return t.rows[w], true, nil
}

// Close writes the merged-row count: once when the merge runs dry, and
// again when its owner closes, for a consumer that stopped early. A tree
// over one source merges nothing and counts nothing. The sources are their
// owners' to release.
func (t *loserTree) Close() error {
	if len(t.srcs) > 1 {
		t.sink.Add(obs.SortMergeRows, t.merged)
	}
	t.merged = 0
	return nil
}

// MergeSorted is the order-preserving exchange above per-partition sorts:
// children Open concurrently (each Sort drains and sorts during Open), then
// a loser tree merges their sorted streams at the key columns. Key ties
// break by child index, so a parallel sort over a heap's sequential
// page-range partitions emits equal keys in table order — identical to the
// serial stable sort. The sorts and their merge are one row-internal unit;
// rows become batches once, on the way out.
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
// interleave. A child still open from an earlier Open is merged as it
// stands: CREATE INDEX sorts its partitions under one lock and opens the
// merge again, its delta's sort added, under the next.
func (m *MergeSorted) Open(ctx *Context) error {
	m.out.reset()
	m.opened = make([]bool, len(m.Children))
	errs := make([]error, len(m.Children))
	var wg sync.WaitGroup
	for i, ch := range m.Children {
		switch {
		case ch.src != nil:
		case runtime.GOMAXPROCS(0) == 1:
			errs[i] = ch.Open(ctx)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = ch.Open(ctx)
			}()
		}
	}
	wg.Wait()
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
	srcs := make([]RowIterator, len(m.Children))
	for i, ch := range m.Children {
		srcs[i] = ch.src
	}
	m.tree = newLoserTree(srcs, m.Keys, ctx.Sink)
	return nil
}

// NextBatch packs the next globally ordered rows.
func (m *MergeSorted) NextBatch() (*vec.Batch, error) { return m.out.next(m.tree.Next) }

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
		m.tree.Close()
		m.tree = nil
	}
	return m.closeChildren()
}
