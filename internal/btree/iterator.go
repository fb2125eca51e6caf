package btree

import (
	"bytes"

	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Iterator walks leaf entries in key order, an entry (Next) or a leaf
// (NextLeaf) at a time. It pins one leaf page at a time; Close must be
// called when done. Concurrent writers are excluded by the engine's table
// locks, not by the iterator.
type Iterator struct {
	t     *BTree
	sink  obs.Sink // the descent's and the leaf walk's pool traffic counts here
	pid   int64    // current leaf page; 0 when exhausted
	idx   int
	start []byte // the first key, until the walk has been positioned on its leaf
	end   []byte // exclusive upper bound; nil = unbounded
	key   []byte
	val   []byte
	err   error
	fr    *storage.Frame // the pinned leaf; nil when none is
	done  bool

	// The leaf walk (NextLeaf): lo is the first slot of the last step;
	// last says the end bound lies in the pinned leaf; spans and hdrs are
	// the walk's value spans and vector headers.
	lo    int
	last  bool
	spans []int
	hdrs  storage.Headers
}

// Seek positions an iterator at the first key >= start (or the tree
// minimum when start is nil), bounded by end (exclusive; nil = none).
func (t *BTree) Seek(start, end []byte) (*Iterator, error) {
	return t.SeekT(start, end, obs.Sink{})
}

// SeekT is Seek on behalf of a plan operator: the buffer-pool traffic of
// the descent and of the leaf walk is also written to sink.
func (t *BTree) SeekT(start, end []byte, sink obs.Sink) (*Iterator, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	it := &Iterator{t: t, start: start, end: end, sink: sink}
	var pid int64
	var err error
	if start == nil {
		pid, err = t.leftmostLeaf(sink)
	} else {
		pid, err = t.leafFor(start, sink)
	}
	if err != nil {
		return nil, err
	}
	it.pid = pid
	if err := it.pin(); err != nil {
		return nil, err
	}
	return it, nil
}

func (it *Iterator) pin() error {
	fr, err := it.t.pool.GetT(it.t.file, storage.PageID(it.pid), it.sink)
	if err != nil {
		return err
	}
	it.fr = fr
	return nil
}

func (it *Iterator) unpin() {
	if it.fr != nil {
		it.t.pool.Unpin(it.fr, false)
		it.fr = nil
	}
}

// nextLeaf moves to the pinned leaf's right sibling, reporting false at
// the tree's end or on an error.
func (it *Iterator) nextLeaf(n node) bool {
	next := n.aux()
	it.unpin()
	if next == 0 {
		it.done = true
		return false
	}
	it.pid = next - 1
	it.idx = 0
	if err := it.pin(); err != nil {
		it.err = err
		it.done = true
		return false
	}
	return true
}

// Next advances to the next entry, returning false at the end bound or
// tree end. Check Err after a false return.
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for {
		n := node{it.fr.Data()}
		if it.start != nil {
			it.idx, _ = n.search(it.start)
			it.start = nil
		}
		if it.idx < n.count() {
			key := n.key(it.idx)
			if it.end != nil && bytes.Compare(key, it.end) >= 0 {
				it.stop()
				return false
			}
			it.key = append(it.key[:0], key...)
			it.val = append(it.val[:0], n.leafValue(it.idx)...)
			it.idx++
			return true
		}
		if !it.nextLeaf(n) {
			return false
		}
	}
}

// NextLeaf is the leaf-at-a-time step over a tree whose values are rows in
// c's format: it returns vectors whose first n rows are the values of the n
// entries from the cursor to the end bound or the end of the pinned leaf,
// in key order, and moves the cursor past them. A step from a leaf's first
// slot reads the form its frame keeps; a step over the whole leaf that
// finds none builds one and has the frame keep it. Any other step (a seek
// into a leaf) decodes just the entries it covers, for the caller alone.
// Nil vectors end the walk. The keys of the rows are LeafKey's until the
// next step.
func (it *Iterator) NextLeaf(c *storage.RowCodec) (cols []*vec.Vector, n int, err error) {
	for !it.done && it.err == nil {
		nd := node{it.fr.Data()}
		switch {
		case it.last:
			it.stop()
		case it.start == nil && it.idx == nd.count(): // the cursor passed the leaf's last entry
			it.nextLeaf(nd)
		default:
			if cols, n, err = it.step(nd, c); err != nil {
				it.err = err
				it.stop()
			} else if n > 0 {
				return cols, n, nil
			}
		}
	}
	return nil, 0, it.err
}

// step is NextLeaf's step on leaf nd. A leaf whose frame keeps no form is
// checked before anything searches or slices it; a kept form proves the
// check was made when it was built.
func (it *Iterator) step(nd node, c *storage.RowCodec) ([]*vec.Vector, int, error) {
	if it.idx == 0 && it.start == nil {
		if cols := it.fr.KeptRowForm(&it.hdrs, it.sink); cols != nil {
			it.lo, it.idx = 0, it.bound(nd, 0)
			return cols, it.idx, nil
		}
	}
	spans, err := nd.checkLeaf(it.spans[:0])
	if err != nil {
		return nil, 0, err
	}
	it.spans = spans
	lo := it.idx
	if it.start != nil {
		lo, _ = nd.search(it.start)
		it.start = nil
	}
	hi := it.bound(nd, lo)
	it.lo, it.idx = lo, hi
	if lo == hi {
		return nil, 0, nil
	}
	payload, ends := nd.packValues(spans[2*lo : 2*hi])
	cols, err := storage.RowFormOf(it.fr, it.t.pool, c, payload, ends, lo == 0 && hi == nd.count(), &it.hdrs, it.sink)
	return cols, hi - lo, err
}

// bound returns where a step from slot lo of leaf nd ends: the leaf's end,
// or the end bound when it lies in the leaf (it.last).
func (it *Iterator) bound(nd node, lo int) int {
	count := nd.count()
	if it.end == nil || count == 0 || bytes.Compare(nd.key(count-1), it.end) < 0 {
		return count
	}
	it.last = true
	hi, _ := nd.search(it.end)
	return max(hi, lo)
}

// LeafKey returns the key of row r of the last NextLeaf step (a view into
// the pinned page).
func (it *Iterator) LeafKey(r int) []byte {
	return node{it.fr.Data()}.key(it.lo + r)
}

func (it *Iterator) stop() {
	it.unpin()
	it.done = true
}

// Key returns the current key; valid until the next call to Next.
func (it *Iterator) Key() []byte { return it.key }

// Value returns the current value; valid until the next call to Next.
func (it *Iterator) Value() []byte { return it.val }

// Err returns the first error encountered.
func (it *Iterator) Err() error { return it.err }

// Close releases the pinned page. Safe to call multiple times.
func (it *Iterator) Close() {
	it.unpin()
	it.done = true
}
