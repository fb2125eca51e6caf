package btree

import (
	"bytes"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Iterator walks leaf entries in key order. It pins one leaf page at a
// time; Close must be called when done. Concurrent writers are excluded by
// the engine's table locks, not by the iterator.
type Iterator struct {
	t    *BTree
	sink obs.Sink // the descent's and the leaf walk's pool traffic counts here
	pid  int64    // current leaf page; 0 when exhausted
	idx  int
	end  []byte // exclusive upper bound; nil = unbounded
	key  []byte
	val  []byte
	err  error
	fr   pinnedFrame
	done bool
}

// pinnedFrame abstracts the pooled frame so the iterator can hold it.
type pinnedFrame struct {
	fr     interface{ Data() []byte }
	unpin  func()
	active bool
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
	it := &Iterator{t: t, end: end, sink: sink}
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
	if start != nil {
		n := node{it.fr.fr.Data()}
		pos, _ := n.search(start)
		it.idx = pos
	}
	return it, nil
}

func (it *Iterator) pin() error {
	fr, err := it.t.pool.GetT(it.t.file, storage.PageID(it.pid), it.sink)
	if err != nil {
		return err
	}
	it.fr = pinnedFrame{
		fr:     fr,
		unpin:  func() { it.t.pool.Unpin(fr, false) },
		active: true,
	}
	return nil
}

func (it *Iterator) unpin() {
	if it.fr.active {
		it.fr.unpin()
		it.fr.active = false
	}
}

// Next advances to the next entry, returning false at the end bound or
// tree end. Check Err after a false return.
func (it *Iterator) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for {
		n := node{it.fr.fr.Data()}
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
	}
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
