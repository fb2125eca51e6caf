package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Meta page (page 0) layout:
//
//	[0:4]   magic "GBT1"
//	[8:16]  root page id
//	[16:24] key count at last checkpoint
const btreeMagic = "GBT1"

// BTree is a disk-backed B+-tree keyed by memcmp-comparable byte strings
// (see AppendKey) with arbitrary byte values.
type BTree struct {
	mu   sync.RWMutex
	file *storage.PagedFile
	pool *storage.BufferPool
	path string
	inj  *fault.Injector

	root         int64
	count        int64 // live keys (in-memory; durable at checkpoint)
	durableCount int64
}

// Open opens or creates a B+-tree at path.
func Open(path string, pool *storage.BufferPool) (*BTree, error) {
	return OpenFault(path, pool, nil)
}

// OpenFault is Open with fault-injection routing for the tree's file I/O
// (site "btree"), including the shadow file written at checkpoint.
func OpenFault(path string, pool *storage.BufferPool, inj *fault.Injector) (*BTree, error) {
	f, err := storage.OpenPagedFileFault(path, inj, "btree")
	if err != nil {
		return nil, err
	}
	t := &BTree{file: f, pool: pool, path: path, inj: inj}
	if f.NumPages() == 0 {
		if err := t.initEmpty(); err != nil {
			f.Close()
			return nil, err
		}
		return t, nil
	}
	var meta [storage.PageSize]byte
	if err := f.ReadPage(0, meta[:]); err != nil {
		f.Close()
		return nil, err
	}
	if string(meta[0:4]) != btreeMagic {
		f.Close()
		return nil, fmt.Errorf("btree: %s is not a btree file", path)
	}
	t.root = int64(binary.LittleEndian.Uint64(meta[8:]))
	t.count = int64(binary.LittleEndian.Uint64(meta[16:]))
	t.durableCount = t.count
	return t, nil
}

func (t *BTree) initEmpty() error {
	if _, err := t.file.Allocate(); err != nil { // meta
		return err
	}
	rootID, err := t.file.Allocate()
	if err != nil {
		return err
	}
	var page [storage.PageSize]byte
	initNode(page[:], nodeLeaf, 0)
	if err := t.file.WritePage(rootID, page[:]); err != nil {
		return err
	}
	t.root = int64(rootID)
	t.count = 0
	t.durableCount = 0
	return t.writeMeta()
}

func (t *BTree) writeMeta() error {
	var meta [storage.PageSize]byte
	copy(meta[0:4], btreeMagic)
	binary.LittleEndian.PutUint64(meta[8:], uint64(t.root))
	binary.LittleEndian.PutUint64(meta[16:], uint64(t.count))
	return t.file.WritePage(0, meta[:])
}

// Count returns the number of live keys.
func (t *BTree) Count() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// DurableCount returns the key count persisted by the last checkpoint.
func (t *BTree) DurableCount() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.durableCount
}

// Insert upserts a key. Replacing an existing key's value returns
// replaced=true; this makes WAL redo idempotent.
func (t *BTree) Insert(key, val []byte) (replaced bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	split, sepKey, right, replaced, err := t.insertRec(t.root, key, val)
	if err != nil {
		return false, err
	}
	if split {
		// Grow a new root.
		id, err := t.file.Allocate()
		if err != nil {
			return false, err
		}
		fr, err := t.pool.NewPage(t.file, id)
		if err != nil {
			return false, err
		}
		n := initNode(fr.Data(), nodeInternal, t.root)
		n.appendEntry(0, encodeInternalEntry(nil, sepKey, right))
		t.pool.Unpin(fr, true)
		t.root = int64(id)
	}
	if !replaced {
		t.count++
	}
	return replaced, nil
}

// insertRec descends from page id, returning split information.
func (t *BTree) insertRec(pid int64, key, val []byte) (split bool, sepKey []byte, right int64, replaced bool, err error) {
	fr, err := t.pool.Get(t.file, storage.PageID(pid))
	if err != nil {
		return false, nil, 0, false, err
	}
	n := node{fr.Data()}
	switch n.typ() {
	case nodeLeaf:
		split, sepKey, right, replaced, err = t.insertLeaf(n, key, val)
		t.pool.Unpin(fr, err == nil)
		return split, sepKey, right, replaced, err
	case nodeInternal:
		child := n.childFor(key)
		cSplit, cSep, cRight, rep, err := t.insertRec(child, key, val)
		if err != nil || !cSplit {
			t.pool.Unpin(fr, false)
			return false, nil, 0, rep, err
		}
		split, sepKey, right, err = t.insertInternal(n, cSep, cRight)
		t.pool.Unpin(fr, err == nil)
		return split, sepKey, right, rep, err
	}
	t.pool.Unpin(fr, false)
	return false, nil, 0, false, fmt.Errorf("btree: page %d has bad node type %d", pid, n.typ())
}

func (t *BTree) insertLeaf(n node, key, val []byte) (split bool, sepKey []byte, right int64, replaced bool, err error) {
	// Failpoint covering every leaf write, split or not — the in-place
	// append path that "btree.split" cannot reach.
	if err := t.inj.Point("btree.append"); err != nil {
		return false, nil, 0, false, err
	}
	pos, found := n.search(key)
	entry := encodeLeafEntry(nil, key, val)
	if len(entry)+2 > storage.PageSize-nodeHeaderSize {
		return false, nil, 0, false, fmt.Errorf("btree: entry of %d bytes exceeds page capacity", len(entry))
	}
	if found {
		// Replace: drop the old slot, then fall through to insertion.
		n.removeSlot(pos)
		replaced = true
	}
	if len(entry)+2 <= n.freeSpace() {
		n.appendEntry(pos, entry)
		return false, nil, 0, replaced, nil
	}
	// Try compaction: dead bytes from replacements may be reclaimable.
	if n.liveBytes()+len(entry)+2*(n.count()+1) <= storage.PageSize-nodeHeaderSize {
		if err := n.rebuild(n.decodeEntries()); err != nil {
			return false, nil, 0, false, err
		}
		n.appendEntry(pos, entry)
		return false, nil, 0, replaced, nil
	}
	// Split.
	if err := t.inj.Point("btree.split"); err != nil {
		return false, nil, 0, false, err
	}
	entries := n.decodeEntries()
	entries = insertPair(entries, pos, entryPair{key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
	leftEntries, rightEntries := splitByBytes(entries, true)
	rightID, err := t.file.Allocate()
	if err != nil {
		return false, nil, 0, false, err
	}
	rf, err := t.pool.NewPage(t.file, storage.PageID(rightID))
	if err != nil {
		return false, nil, 0, false, err
	}
	rn := initNode(rf.Data(), nodeLeaf, n.aux()) // inherit right sibling
	if err := rn.rebuild(rightEntries); err != nil {
		t.pool.Unpin(rf, false)
		return false, nil, 0, false, err
	}
	t.pool.Unpin(rf, true)
	if err := n.rebuild(leftEntries); err != nil {
		return false, nil, 0, false, err
	}
	n.setAux(int64(rightID) + 1) // sibling pointers store id+1; 0 = none
	sep := append([]byte(nil), rightEntries[0].key...)
	return true, sep, int64(rightID), replaced, nil
}

func (t *BTree) insertInternal(n node, sepKey []byte, child int64) (split bool, outSep []byte, right int64, err error) {
	pos, found := n.search(sepKey)
	if found {
		return false, nil, 0, fmt.Errorf("btree: duplicate separator key")
	}
	entry := encodeInternalEntry(nil, sepKey, child)
	if len(entry)+2 <= n.freeSpace() {
		n.appendEntry(pos, entry)
		return false, nil, 0, nil
	}
	if err := t.inj.Point("btree.split"); err != nil {
		return false, nil, 0, err
	}
	entries := n.decodeEntries()
	var childImg [8]byte
	binary.LittleEndian.PutUint64(childImg[:], uint64(child))
	entries = insertPair(entries, pos, entryPair{key: append([]byte(nil), sepKey...), val: childImg[:]})
	leftEntries, rightEntries := splitByBytes(entries, false)
	// The middle key (first of the right half) moves up; its child becomes
	// the right node's leftmost child.
	mid := rightEntries[0]
	rightEntries = rightEntries[1:]
	rightID, err := t.file.Allocate()
	if err != nil {
		return false, nil, 0, err
	}
	rf, err := t.pool.NewPage(t.file, storage.PageID(rightID))
	if err != nil {
		return false, nil, 0, err
	}
	rn := initNode(rf.Data(), nodeInternal, int64(binary.LittleEndian.Uint64(mid.val)))
	if err := rn.rebuild(rightEntries); err != nil {
		t.pool.Unpin(rf, false)
		return false, nil, 0, err
	}
	t.pool.Unpin(rf, true)
	if err := n.rebuild(leftEntries); err != nil {
		return false, nil, 0, err
	}
	return true, mid.key, int64(rightID), nil
}

func insertPair(entries []entryPair, pos int, e entryPair) []entryPair {
	entries = append(entries, entryPair{})
	copy(entries[pos+1:], entries[pos:])
	entries[pos] = e
	return entries
}

// splitByBytes divides entries roughly in half by byte volume. Both halves
// are guaranteed non-empty (and for internals, the right half keeps at
// least 2 entries so the middle key can move up).
func splitByBytes(entries []entryPair, leaf bool) (left, right []entryPair) {
	total := 0
	for _, e := range entries {
		total += len(e.key) + len(e.val) + 4
	}
	acc := 0
	cut := 0
	for i, e := range entries {
		acc += len(e.key) + len(e.val) + 4
		if acc >= total/2 {
			cut = i + 1
			break
		}
	}
	minRight := 1
	if !leaf {
		minRight = 2
	}
	if cut > len(entries)-minRight {
		cut = len(entries) - minRight
	}
	if cut < 1 {
		cut = 1
	}
	return entries[:cut], entries[cut:]
}

// Get returns a copy of the value stored under key.
func (t *BTree) Get(key []byte) ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid := t.root
	for {
		fr, err := t.pool.Get(t.file, storage.PageID(pid))
		if err != nil {
			return nil, false, err
		}
		n := node{fr.Data()}
		if n.typ() == nodeInternal {
			pid = n.childFor(key)
			t.pool.Unpin(fr, false)
			continue
		}
		pos, found := n.search(key)
		if !found {
			t.pool.Unpin(fr, false)
			return nil, false, nil
		}
		val := append([]byte(nil), n.leafValue(pos)...)
		t.pool.Unpin(fr, false)
		return val, true, nil
	}
}

// Delete removes a key, reporting whether it existed. Pages are never
// merged; sparse pages are reclaimed by the next checkpoint's compaction.
func (t *BTree) Delete(key []byte) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	pid := t.root
	for {
		fr, err := t.pool.Get(t.file, storage.PageID(pid))
		if err != nil {
			return false, err
		}
		n := node{fr.Data()}
		if n.typ() == nodeInternal {
			pid = n.childFor(key)
			t.pool.Unpin(fr, false)
			continue
		}
		pos, found := n.search(key)
		if !found {
			t.pool.Unpin(fr, false)
			return false, nil
		}
		n.removeSlot(pos)
		t.pool.Unpin(fr, true)
		t.count--
		return true, nil
	}
}

// leftmostLeaf returns the page id of the smallest-keyed leaf.
func (t *BTree) leftmostLeaf(sink obs.Sink) (int64, error) {
	pid := t.root
	for {
		fr, err := t.pool.GetT(t.file, storage.PageID(pid), sink)
		if err != nil {
			return 0, err
		}
		n := node{fr.Data()}
		if n.typ() == nodeLeaf {
			t.pool.Unpin(fr, false)
			return pid, nil
		}
		pid = n.aux()
		t.pool.Unpin(fr, false)
	}
}

// leafFor returns the page id of the leaf that would contain key.
func (t *BTree) leafFor(key []byte, sink obs.Sink) (int64, error) {
	pid := t.root
	for {
		fr, err := t.pool.GetT(t.file, storage.PageID(pid), sink)
		if err != nil {
			return 0, err
		}
		n := node{fr.Data()}
		if n.typ() == nodeLeaf {
			t.pool.Unpin(fr, false)
			return pid, nil
		}
		pid = n.childFor(key)
		t.pool.Unpin(fr, false)
	}
}

// Checkpoint writes a compacted shadow copy of the tree and atomically
// renames it over the current file. On return all keys are durable and the
// WAL up to this point may be truncated.
func (t *BTree) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Flush in-pool dirty pages into the current file first so the scan
	// below sees them... they are already visible via the pool; the scan
	// uses the pool, so no flush is needed. Build the shadow directly.
	tmpPath := t.path + ".ckpt"
	if err := fault.Remove(t.inj, tmpPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	shadow, err := storage.OpenPagedFileFault(tmpPath, t.inj, "btree")
	if err != nil {
		return err
	}
	bl, err := newBulkLoader(shadow)
	if err != nil {
		shadow.Close()
		fault.Remove(t.inj, tmpPath)
		return err
	}
	err = t.scanAllLocked(func(key, val []byte) error {
		return bl.Add(key, val)
	})
	if err == nil {
		err = bl.Finish(t.count)
	}
	if err == nil {
		err = shadow.Sync()
	}
	if cerr := shadow.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fault.Remove(t.inj, tmpPath)
		return err
	}
	// Swap: drop cached pages, close the old file, rename, reopen.
	t.pool.DropFile(t.file)
	if err := t.file.Close(); err != nil {
		return err
	}
	if err := fault.Rename(t.inj, tmpPath, t.path); err != nil {
		return err
	}
	f, err := storage.OpenPagedFileFault(t.path, t.inj, "btree")
	if err != nil {
		return err
	}
	t.file = f
	var meta [storage.PageSize]byte
	if err := f.ReadPage(0, meta[:]); err != nil {
		return err
	}
	t.root = int64(binary.LittleEndian.Uint64(meta[8:]))
	t.durableCount = t.count
	return nil
}

// scanAllLocked iterates every key/value in order via the sibling chain.
func (t *BTree) scanAllLocked(fn func(key, val []byte) error) error {
	pid, err := t.leftmostLeaf(obs.Sink{})
	if err != nil {
		return err
	}
	for {
		fr, err := t.pool.Get(t.file, storage.PageID(pid))
		if err != nil {
			return err
		}
		n := node{fr.Data()}
		for i := 0; i < n.count(); i++ {
			if err := fn(n.key(i), n.leafValue(i)); err != nil {
				t.pool.Unpin(fr, false)
				return err
			}
		}
		next := n.aux() // sibling stored as id+1; 0 = none
		t.pool.Unpin(fr, false)
		if next == 0 {
			return nil
		}
		pid = next - 1
	}
}

// MinKey returns the smallest key, or ok=false for an empty tree.
func (t *BTree) MinKey() ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid, err := t.leftmostLeaf(obs.Sink{})
	if err != nil {
		return nil, false, err
	}
	for {
		fr, err := t.pool.Get(t.file, storage.PageID(pid))
		if err != nil {
			return nil, false, err
		}
		n := node{fr.Data()}
		if n.count() > 0 {
			key := append([]byte(nil), n.key(0)...)
			t.pool.Unpin(fr, false)
			return key, true, nil
		}
		next := n.aux()
		t.pool.Unpin(fr, false)
		if next == 0 {
			return nil, false, nil
		}
		pid = next - 1
	}
}

// MaxKey returns the largest key, or ok=false for an empty tree.
func (t *BTree) MaxKey() ([]byte, bool, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pid := t.root
	for {
		fr, err := t.pool.Get(t.file, storage.PageID(pid))
		if err != nil {
			return nil, false, err
		}
		n := node{fr.Data()}
		if n.typ() == nodeInternal {
			next := n.aux()
			if n.count() > 0 {
				next = n.child(n.count() - 1)
			}
			t.pool.Unpin(fr, false)
			pid = next
			continue
		}
		// A rightmost leaf can be empty after deletions; walking back is
		// not supported, so scan forward from the leftmost leaf instead.
		if n.count() == 0 {
			t.pool.Unpin(fr, false)
			return t.maxKeyByScanLocked()
		}
		key := append([]byte(nil), n.key(n.count()-1)...)
		t.pool.Unpin(fr, false)
		return key, true, nil
	}
}

func (t *BTree) maxKeyByScanLocked() ([]byte, bool, error) {
	var last []byte
	err := t.scanAllLocked(func(key, _ []byte) error {
		last = append(last[:0], key...)
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return last, last != nil, nil
}

// SizeBytes returns the allocated file size.
func (t *BTree) SizeBytes() int64 { return t.file.SizeBytes() }

// Path returns the tree's file path.
func (t *BTree) Path() string { return t.path }

// Close releases resources; checkpoint first for durability.
func (t *BTree) Close() error {
	t.pool.DropFile(t.file)
	return t.file.Close()
}

// compareKeys is bytes.Compare, exported to tests via this indirection.
func compareKeys(a, b []byte) int { return bytes.Compare(a, b) }
