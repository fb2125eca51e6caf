package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
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

	root  int64
	count int64 // live keys (in-memory; durable at checkpoint)
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

// InsertMode says what InsertSorted does with a key the tree already
// holds.
type InsertMode uint8

const (
	// Unique refuses a key the tree already holds with ErrDuplicateKey.
	Unique InsertMode = iota
	// Upsert replaces the key's value, which makes WAL redo idempotent.
	Upsert
)

// ErrDuplicateKey is InsertSorted's refusal of a key in Unique mode.
var ErrDuplicateKey = errors.New("btree: duplicate key")

// Insert upserts a key. Replacing an existing key's value returns
// replaced=true.
func (t *BTree) Insert(key, val []byte) (replaced bool, err error) {
	n, err := t.InsertSorted([][]byte{key}, [][]byte{val}, Upsert)
	return n > 0, err
}

// InsertSorted inserts keys[i] with value vals[i] (an empty value for
// every key when vals is nil); keys must be strictly ascending. It
// descends once per leaf the keys land in and appends every entry bound
// for that leaf. A leaf that overflows while every entry still bound for
// it sorts after its last key is left as it is, and the entries go to new
// leaves filled to bulkFillLimit, as a bulk load fills them; any other
// overflow splits the leaf in two by bytes. It returns how many keys replaced an existing one (always
// 0 in Unique mode). An entry too large for a page (CheckEntry) fails the
// call before anything is written; on any later error, entries bound for
// earlier leaves stay inserted: callers that need all-or-nothing probe
// with FirstPresent first.
func (t *BTree) InsertSorted(keys, vals [][]byte, mode InsertMode) (replaced int, err error) {
	for i, key := range keys {
		if i > 0 && bytes.Compare(keys[i-1], key) >= 0 {
			return 0, fmt.Errorf("btree: InsertSorted keys not strictly ascending at %d", i)
		}
		var val []byte
		if vals != nil {
			val = vals[i]
		}
		if err := CheckEntry(key, val); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(keys) > 0 {
		done, news, rep, err := t.insertRec(t.root, nil, keys, vals, mode)
		replaced += rep
		t.count += int64(done - rep)
		if gerr := t.growRoot(news); err == nil {
			err = gerr
		}
		if err != nil {
			return replaced, err
		}
		keys = keys[done:]
		if vals != nil {
			vals = vals[done:]
		}
	}
	return replaced, nil
}

// CheckEntry refuses a key and value that together do not fit one page,
// as a leaf entry or as the internal entry (the key and an 8-byte child
// id) a split copies the key into. InsertSorted and a bulk load refuse
// such an entry before they write anything.
func CheckEntry(key, val []byte) error {
	var lens [binary.MaxVarintLen64]byte
	n := len(binary.AppendUvarint(lens[:0], uint64(len(key)))) + len(key) +
		max(len(binary.AppendUvarint(lens[:0], uint64(len(val))))+len(val), 8)
	if n+2 > storage.PageSize-nodeHeaderSize {
		return fmt.Errorf("btree: entry of %d bytes exceeds page capacity", n)
	}
	return nil
}

// growRoot puts new root nodes above the tree until the children the old
// root split into hang off one node.
func (t *BTree) growRoot(news []childRef) error {
	for len(news) > 0 {
		id, err := t.file.Allocate()
		if err != nil {
			return err
		}
		fr, err := t.pool.NewPage(t.file, id)
		if err != nil {
			return err
		}
		n := initNode(fr.Data(), nodeInternal, t.root)
		t.root = int64(id)
		news, err = t.insertInternal(n, news)
		t.pool.Unpin(fr, true)
		if err != nil {
			return err
		}
	}
	return nil
}

// insertRec descends from page pid, whose keys all sort below upper (nil:
// no bound), to the leaf for keys[0] and inserts the prefix of keys bound
// for that leaf. It returns how many keys it consumed, and the children
// pid split into (each after pid, in key order) for its parent to add.
func (t *BTree) insertRec(pid int64, upper []byte, keys, vals [][]byte, mode InsertMode) (done int, news []childRef, replaced int, err error) {
	fr, err := t.pool.Get(t.file, storage.PageID(pid))
	if err != nil {
		return 0, nil, 0, err
	}
	n := node{fr.Data()}
	switch n.typ() {
	case nodeLeaf:
		m := len(keys)
		if upper != nil {
			m = sort.Search(len(keys), func(i int) bool { return bytes.Compare(keys[i], upper) >= 0 })
		}
		if vals != nil {
			vals = vals[:m]
		}
		done, news, replaced, err = t.insertLeaf(n, keys[:m], vals, mode)
		t.pool.Unpin(fr, true)
		return done, news, replaced, err
	case nodeInternal:
		child, next := n.route(keys[0])
		if next != nil {
			upper = next
		}
		var cNews []childRef
		done, cNews, replaced, err = t.insertRec(child, upper, keys, vals, mode)
		if len(cNews) == 0 {
			t.pool.Unpin(fr, false)
			return done, nil, replaced, err
		}
		// A child that failed part-way still hangs the leaves it made
		// under this node, so that every leaf stays reachable.
		news, ierr := t.insertInternal(n, cNews)
		t.pool.Unpin(fr, true)
		if err == nil {
			err = ierr
		}
		return done, news, replaced, err
	}
	t.pool.Unpin(fr, false)
	return 0, nil, 0, fmt.Errorf("btree: page %d has bad node type %d", pid, n.typ())
}

// insertLeaf appends keys (all bound for leaf n) to it: the one leaf-insert
// routine. It returns how many keys it consumed; after a two-way split it
// stops, and the caller descends again for the rest.
func (t *BTree) insertLeaf(n node, keys, vals [][]byte, mode InsertMode) (done int, news []childRef, replaced int, err error) {
	// Failpoint covering every leaf write, split or not — the in-place
	// append path that "btree.split" cannot reach.
	if err := t.inj.Point("btree.append"); err != nil {
		return 0, nil, 0, err
	}
	var entry []byte
	for i, key := range keys {
		var val []byte
		if vals != nil {
			val = vals[i]
		}
		entry = encodeLeafEntry(entry[:0], key, val)
		pos, found := n.search(key)
		if found {
			if mode == Unique {
				return i, nil, replaced, ErrDuplicateKey
			}
			// Replace: drop the old slot, then fall through to insertion.
			n.removeSlot(pos)
			replaced++
		}
		// Past its last key a leaf takes entries up to bulkFillLimit, like
		// a bulk-loaded one, so that later inserts between its keys do not
		// split it at once.
		full := pos == n.count() && n.count() > 0 && n.usedEnd()+len(entry)+2*(n.count()+1) > bulkFillLimit
		if !full && len(entry)+2 <= n.freeSpace() {
			n.appendEntry(pos, entry)
			continue
		}
		if !full && n.liveBytes()+len(entry)+2*(n.count()+1) <= storage.PageSize-nodeHeaderSize {
			// Compaction: dead bytes from replacements may be reclaimable.
			if err := n.rebuild(n.decodeEntries()); err != nil {
				return i, nil, replaced, err
			}
			n.appendEntry(pos, entry)
			continue
		}
		if err := t.inj.Point("btree.split"); err != nil {
			return i, nil, replaced, err
		}
		if pos == n.count() {
			// Every key left sorts after the leaf's last one: keep the
			// leaf whole and fill new leaves to its right.
			var rest [][]byte
			if vals != nil {
				rest = vals[i:]
			}
			news, err = t.fillLeaves(n, keys[i:], rest)
			if err != nil {
				return i, nil, replaced, err
			}
			return len(keys), news, replaced, nil
		}
		entries := n.decodeEntries()
		entries = insertPair(entries, pos, entryPair{key: append([]byte(nil), key...), val: append([]byte(nil), val...)})
		leftEntries, rightEntries := splitByBytes(entries, true)
		rightID, err := t.file.Allocate()
		if err != nil {
			return i, nil, replaced, err
		}
		rf, err := t.pool.NewPage(t.file, storage.PageID(rightID))
		if err != nil {
			return i, nil, replaced, err
		}
		rn := initNode(rf.Data(), nodeLeaf, n.aux()) // inherit right sibling
		if err := rn.rebuild(rightEntries); err != nil {
			t.pool.Unpin(rf, false)
			return i, nil, replaced, err
		}
		t.pool.Unpin(rf, true)
		if err := n.rebuild(leftEntries); err != nil {
			return i, nil, replaced, err
		}
		n.setAux(int64(rightID) + 1) // sibling pointers store id+1; 0 = none
		sep := append([]byte(nil), rightEntries[0].key...)
		return i + 1, []childRef{{firstKey: sep, pid: int64(rightID)}}, replaced, nil
	}
	return len(keys), nil, replaced, nil
}

// fillLeaves writes keys, which all sort after the last key of leaf n, to
// new leaves filled to bulkFillLimit and chained in after n. n's sibling
// pointer changes only once every new leaf is written, so a failure leaves
// the tree as it was.
func (t *BTree) fillLeaves(n node, keys, vals [][]byte) ([]childRef, error) {
	var entry []byte
	// Every entry fits a page alone (InsertSorted checked), so a leaf
	// takes its first entry whatever its size.
	//
	// Cut the keys into leaves first, then write the leaves right to left
	// so that each one's sibling is known when it is formatted.
	var bounds []int
	for i := 0; i < len(keys); {
		bounds = append(bounds, i)
		used, cnt := nodeHeaderSize, 0
		for ; i < len(keys); i++ {
			var val []byte
			if vals != nil {
				val = vals[i]
			}
			sz := len(encodeLeafEntry(entry[:0], keys[i], val))
			if cnt > 0 && used+sz+2*(cnt+1) > bulkFillLimit {
				break
			}
			used += sz
			cnt++
		}
	}
	bounds = append(bounds, len(keys))
	news := make([]childRef, len(bounds)-1)
	next := n.aux()
	for b := len(bounds) - 2; b >= 0; b-- {
		id, err := t.file.Allocate()
		if err != nil {
			return nil, err
		}
		fr, err := t.pool.NewPage(t.file, id)
		if err != nil {
			return nil, err
		}
		ln := initNode(fr.Data(), nodeLeaf, next)
		for i := bounds[b]; i < bounds[b+1]; i++ {
			var val []byte
			if vals != nil {
				val = vals[i]
			}
			entry = encodeLeafEntry(entry[:0], keys[i], val)
			ln.appendEntry(ln.count(), entry)
		}
		t.pool.Unpin(fr, true)
		next = int64(id) + 1
		news[b] = childRef{firstKey: append([]byte(nil), keys[bounds[b]]...), pid: int64(id)}
	}
	n.setAux(next)
	return news, nil
}

// insertInternal adds the children adds (in key order, each keyed by its
// first key) to internal node n. When n overflows it is split into as many
// nodes as the entries need; the nodes after n are returned for n's parent.
func (t *BTree) insertInternal(n node, adds []childRef) ([]childRef, error) {
	for i, a := range adds {
		pos, found := n.search(a.firstKey)
		if found {
			return nil, fmt.Errorf("btree: duplicate separator key")
		}
		entry := encodeInternalEntry(nil, a.firstKey, a.pid)
		if len(entry)+2 <= n.freeSpace() {
			n.appendEntry(pos, entry)
			continue
		}
		if err := t.inj.Point("btree.split"); err != nil {
			return nil, err
		}
		entries := n.decodeEntries()
		for _, a := range adds[i:] {
			var childImg [8]byte
			binary.LittleEndian.PutUint64(childImg[:], uint64(a.pid))
			p := sort.Search(len(entries), func(j int) bool { return bytes.Compare(entries[j].key, a.firstKey) >= 0 })
			if p < len(entries) && bytes.Equal(entries[p].key, a.firstKey) {
				return nil, fmt.Errorf("btree: duplicate separator key")
			}
			entries = insertPair(entries, p, entryPair{key: a.firstKey, val: childImg[:]})
		}
		return t.splitInternal(n, entries)
	}
	return nil, nil
}

// splitInternal rewrites internal node n from entries, which overflow it:
// n keeps the first part; each later part goes to a new node whose
// leftmost child is the child of the part's first entry, and that entry's
// key moves up.
func (t *BTree) splitInternal(n node, entries []entryPair) ([]childRef, error) {
	parts := splitInternalParts(entries, true)
	var news []childRef
	for _, part := range parts[1:] {
		mid := part[0]
		rightID, err := t.file.Allocate()
		if err != nil {
			return nil, err
		}
		rf, err := t.pool.NewPage(t.file, storage.PageID(rightID))
		if err != nil {
			return nil, err
		}
		rn := initNode(rf.Data(), nodeInternal, int64(binary.LittleEndian.Uint64(mid.val)))
		if err := rn.rebuild(part[1:]); err != nil {
			t.pool.Unpin(rf, false)
			return nil, err
		}
		t.pool.Unpin(rf, true)
		news = append(news, childRef{firstKey: mid.key, pid: int64(rightID)})
	}
	if err := n.rebuild(parts[0]); err != nil {
		return nil, err
	}
	return news, nil
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

// splitInternalParts halves an internal node's entries by bytes until
// every part fits a page. A part that is not the first loses its first
// entry to the level above, so that entry does not count against it.
func splitInternalParts(entries []entryPair, first bool) [][]entryPair {
	size := 0
	for i, e := range entries {
		if i > 0 || first {
			var lenBuf [binary.MaxVarintLen64]byte
			size += binary.PutUvarint(lenBuf[:], uint64(len(e.key))) + len(e.key) + 8 + 2
		}
	}
	if size <= storage.PageSize-nodeHeaderSize {
		return [][]entryPair{entries}
	}
	left, right := splitByBytes(entries, false)
	return append(splitInternalParts(left, first), splitInternalParts(right, false)...)
}

// FirstPresent returns the index of the first of keys (strictly
// ascending) that the tree holds, or -1 when it holds none. Like
// InsertSorted it descends once per leaf the keys land in.
func (t *BTree) FirstPresent(keys [][]byte) (int, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var upper []byte
	for i := 0; i < len(keys); {
		pid, bounded := t.root, false
		for {
			fr, err := t.pool.Get(t.file, storage.PageID(pid))
			if err != nil {
				return 0, err
			}
			n := node{fr.Data()}
			if n.typ() != nodeLeaf {
				child, next := n.route(keys[i])
				if next != nil {
					upper, bounded = append(upper[:0], next...), true
				}
				t.pool.Unpin(fr, false)
				pid = child
				continue
			}
			for ; i < len(keys) && (!bounded || bytes.Compare(keys[i], upper) < 0); i++ {
				if _, found := n.search(keys[i]); found {
					t.pool.Unpin(fr, false)
					return i, nil
				}
			}
			t.pool.Unpin(fr, false)
			break
		}
	}
	return -1, nil
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
			pid, _ = n.route(key)
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
			pid, _ = n.route(key)
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
		pid, _ = n.route(key)
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
