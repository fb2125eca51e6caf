package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/fault"
	"repro/internal/storage"
)

// bulkFillLimit leaves head-room in bulk-loaded pages, and in the leaves
// InsertSorted fills past a leaf's last key, so a few later inserts do not
// immediately split every page.
const bulkFillLimit = storage.PageSize - 512

// bulkLoader builds a tree bottom-up from sorted input, writing pages
// sequentially to a fresh file. Page 0 is reserved for the meta page.
type bulkLoader struct {
	f   *storage.PagedFile
	inj *fault.Injector

	pending   []byte // current leaf image being filled
	pendingID storage.PageID
	pendingN  node
	lastKey   []byte
	leaves    []childRef // (first key, page id) per finished leaf
	started   bool
}

type childRef struct {
	firstKey []byte
	pid      int64
}

func newBulkLoader(f *storage.PagedFile) (*bulkLoader, error) {
	return newBulkLoaderFault(f, nil)
}

// newBulkLoaderFault evaluates the "btree.bulkload" failpoint before every
// page write, so torture tests can kill a build at any page boundary.
func newBulkLoaderFault(f *storage.PagedFile, inj *fault.Injector) (*bulkLoader, error) {
	if f.NumPages() != 0 {
		return nil, fmt.Errorf("btree: bulk load into non-empty file")
	}
	if _, err := f.Allocate(); err != nil { // page 0: meta
		return nil, err
	}
	bl := &bulkLoader{f: f, inj: inj}
	return bl, bl.startLeaf()
}

func (bl *bulkLoader) writePage(id storage.PageID, page []byte) error {
	if err := bl.inj.Point("btree.bulkload"); err != nil {
		return err
	}
	return bl.f.WritePage(id, page)
}

func (bl *bulkLoader) startLeaf() error {
	id, err := bl.f.Allocate()
	if err != nil {
		return err
	}
	bl.pending = make([]byte, storage.PageSize)
	bl.pendingN = initNode(bl.pending, nodeLeaf, 0)
	bl.pendingID = id
	bl.started = true
	return nil
}

// Add appends a key/value pair; keys must arrive in strictly ascending
// order.
func (bl *bulkLoader) Add(key, val []byte) error {
	if bl.lastKey != nil && bytes.Compare(key, bl.lastKey) <= 0 {
		return fmt.Errorf("btree: bulk load keys out of order")
	}
	if err := CheckEntry(key, val); err != nil {
		return err
	}
	entry := encodeLeafEntry(nil, key, val)
	n := bl.pendingN
	needsNew := n.usedEnd()+len(entry)+2*(n.count()+1) > bulkFillLimit && n.count() > 0
	if needsNew {
		if err := bl.finishLeaf(true); err != nil {
			return err
		}
		n = bl.pendingN
	}
	if n.count() == 0 {
		bl.leaves = append(bl.leaves, childRef{
			firstKey: append([]byte(nil), key...),
			pid:      int64(bl.pendingID),
		})
	}
	n.appendEntry(n.count(), entry)
	bl.lastKey = append(bl.lastKey[:0], key...)
	return nil
}

// finishLeaf writes the pending leaf; hasNext links its sibling pointer to
// the page that the next allocation will produce.
func (bl *bulkLoader) finishLeaf(hasNext bool) error {
	if hasNext {
		bl.pendingN.setAux(int64(bl.pendingID) + 2) // next alloc id, +1 encoded
	} else {
		bl.pendingN.setAux(0)
	}
	if err := bl.writePage(bl.pendingID, bl.pending); err != nil {
		return err
	}
	if hasNext {
		return bl.startLeaf()
	}
	return nil
}

// Finish writes the final leaf, builds the internal levels, and writes the
// meta page with the given logical key count.
func (bl *bulkLoader) Finish(count int64) error {
	if err := bl.finishLeaf(false); err != nil {
		return err
	}
	level := bl.leaves
	if len(level) == 0 {
		// Empty tree: the single empty pending leaf is the root.
		level = []childRef{{pid: int64(bl.pendingID)}}
	}
	for len(level) > 1 {
		var next []childRef
		i := 0
		for i < len(level) {
			id, err := bl.f.Allocate()
			if err != nil {
				return err
			}
			page := make([]byte, storage.PageSize)
			n := initNode(page, nodeInternal, level[i].pid)
			next = append(next, childRef{firstKey: level[i].firstKey, pid: int64(id)})
			i++
			for i < len(level) {
				entry := encodeInternalEntry(nil, level[i].firstKey, level[i].pid)
				if n.usedEnd()+len(entry)+2*(n.count()+1) > bulkFillLimit {
					break
				}
				n.appendEntry(n.count(), entry)
				i++
			}
			if err := bl.writePage(id, page); err != nil {
				return err
			}
		}
		level = next
	}
	var meta [storage.PageSize]byte
	copy(meta[0:4], btreeMagic)
	binary.LittleEndian.PutUint64(meta[8:], uint64(level[0].pid))
	binary.LittleEndian.PutUint64(meta[16:], uint64(count))
	return bl.writePage(0, meta[:])
}

// BulkLoad builds a fresh tree at path from sorted key/value pairs
// delivered by next (returning ok=false at the end). Existing trees at the
// path are replaced. The pairs must be strictly ascending by key.
func BulkLoad(path string, pool *storage.BufferPool, next func() (key, val []byte, ok bool, err error)) (*BTree, error) {
	return BulkLoadFault(path, pool, nil, next)
}

// BulkLoadFault is BulkLoad with fault-injection routing (site "btree",
// failpoint "btree.bulkload" before every page write), so index builds can
// be crash-tortured like any other write path.
func BulkLoadFault(path string, pool *storage.BufferPool, inj *fault.Injector, next func() (key, val []byte, ok bool, err error)) (*BTree, error) {
	f, err := storage.OpenPagedFileFault(path, inj, "btree")
	if err != nil {
		return nil, err
	}
	if f.NumPages() != 0 {
		f.Close()
		return nil, fmt.Errorf("btree: BulkLoad target %s already exists", path)
	}
	bl, err := newBulkLoaderFault(f, inj)
	if err != nil {
		f.Close()
		return nil, err
	}
	var count int64
	for {
		key, val, ok, err := next()
		if err != nil {
			f.Close()
			return nil, err
		}
		if !ok {
			break
		}
		if err := bl.Add(key, val); err != nil {
			f.Close()
			return nil, err
		}
		count++
	}
	if err := bl.Finish(count); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return OpenFault(path, pool, inj)
}
