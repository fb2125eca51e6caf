package storage

import (
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// HeapIterator is a pull-based scan over a range of sealed heap pages,
// optionally followed by a snapshot of the in-memory tail. It is the
// access path behind the engine's partitioned parallel table scans.
type HeapIterator struct {
	h        *Heap
	page     int64 // next sealed page (0-based)
	hiPage   int64
	buf      []sqltypes.Row
	pos      int
	tail     []sqltypes.Row // snapshot, served after the pages
	tailDone bool
}

// NewIterator returns an iterator over sealed pages [loPage, hiPage) and,
// when includeTail is set, the current tail rows. The tail is snapshotted
// at creation; concurrent appends are not visible.
func (h *Heap) NewIterator(loPage, hiPage int64, includeTail bool) *HeapIterator {
	it := &HeapIterator{h: h, page: loPage, hiPage: hiPage, tailDone: !includeTail}
	if includeTail {
		h.mu.RLock()
		it.tail = snapshotTail(h.tailRows)
		h.mu.RUnlock()
	}
	return it
}

// Next returns the next row. Rows are safe to retain (pages are decoded
// with copying).
func (it *HeapIterator) Next() (sqltypes.Row, bool, error) {
	for {
		if it.pos < len(it.buf) {
			r := it.buf[it.pos]
			it.pos++
			return r, true, nil
		}
		if it.page < it.hiPage {
			fr, err := it.h.pool.Get(it.h.file, PageID(it.page+1))
			if err != nil {
				return nil, false, err
			}
			rows, err := it.h.decodePage(fr.Data(), it.buf[:0])
			it.h.pool.Unpin(fr, false)
			if err != nil {
				return nil, false, err
			}
			it.buf = rows
			it.pos = 0
			it.page++
			continue
		}
		if !it.tailDone {
			it.buf = it.tail
			it.pos = 0
			it.tail = nil
			it.tailDone = true
			continue
		}
		return nil, false, nil
	}
}

// Close releases nothing (pages are unpinned eagerly) but satisfies the
// iterator contract.
func (it *HeapIterator) Close() error { return nil }

// snapshotTail copies the tail rows into fresh backing arrays. Consumers
// may overwrite cells of the rows they receive (the query layer unpacks
// SEQUENCE cells in place), so handing out the heap's own Row slices
// would corrupt the shared tail for every later scan. Cell contents
// (string/byte payloads) are never mutated and stay shared.
func snapshotTail(tail []sqltypes.Row) []sqltypes.Row {
	out := make([]sqltypes.Row, len(tail))
	for i, r := range tail {
		out[i] = append(sqltypes.Row(nil), r...)
	}
	return out
}

// HeapVersionIterator is a HeapIterator that also reports each row's
// global row index — the coordinate the MVCC layer stamps versions with.
// The partition that owns the table tail ("extend" mode) re-reads the
// sealed-page count at creation, so rows sealed between planning and
// opening are not lost; the visibility filter above hides whatever the
// scan's snapshot should not see.
type HeapVersionIterator struct {
	h       *Heap
	page    int64
	hiPage  int64
	cum     []int64 // captured pageCum (immutable prefix)
	buf     []sqltypes.Row
	pos     int
	baseIdx int64 // global index of buf[0]
	tail    []sqltypes.Row
	tailAt  int64 // global index of tail[0]
	tailOn  bool
	zf      []ZoneFilter
	sink    obs.Sink
}

// SetZoneFilters makes the iterator skip sealed pages whose zone-map
// range cannot satisfy the filters (conservative: pages without entries
// are read). Returns the iterator for chaining.
func (it *HeapVersionIterator) SetZoneFilters(fs []ZoneFilter) *HeapVersionIterator {
	it.zf = fs
	return it
}

// NewVersionIterator returns an indexed iterator over sealed pages
// [loPage, hiPage). With extend=true the upper bound and the tail are
// captured atomically at call time instead (hiPage is ignored): the
// iterator covers every row physically present at creation. Skipped pages
// and buffer-pool traffic count on sink.
func (h *Heap) NewVersionIterator(loPage, hiPage int64, extend bool, sink obs.Sink) *HeapVersionIterator {
	h.mu.RLock()
	defer h.mu.RUnlock()
	it := &HeapVersionIterator{h: h, page: loPage, hiPage: hiPage, cum: h.pageCum, sink: sink}
	if extend {
		it.hiPage = int64(len(h.pageRows))
		it.tail = snapshotTail(h.tailRows)
		it.tailAt = h.rowCount - int64(len(h.tailRows))
		it.tailOn = true
	}
	if it.page > it.hiPage {
		it.page = it.hiPage
	}
	return it
}

// Next returns the next row and its global row index.
func (it *HeapVersionIterator) Next() (sqltypes.Row, int64, bool, error) {
	for {
		if it.pos < len(it.buf) {
			r := it.buf[it.pos]
			idx := it.baseIdx + int64(it.pos)
			it.pos++
			return r, idx, true, nil
		}
		if it.page < it.hiPage {
			if len(it.zf) > 0 && it.h.ZoneSkip(it.page, it.zf) {
				it.sink.Add(obs.ScanZoneSkippedPages, 1)
				it.page++
				continue
			}
			fr, err := it.h.pool.GetT(it.h.file, PageID(it.page+1), it.sink)
			if err != nil {
				return nil, 0, false, err
			}
			rows, err := it.h.decodePage(fr.Data(), it.buf[:0])
			it.h.pool.Unpin(fr, false)
			if err != nil {
				return nil, 0, false, err
			}
			it.buf = rows
			it.pos = 0
			it.baseIdx = it.cum[it.page]
			it.page++
			continue
		}
		if it.tailOn {
			it.buf = it.tail
			it.pos = 0
			it.baseIdx = it.tailAt
			it.tail = nil
			it.tailOn = false
			continue
		}
		return nil, 0, false, nil
	}
}

// Close satisfies the iterator contract.
func (it *HeapVersionIterator) Close() error { return nil }
