package storage

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// HeapFetchCache remembers the last decoded sealed page so a run of point
// fetches hitting the same page (the common case for index range scans over
// mildly clustered data) decodes it once. It is single-goroutine state.
type HeapFetchCache struct {
	page int64 // sealed page index, -1 = empty
	rows []sqltypes.Row
	sink obs.Sink
}

// NewHeapFetchCache returns an empty fetch cache whose fetches count their
// buffer-pool traffic on sink.
func NewHeapFetchCache(sink obs.Sink) *HeapFetchCache {
	return &HeapFetchCache{page: -1, sink: sink}
}

// FetchRow returns the row at insertion position idx (storage format).
func (h *Heap) FetchRow(idx int64) (sqltypes.Row, error) {
	return h.FetchRowCached(idx, nil)
}

// FetchRowCached is FetchRow with an optional page cache. The returned row
// is a shallow copy and safe to hold until the next call with the same
// cache; callers that unpack SEQUENCE columns in place must clone values
// they mutate — FromStorageRow replaces elements, which is safe here.
func (h *Heap) FetchRowCached(idx int64, c *HeapFetchCache) (sqltypes.Row, error) {
	if idx < 0 {
		return nil, fmt.Errorf("storage: fetch negative row %d", idx)
	}
	h.mu.RLock()
	sealedRows := h.pageCum[len(h.pageCum)-1]
	if idx >= sealedRows {
		// Tail row: copy under the lock; the tail can be resliced by seals.
		off := idx - sealedRows
		if off >= int64(len(h.tailRows)) {
			h.mu.RUnlock()
			return nil, fmt.Errorf("storage: fetch row %d beyond heap end", idx)
		}
		row := append(sqltypes.Row(nil), h.tailRows[off]...)
		h.mu.RUnlock()
		return row, nil
	}
	p := sort.Search(len(h.pageRows), func(i int) bool { return h.pageCum[i+1] > idx })
	off := idx - h.pageCum[p]
	h.mu.RUnlock()

	if c != nil && c.page == int64(p) {
		return append(sqltypes.Row(nil), c.rows[off]...), nil
	}
	var sink obs.Sink
	if c != nil {
		sink = c.sink
	}
	fr, err := h.pool.GetT(h.file, PageID(p+1), sink)
	if err != nil {
		return nil, err
	}
	rows, err := h.decodePage(fr.Data(), nil)
	h.pool.Unpin(fr, false)
	if err != nil {
		return nil, err
	}
	if off >= int64(len(rows)) {
		return nil, fmt.Errorf("storage: fetch row %d: page %d holds %d rows", idx, p, len(rows))
	}
	if c != nil {
		c.page, c.rows = int64(p), rows
		return append(sqltypes.Row(nil), rows[off]...), nil
	}
	return rows[off], nil
}
