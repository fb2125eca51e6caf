package storage

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// HeapFetchCache remembers the last decoded sealed page so a run of point
// fetches hitting the same page (the common case for index range scans over
// mildly clustered data) decodes it once. It is single-goroutine state.
type HeapFetchCache struct {
	page int64     // sealed page index, -1 = empty
	b    vec.Batch // the page's vectors
	sink obs.Sink
}

// NewHeapFetchCache returns an empty fetch cache whose fetches count their
// buffer-pool traffic on sink. Decoding counts nowhere: the scan.* counters
// are the work of table scans.
func NewHeapFetchCache(sink obs.Sink) *HeapFetchCache {
	return &HeapFetchCache{page: -1, sink: sink}
}

// FetchRowCached returns the row at insertion position idx (storage
// format), read off the cached page's vectors when idx falls on the page
// fetched last. The row is the caller's: a slice of its own whose byte
// cells share the cached page, so callers that unpack SEQUENCE columns must
// replace elements (FromStorageRow does), not write into them.
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

	if c.page != int64(p) {
		cols, _, err := h.sealedPage(int64(p), c.sink, obs.Sink{})
		if err != nil {
			return nil, err
		}
		c.page, c.b = int64(p), vec.Batch{Cols: cols}
	}
	if off >= int64(c.b.Rows()) {
		return nil, fmt.Errorf("storage: fetch row %d: page %d holds %d rows", idx, p, c.b.Rows())
	}
	return c.b.ReadRow(int(off), nil)
}
