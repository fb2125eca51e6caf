package storage

import (
	"fmt"
	"sort"

	"repro/internal/obs"
	"repro/internal/vec"
)

// HeapFetchCache holds the vectors a run of point fetches reads positions
// off: the sealed page fetched last, so fetches hitting one page (the
// common case for index range scans over mildly clustered data) take it
// from the pool once — its frame keeps the decoded form, so a warm page is
// not decoded at all — and, from the first fetch past the sealed pages on,
// one snapshot of the tail. It is single-goroutine state.
type HeapFetchCache struct {
	page     int64         // sealed page index, -1 = empty
	cols     []*vec.Vector // the page's vectors
	rows     int           // and its row count
	tail     []*vec.Vector // the tail snapshot, nil until a fetch reaches the tail
	tailAt   int64         // global row index of the snapshot's first row
	tailRows int           // rows in the snapshot
	sink     obs.Sink
}

// NewHeapFetchCache returns an empty fetch cache whose fetches count their
// buffer-pool traffic on sink. Decoding counts nowhere: the scan.* counters
// are the work of table scans.
func NewHeapFetchCache(sink obs.Sink) *HeapFetchCache {
	return &HeapFetchCache{page: -1, sink: sink}
}

// FetchRowCached locates the row at insertion position idx: it returns the
// vectors holding it (storage format: the cached sealed page's, or the tail
// snapshot's) and its physical row in them. Fetches on one page return the
// same vectors, so a caller reads them and never writes a cell.
func (h *Heap) FetchRowCached(idx int64, c *HeapFetchCache) ([]*vec.Vector, int, error) {
	if idx < 0 {
		return nil, 0, fmt.Errorf("storage: fetch negative row %d", idx)
	}
	if off := idx - c.tailAt; c.tail != nil && off >= 0 && off < int64(c.tailRows) {
		return c.tail, int(off), nil
	}
	h.mu.RLock()
	sealedRows := h.pageCum[len(h.pageCum)-1]
	if idx >= sealedRows {
		off := idx - sealedRows
		if off >= int64(len(h.tailRows)) {
			h.mu.RUnlock()
			return nil, 0, fmt.Errorf("storage: fetch row %d beyond heap end", idx)
		}
		// Transposed under the lock: seals reslice the tail.
		c.tail, c.tailAt, c.tailRows = rowsToVectors(h.kinds, h.tailRows), sealedRows, len(h.tailRows)
		h.mu.RUnlock()
		return c.tail, int(off), nil
	}
	p := sort.Search(len(h.pageRows), func(i int) bool { return h.pageCum[i+1] > idx })
	off := idx - h.pageCum[p]
	h.mu.RUnlock()

	if c.page != int64(p) {
		cols, n, err := h.sealedPage(int64(p), c.sink, obs.Sink{})
		if err != nil {
			return nil, 0, err
		}
		c.page, c.cols, c.rows = int64(p), cols, n
	}
	if off >= int64(c.rows) {
		return nil, 0, fmt.Errorf("storage: fetch row %d: page %d holds %d rows", idx, p, c.rows)
	}
	return c.cols, int(off), nil
}
