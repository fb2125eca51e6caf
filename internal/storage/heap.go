package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// Heap page layout. Page 0 is the meta page:
//
//	magic   [4]byte "GHP1"
//	comp    byte
//	durableRows  uint64    rows persisted at the last checkpoint
//	durablePages uint64    data pages persisted at the last checkpoint
//
// Data pages (ids >= 1):
//
//	type   byte  (1 = rowpage, 2 = page-compressed, 3 = columnar)
//	comp   byte
//	rows   uint16
//	used   uint16  payload length
//	payload from byte 16
const (
	heapMagic      = "GHP1"
	heapHeaderSize = 16
	heapCapacity   = PageSize - heapHeaderSize

	pageTypeRows       = 1
	pageTypeCompressed = 2
)

// Heap is an append-organized table file — the engine's equivalent of a
// SQL Server heap. Appends accumulate in an in-memory tail page that is
// sealed to disk when full; the meta page records the durable row count
// for the WAL's idempotent-redo protocol.
type Heap struct {
	mu    sync.RWMutex
	file  *PagedFile
	pool  *BufferPool
	kinds []sqltypes.Kind
	comp  Compression
	codec RowCodec

	rowCount    int64   // total rows including the in-memory tail
	pageRows    []int   // rows per sealed data page (index 0 = page 1)
	pageCum     []int64 // pageCum[i] = rows in sealed pages [0, i); len = len(pageRows)+1
	durableRows int64   // as recorded on the meta page
	// zones holds per-page min/max summaries, parallel to pageRows; a nil
	// element means "not collected" and the page is never skipped. See
	// zonemap.go.
	zones [][]ZoneEntry

	checksums bool     // stamp CRC32C on sealed pages
	sink      obs.Sink // page verifications count here

	// In-memory tail.
	tailRows  []sqltypes.Row // retained for CompressPage mode and truncation
	tailBytes []byte         // row-format encoding (modes none/row)
	tailOffs  []int          // start offset of each tail row in tailBytes
	nextCheck int            // page-compression size re-check threshold
}

// OpenHeap opens or creates a heap with the given column kinds and
// compression mode. An existing file is truncated back to its durable
// state (rows beyond the last checkpoint are discarded; the WAL replays
// them).
func OpenHeap(path string, kinds []sqltypes.Kind, comp Compression, pool *BufferPool) (*Heap, error) {
	return OpenHeapWidths(path, kinds, nil, comp, pool)
}

// OpenHeapWidths is OpenHeap with explicit fixed integer widths for the
// uncompressed row format (see RowCodec.Widths).
func OpenHeapWidths(path string, kinds []sqltypes.Kind, widths []uint8, comp Compression, pool *BufferPool) (*Heap, error) {
	return OpenHeapEnv(path, kinds, widths, comp, pool, HeapEnv{})
}

// HeapEnv carries cross-cutting wiring into a heap: fault injection,
// where page verifications are counted, and the checksum switch. The zero
// value means no injection, no counting, checksums on.
type HeapEnv struct {
	// Injector routes the heap's file I/O through failpoints; nil means
	// direct OS I/O.
	Injector *fault.Injector
	// Sink receives the page-verification counts.
	Sink obs.Sink
	// DisableChecksums writes legacy (version-0) pages and skips all
	// verification — for format-compatibility tests and A/B benchmarks.
	DisableChecksums bool
}

// OpenHeapEnv is OpenHeapWidths with fault-injection and counter wiring.
func OpenHeapEnv(path string, kinds []sqltypes.Kind, widths []uint8, comp Compression, pool *BufferPool, env HeapEnv) (*Heap, error) {
	f, err := OpenPagedFileFault(path, env.Injector, "heap")
	if err != nil {
		return nil, err
	}
	h := &Heap{
		file:      f,
		pool:      pool,
		kinds:     append([]sqltypes.Kind(nil), kinds...),
		comp:      comp,
		codec:     RowCodec{Kinds: kinds, Mode: rowMode(comp), Widths: widths},
		pageCum:   []int64{0},
		checksums: !env.DisableChecksums,
		sink:      env.Sink,
	}
	if h.checksums {
		// Verify data pages on every read that comes from disk (the
		// buffer pool calls this on misses; warm hits never re-verify).
		f.SetPageVerifier(func(id PageID, data []byte) error {
			if id == 0 {
				return nil // meta page has its own magic, no checksum
			}
			return h.verifyDataPage(id, data)
		})
	}
	if f.NumPages() == 0 {
		if _, err := f.Allocate(); err != nil {
			f.Close()
			return nil, err
		}
		if err := h.writeMeta(); err != nil {
			f.Close()
			return nil, err
		}
		return h, nil
	}
	if err := h.loadAndRecover(); err != nil {
		f.Close()
		return nil, err
	}
	return h, nil
}

// rowMode maps the table compression mode to the row codec mode: page
// compression stores rows in ROW format when a page does not benefit from
// page-level coding, and the in-memory tail is always raw rows.
func rowMode(c Compression) Compression {
	if c == CompressNone {
		return CompressNone
	}
	return CompressRow
}

func (h *Heap) writeMeta() error {
	var page [PageSize]byte
	copy(page[0:4], heapMagic)
	page[4] = byte(h.comp)
	binary.LittleEndian.PutUint64(page[8:], uint64(h.durableRows))
	binary.LittleEndian.PutUint64(page[16:], uint64(len(h.pageRows)))
	return h.file.WritePage(0, page[:])
}

func (h *Heap) loadAndRecover() error {
	var meta [PageSize]byte
	if err := h.file.ReadPage(0, meta[:]); err != nil {
		return err
	}
	if string(meta[0:4]) != heapMagic {
		return fmt.Errorf("storage: %s is not a heap file", h.file.Path())
	}
	if Compression(meta[4]) != h.comp {
		return fmt.Errorf("storage: %s compression %s does not match declared %s",
			h.file.Path(), Compression(meta[4]), h.comp)
	}
	durableRows := int64(binary.LittleEndian.Uint64(meta[8:]))
	durablePages := int64(binary.LittleEndian.Uint64(meta[16:]))
	if durablePages+1 > h.file.NumPages() {
		return fmt.Errorf("storage: %s meta claims %d pages, file has %d",
			h.file.Path(), durablePages, h.file.NumPages()-1)
	}
	// Discard anything written after the last completed checkpoint.
	if err := h.file.Truncate(durablePages + 1); err != nil {
		return err
	}
	var buf [PageSize]byte
	total := int64(0)
	h.pageRows = h.pageRows[:0]
	h.pageCum = append(h.pageCum[:0], 0)
	for p := int64(1); p <= durablePages; p++ {
		if err := h.file.ReadPage(PageID(p), buf[:]); err != nil {
			return err
		}
		n := int(binary.LittleEndian.Uint16(buf[2:]))
		h.pageRows = append(h.pageRows, n)
		total += int64(n)
		h.pageCum = append(h.pageCum, total)
	}
	if total < durableRows {
		return fmt.Errorf("storage: %s pages hold %d rows, meta claims %d", h.file.Path(), total, durableRows)
	}
	// A checkpoint may have persisted a partially-filled tail page; if the
	// meta row count is smaller, drop the excess rows back into the tail.
	if total > durableRows {
		excess := total - durableRows
		last := int64(len(h.pageRows))
		if int64(h.pageRows[last-1]) < excess {
			return fmt.Errorf("storage: %s inconsistent meta: excess %d rows beyond last page", h.file.Path(), excess)
		}
		rows, err := h.decodePage(buf[:]) // buf still holds the last page
		if err != nil {
			return err
		}
		keep := rows[:int64(len(rows))-excess]
		h.pageRows = h.pageRows[:last-1]
		h.pageCum = h.pageCum[:last]
		if err := h.file.Truncate(last); err != nil { // drop the partial page
			return err
		}
		h.rowCount = durableRows - int64(len(keep))
		for _, r := range keep {
			if err := h.Append(r); err != nil {
				return err
			}
		}
	}
	h.rowCount = durableRows
	h.durableRows = durableRows
	return nil
}

// Kinds returns the column kinds.
func (h *Heap) Kinds() []sqltypes.Kind { return h.kinds }

// Compression returns the table's compression mode.
func (h *Heap) Compression() Compression { return h.comp }

// RowCount returns the total number of rows, including the unsealed tail.
func (h *Heap) RowCount() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.rowCount
}

// DurableRows returns the row count persisted by the last checkpoint.
func (h *Heap) DurableRows() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.durableRows
}

// Append adds a row at the end of the heap.
func (h *Heap) Append(row sqltypes.Row) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.appendLocked(row)
}

// CheckRow refuses a row Append would refuse: one that does not encode,
// or does not fit a page.
func (h *Heap) CheckRow(row sqltypes.Row) error {
	var buf [256]byte
	enc, err := h.codec.EncodeAppend(buf[:0], row)
	if err != nil {
		return err
	}
	if len(enc) > heapCapacity {
		return errRowTooLarge(len(enc))
	}
	return nil
}

func errRowTooLarge(n int) error {
	return fmt.Errorf("storage: row of %d bytes exceeds page capacity %d", n, heapCapacity)
}

func (h *Heap) appendLocked(row sqltypes.Row) error {
	start := len(h.tailBytes)
	enc, err := h.codec.EncodeAppend(h.tailBytes, row)
	if err != nil {
		return err
	}
	if rowLen := len(enc) - start; rowLen > heapCapacity {
		h.tailBytes = h.tailBytes[:start]
		return errRowTooLarge(rowLen)
	}
	h.tailBytes = enc
	h.tailOffs = append(h.tailOffs, start)
	h.tailRows = append(h.tailRows, row.Clone())
	h.rowCount++

	if h.comp != CompressPage {
		if len(h.tailBytes) > heapCapacity {
			return h.sealAllButLastLocked()
		}
		return nil
	}
	// Page compression: the ROW-format image may exceed the page as long
	// as the compressed image still fits. Compressing on every append
	// would be quadratic, so re-check only when the raw size passes
	// nextCheck; the threshold advances by the remaining head-room (the
	// compressed image grows at most as fast as the raw one).
	if len(h.tailBytes) <= heapCapacity || len(h.tailBytes) < h.nextCheck {
		return nil
	}
	comp, err := CompressPageRows(h.kinds, h.tailRows)
	if err != nil {
		return err
	}
	if len(comp) >= heapCapacity {
		return h.sealAllButLastLocked()
	}
	h.nextCheck = len(h.tailBytes) + (heapCapacity-len(comp))/2
	return nil
}

// sealAllButLastLocked seals the tail minus its newest row (which
// triggered the overflow), then starts a fresh tail with that row.
func (h *Heap) sealAllButLastLocked() error {
	n := len(h.tailRows)
	last := h.tailRows[n-1]
	h.tailRows = h.tailRows[:n-1]
	h.tailBytes = h.tailBytes[:h.tailOffs[n-1]]
	h.tailOffs = h.tailOffs[:n-1]
	if err := h.sealTailLocked(); err != nil {
		return err
	}
	h.rowCount-- // appendLocked will count it again
	return h.appendLocked(last)
}

// sealTailLocked writes the tail as a new data page. If the page image
// overflows (possible with page compression between re-checks), rows are
// popped until it fits and re-appended afterwards.
func (h *Heap) sealTailLocked() error {
	if len(h.tailRows) == 0 {
		return nil
	}
	var overflow []sqltypes.Row
	var page []byte
	var sealed int
	for {
		var err error
		page, sealed, err = h.buildTailPageLocked()
		if err == nil {
			break
		}
		if err != errPageOverflow || len(h.tailRows) <= 1 {
			return err
		}
		n := len(h.tailRows)
		overflow = append(overflow, h.tailRows[n-1])
		h.tailRows = h.tailRows[:n-1]
		h.tailBytes = h.tailBytes[:h.tailOffs[n-1]]
		h.tailOffs = h.tailOffs[:n-1]
	}
	id, err := h.file.Allocate()
	if err != nil {
		return err
	}
	if err := h.file.WritePage(id, page); err != nil {
		return err
	}
	h.pageRows = append(h.pageRows, sealed)
	h.pageCum = append(h.pageCum, h.pageCum[len(h.pageCum)-1]+int64(sealed))
	h.noteSealedZonesLocked(h.tailRows) // h.tailRows holds exactly the sealed rows here
	h.tailRows = h.tailRows[:0]
	h.tailBytes = h.tailBytes[:0]
	h.tailOffs = h.tailOffs[:0]
	h.nextCheck = 0
	for i := len(overflow) - 1; i >= 0; i-- { // restore original order
		h.rowCount--
		if err := h.appendLocked(overflow[i]); err != nil {
			return err
		}
	}
	return nil
}

// errPageOverflow signals that a page image exceeds the page capacity.
var errPageOverflow = fmt.Errorf("storage: sealed payload exceeds page capacity")

// buildTailPageLocked renders the tail rows as a page image.
func (h *Heap) buildTailPageLocked() ([]byte, int, error) {
	payload := h.tailBytes
	ptype := byte(pageTypeRows)
	if h.comp == CompressPage {
		comp, err := CompressPageRows(h.kinds, h.tailRows)
		if err != nil {
			return nil, 0, err
		}
		// Fall back to ROW format when page coding does not pay off, as
		// SQL Server does.
		if len(comp) < len(payload) {
			payload = comp
			ptype = pageTypeCompressed
		}
		// The columnar format wins on low-NDV columns (dictionary/RLE
		// codes) and additionally feeds the vectorized scanner without a
		// row detour; take it when it is the smallest of the three.
		colImg, err := EncodeColumnarPage(h.kinds, h.tailRows, len(payload))
		if err != nil {
			return nil, 0, err
		}
		if colImg != nil && len(colImg) < len(payload) {
			payload = colImg
			ptype = pageTypeColumnar
		}
	}
	if len(payload) > heapCapacity {
		return nil, 0, errPageOverflow
	}
	page := make([]byte, PageSize)
	page[0] = ptype
	page[1] = byte(h.comp)
	binary.LittleEndian.PutUint16(page[2:], uint16(len(h.tailRows)))
	binary.LittleEndian.PutUint16(page[4:], uint16(len(payload)))
	copy(page[heapHeaderSize:], payload)
	if h.checksums {
		stampPageChecksum(page)
	}
	return page, len(h.tailRows), nil
}

// verifyDataPage checks a sealed data page's CRC32C (version-1 pages;
// legacy version-0 pages pass unverified) and counts the
// verification. Returns a *CorruptPageError on mismatch.
func (h *Heap) verifyDataPage(id PageID, data []byte) error {
	checked, err := checkPageChecksum(h.file.Path(), id, data)
	if checked {
		h.sink.Add(obs.PagesVerified, 1)
	}
	if err != nil {
		h.sink.Add(obs.ChecksumFailures, 1)
	}
	return err
}

// VerifyChecksums reads every sealed data page from disk and checks its
// checksum. It returns the number of pages checked, the number skipped
// (legacy version-0 pages, which carry no checksum), and one error per
// bad page (checksum mismatches and read failures). The buffer pool is
// bypassed so the scan validates the actual on-disk bytes.
func (h *Heap) VerifyChecksums() (checked, skipped int64, failures []error) {
	h.mu.RLock()
	sealed := int64(len(h.pageRows))
	h.mu.RUnlock()
	var buf [PageSize]byte
	for p := int64(1); p <= sealed; p++ {
		if err := h.file.ReadPage(PageID(p), buf[:]); err != nil {
			failures = append(failures, err)
			continue
		}
		wasChecked, err := checkPageChecksum(h.file.Path(), PageID(p), buf[:])
		if !wasChecked {
			skipped++
			continue
		}
		checked++
		h.sink.Add(obs.PagesVerified, 1)
		if err != nil {
			h.sink.Add(obs.ChecksumFailures, 1)
			failures = append(failures, err)
		}
	}
	return checked, skipped, failures
}

// pagePayload returns the row count and payload of a data page image.
// The used-bytes field is only covered by a checksum on version-1 pages,
// so it is checked against the page before it is used to slice.
func pagePayload(page []byte) (n int, payload []byte, err error) {
	n = int(binary.LittleEndian.Uint16(page[2:]))
	used := int(binary.LittleEndian.Uint16(page[4:]))
	if heapHeaderSize+used > len(page) {
		return 0, nil, fmt.Errorf("storage: page header claims %d payload bytes, a page holds %d: %w",
			used, len(page)-heapHeaderSize, ErrCorruptPage)
	}
	return n, page[heapHeaderSize : heapHeaderSize+used], nil
}

// SealedPages returns the number of sealed data pages, the unit of
// parallel scan partitioning.
func (h *Heap) SealedPages() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int64(len(h.pageRows))
}

// PageOf returns the sealed page holding row idx, or the sealed page
// count when the row is in the tail: the first page a scan of the rows
// from idx on reads. Rows never move pages, so the answer stays a valid
// start while the heap grows.
func (h *Heap) PageOf(idx int64) int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return int64(sort.Search(len(h.pageRows), func(i int) bool { return h.pageCum[i+1] > idx }))
}

// Checkpoint persists all rows (sealing the tail as a partial page), syncs
// the file, and records the durable row count on the meta page. After a
// successful checkpoint the WAL up to this point may be truncated.
func (h *Heap) Checkpoint() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	// Seal the partial tail as a final (possibly under-filled) page;
	// subsequent appends start a fresh page. Checkpoints are rare enough
	// that the fragmentation is negligible. Sealing can leave re-appended
	// overflow rows in the tail, hence the loop.
	for len(h.tailRows) > 0 {
		if err := h.sealTailLocked(); err != nil {
			return err
		}
	}
	if err := h.file.Sync(); err != nil {
		return err
	}
	h.durableRows = h.rowCount
	if err := h.writeMeta(); err != nil {
		return err
	}
	return h.file.Sync()
}

// Truncate discards rows from the end until n remain — the rollback path
// for aborted transactions. It only supports truncating back to a point at
// or after the last checkpoint (the WAL cannot need to undo further).
func (h *Heap) Truncate(n int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if n < 0 || n > h.rowCount {
		return fmt.Errorf("storage: truncate to %d of %d rows", n, h.rowCount)
	}
	if n < h.durableRows {
		return fmt.Errorf("storage: cannot truncate to %d, below durable row count %d", n, h.durableRows)
	}
	for h.rowCount > n {
		drop := h.rowCount - n
		if int64(len(h.tailRows)) >= drop {
			h.tailRows = h.tailRows[:int64(len(h.tailRows))-drop]
			h.tailOffs = h.tailOffs[:len(h.tailRows)]
			if len(h.tailOffs) > 0 {
				h.tailBytes = h.tailBytes[:h.tailOffs[len(h.tailOffs)-1]+rowEncLen(h.codec, h.tailRows[len(h.tailRows)-1])]
			} else {
				h.tailBytes = h.tailBytes[:0]
			}
			h.rowCount = n
			break
		}
		// Tail is not enough: pull the last sealed page back into memory.
		h.rowCount -= int64(len(h.tailRows))
		h.tailRows = h.tailRows[:0]
		h.tailBytes = h.tailBytes[:0]
		h.tailOffs = h.tailOffs[:0]
		h.nextCheck = 0
		last := int64(len(h.pageRows))
		if last == 0 {
			return fmt.Errorf("storage: truncate bookkeeping underflow")
		}
		rows, err := h.sealedPageRows(last - 1)
		if err != nil {
			return err
		}
		h.pageRows = h.pageRows[:last-1]
		h.pageCum = h.pageCum[:last]
		if int64(len(h.zones)) >= last {
			h.zones = h.zones[:last-1]
		}
		h.rowCount -= int64(len(rows))
		h.pool.DropFile(h.file) // stale cache below the truncation point
		if err := h.file.Truncate(last); err != nil {
			return err
		}
		for _, r := range rows {
			if err := h.appendLocked(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// rowEncLen returns the encoded length of row under codec.
func rowEncLen(c RowCodec, row sqltypes.Row) int {
	enc, err := c.EncodeAppend(nil, row)
	if err != nil {
		return 0
	}
	return len(enc)
}

// SizeBytes returns the allocated on-disk size, including the meta page.
func (h *Heap) SizeBytes() int64 { return h.file.SizeBytes() }

// UsedBytes returns the payload bytes across sealed pages plus the tail.
func (h *Heap) UsedBytes() (int64, error) {
	h.mu.RLock()
	sealed := int64(len(h.pageRows))
	tail := int64(len(h.tailBytes))
	h.mu.RUnlock()
	total := tail
	var buf [PageSize]byte
	for p := int64(1); p <= sealed; p++ {
		if err := h.file.ReadPage(PageID(p), buf[:]); err != nil {
			return 0, err
		}
		total += int64(binary.LittleEndian.Uint16(buf[4:]))
	}
	return total, nil
}

// Close flushes nothing (checkpoint first for durability) and releases the
// file handle.
func (h *Heap) Close() error {
	h.pool.DropFile(h.file)
	return h.file.Close()
}

// File exposes the underlying paged file for size accounting.
func (h *Heap) File() *PagedFile { return h.file }
