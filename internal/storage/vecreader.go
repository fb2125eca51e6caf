package storage

import (
	"fmt"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// decodePageBatch is the one decoder of sealed pages: it builds the page's
// form (pageform.go), which every scan of the page shares. Row pages
// become lazy columns over a copy of the payload (rowpage.go), compressed
// and columnar pages keep their on-page dictionary/RLE coding as
// dictionary vectors. Every column holds exactly the header's row count; a
// payload that says otherwise is corrupt. Cells and dictionary entries
// decoded while building count on sink: for a dictionary- or RLE-encoded
// column only the per-page dictionary entries are ever decoded, so a
// filter over such a column decodes O(distinct values) per page no matter
// how many rows it drops.
func (h *Heap) decodePageBatch(page []byte, sink obs.Sink) (*pageForm, error) {
	n, payload, err := pagePayload(page)
	if err != nil {
		return nil, err
	}
	switch page[0] {
	case pageTypeRows:
		return h.codec.rowForm(append([]byte(nil), payload...), n, nil)
	case pageTypeCompressed:
		return compressedForm(h.kinds, payload, n, sink)
	case pageTypeColumnar:
		return columnarForm(h.kinds, payload, n, sink)
	}
	return nil, fmt.Errorf("storage: unknown heap page type %d: %w", page[0], ErrCorruptPage)
}

// vectorRows reads the n rows (storage form) off a decoded page, into one
// allocation: what recovery, truncation and zone-map collection want, none
// of which keeps a row.
func vectorRows(cols []*vec.Vector, n int) ([]sqltypes.Row, error) {
	b := vec.Batch{Cols: cols}
	w := len(cols)
	cells := make(sqltypes.Row, n*w)
	rows := make([]sqltypes.Row, n)
	for r := range rows {
		var err error
		if rows[r], err = b.ReadRow(r, cells[r*w:(r+1)*w:(r+1)*w]); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// decodePage extracts all rows from a data page image.
func (h *Heap) decodePage(page []byte) ([]sqltypes.Row, error) {
	f, err := h.decodePageBatch(page, obs.Sink{})
	if err != nil {
		return nil, err
	}
	return vectorRows(f.vectors(obs.Sink{}, nil), f.n)
}

// sealedPage pins sealed page p (0-based) and returns fresh vectors over
// its form: the one place heap data pages are taken from the buffer pool.
// The form the page's frame carries is reused; a frame without one has
// the page decoded, and keeps the form if the pool's decoded budget
// allows (BufferPool.keepForm). Either way the vectors are headers over
// the form, so the caller may set their fields but never writes their
// arrays. Pool traffic counts on pool, decoding and pages served from a
// frame's form on scan.
func (h *Heap) sealedPage(p int64, pool, scan obs.Sink) ([]*vec.Vector, int, error) {
	fr, err := h.pool.GetT(h.file, PageID(p+1), pool)
	if err != nil {
		return nil, 0, err
	}
	f := fr.form.Load()
	if f != nil {
		scan.Add(obs.ScanDecodedPageHits, 1)
	} else if f, err = h.decodePageBatch(fr.Data(), scan); err == nil {
		h.pool.keepForm(fr, f)
	}
	h.pool.Unpin(fr, false)
	if err != nil {
		return nil, 0, err
	}
	return f.vectors(scan, nil), f.n, nil
}

// sealedPageRows is sealedPage for the heap's own upkeep: rows, uncounted.
func (h *Heap) sealedPageRows(p int64) ([]sqltypes.Row, error) {
	cols, n, err := h.sealedPage(p, obs.Sink{}, obs.Sink{})
	if err != nil {
		return nil, err
	}
	return vectorRows(cols, n)
}

// rowsToVectors transposes the in-memory tail's rows into typed flat
// vectors.
func rowsToVectors(kinds []sqltypes.Kind, rows []sqltypes.Row) []*vec.Vector {
	cols := make([]*vec.Vector, len(kinds))
	for c, k := range kinds {
		v := vec.NewVector(k, len(rows))
		for _, row := range rows {
			v.Append(row[c])
		}
		cols[c] = v
	}
	return cols
}

// compressedForm converts a page-compressed (type 2) payload of n rows
// into dictionary columns without materializing dropped rows:
// page-dictionary entries decode at most once per column, inline cells are
// appended to the column dictionary as singleton entries.
func compressedForm(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) (*pageForm, error) {
	rd := pageReader{buf: buf}
	nCols := rd.uvarint()
	nRows := rd.uvarint()
	if rd.failed || nCols != uint64(len(kinds)) || nRows != uint64(n) {
		return nil, fmt.Errorf("storage: page holds %d columns of %d rows, schema and header say %d of %d: %w",
			nCols, nRows, len(kinds), n, ErrCorruptPage)
	}
	prefixes := make([][]byte, len(kinds))
	for c := range prefixes {
		prefixes[c] = rd.bytes(rd.length())
	}
	// Every entry costs at least its length byte, which bounds the
	// dictionary (and the per-column maps below) by the payload.
	nDict := rd.length()
	if rd.failed {
		return nil, rd.err()
	}
	pageDict := make([][]byte, nDict)
	for i := range pageDict {
		pageDict[i] = rd.bytes(rd.length())
	}
	f := new(pageForm).init(kinds, n)
	// dictMap[c][i] is the column-dictionary code of page-dict entry i in
	// column c, or -1 while undecoded.
	dictMap := make([][]int32, len(kinds))
	for c := range f.cols {
		f.cols[c].vec.Codes = make([]int32, n)
		f.cols[c].vec.Dict = vec.NewVector(kinds[c], 0)
		dictMap[c] = make([]int32, nDict)
		for i := range dictMap[c] {
			dictMap[c][i] = -1
		}
	}
	nb := (len(kinds) + 7) / 8
	var scratch []byte
	var dictEntries, values int64 // written to sink once, after the page
	for r := 0; r < n; r++ {
		nullBM := rd.bytes(nb)
		dictBM := rd.bytes(nb)
		if rd.failed {
			return nil, rd.err()
		}
		for c := range f.cols {
			col := &f.cols[c].vec
			if nullBM[c/8]&(1<<uint(c%8)) != 0 {
				col.SetNull(r)
				continue
			}
			var sfx []byte
			fromDict := dictBM[c/8]&(1<<uint(c%8)) != 0
			var dictRef uint64
			if fromDict {
				dictRef = rd.uvarint()
				if rd.failed || dictRef >= uint64(nDict) {
					return nil, fmt.Errorf("storage: dictionary index out of range: %w", ErrCorruptPage)
				}
				if code := dictMap[c][dictRef]; code >= 0 {
					col.Codes[r] = code
					continue
				}
				sfx = pageDict[dictRef]
			} else {
				sfx = rd.image(kinds[c])
				if rd.failed {
					return nil, rd.err()
				}
			}
			img := sfx
			if len(prefixes[c]) > 0 {
				scratch = append(scratch[:0], prefixes[c]...)
				scratch = append(scratch, sfx...)
				img = scratch
			}
			if err := appendImage(col.Dict, kinds[c], img); err != nil {
				return nil, err
			}
			code := int32(col.Dict.Len() - 1)
			col.Codes[r] = code
			if fromDict {
				dictMap[c][dictRef] = code
				dictEntries++
			} else {
				values++
			}
		}
	}
	sink.Add(obs.ScanDictEntriesDecoded, dictEntries)
	sink.Add(obs.ScanValuesDecoded, values)
	return f.seal(), nil
}

// columnarForm converts a columnar (type 3) payload of n rows into a
// form: dict/RLE columns keep their codes, flat columns stay lazy — the
// column holds raw cell images and decodes them when a scan first reads
// it, so columns no query touches cost nothing past the structural walk.
// The payload is copied once up front because the images outlive the
// page pin.
func columnarForm(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) (*pageForm, error) {
	buf = append([]byte(nil), buf...)
	cr, err := newColumnarReader(buf, len(kinds), n)
	if err != nil {
		return nil, err
	}
	f := new(pageForm).init(kinds, n)
	f.bytes = int64(len(buf))
	for c, kind := range kinds {
		nulls, dict, codes, flat, err := cr.column(kind)
		if err != nil {
			return nil, err
		}
		col := &f.cols[c].vec
		if codes != nil {
			entries := vec.NewVector(kind, len(dict))
			for _, img := range dict {
				if err := appendImage(entries, kind, img); err != nil {
					return nil, err
				}
			}
			sink.Add(obs.ScanDictEntriesDecoded, int64(len(dict)))
			col.Codes, col.Dict = codes, entries
		} else {
			f.cols[c].src = &flatColumn{kind: kind, imgs: flat}
			f.bytes += int64(unsafe.Sizeof([]byte(nil))) * int64(len(flat))
		}
		if nulls != nil {
			for r := 0; r < n; r++ {
				if nulls[r/8]&(1<<uint(r%8)) != 0 {
					col.SetNull(r)
				}
			}
		}
	}
	return f.seal(), nil
}

// flatColumn is a flat column of a columnar page, still as cell images
// (nil under a null bit): the source of its form column.
type flatColumn struct {
	kind sqltypes.Kind
	imgs [][]byte
}

// fill decodes every non-null image into v's typed array.
func (f *flatColumn) fill(_ int, v *vec.Vector) (int64, error) {
	flat := vec.NewVector(f.kind, len(f.imgs))
	cells := int64(0)
	for _, img := range f.imgs {
		if img == nil {
			flat.Append(sqltypes.Null)
			continue
		}
		if err := appendImage(flat, f.kind, img); err != nil {
			return 0, err
		}
		cells++
	}
	v.ShareArrays(flat)
	return cells, nil
}

// HeapBatchIterator is the heap's one page cursor: it scans sealed pages
// [loPage, hiPage) batch-at-a-time, one page per batch, optionally followed
// by a snapshot of the in-memory tail. Each batch's Base is the global row
// index of its first physical row, the coordinate MVCC visibility ranges
// are expressed in, so physical row r of a batch is the heap's row Base+r;
// a consumer that wants rows reads them off the batch.
type HeapBatchIterator struct {
	h      *Heap
	page   int64
	hiPage int64
	cum    []int64
	tail   []sqltypes.Row
	tailAt int64
	tailOn bool
	sink   obs.Sink
	zf     []ZoneFilter
}

// NewBatchIterator returns a batch iterator over sealed pages
// [loPage, hiPage). With extend=true the upper bound and the tail are
// captured atomically at call time instead (hiPage is ignored), covering
// every row physically present at creation: pages sealed between planning
// and opening are not lost, and the visibility filter above hides whatever
// the scan's snapshot should not see. Scan work, skipped pages and
// buffer-pool traffic count on sink.
func (h *Heap) NewBatchIterator(loPage, hiPage int64, extend bool, sink obs.Sink) *HeapBatchIterator {
	h.mu.RLock()
	defer h.mu.RUnlock()
	it := &HeapBatchIterator{h: h, page: loPage, hiPage: hiPage, cum: h.pageCum, sink: sink}
	if extend {
		it.hiPage = int64(len(h.pageRows))
		it.tail = make([]sqltypes.Row, len(h.tailRows))
		copy(it.tail, h.tailRows)
		it.tailAt = h.rowCount - int64(len(h.tailRows))
		it.tailOn = true
	}
	if it.page > it.hiPage {
		it.page = it.hiPage
	}
	return it
}

// SetZoneFilters makes the iterator skip sealed pages whose zone-map
// range cannot satisfy the filters (conservative: pages without entries
// are read). Returns the iterator for chaining.
func (it *HeapBatchIterator) SetZoneFilters(fs []ZoneFilter) *HeapBatchIterator {
	it.zf = fs
	return it
}

// NextBatch returns the next batch, or (nil, nil) at end of stream. The
// batch is freshly allocated and owned by the caller.
func (it *HeapBatchIterator) NextBatch() (*vec.Batch, error) {
	for it.page < it.hiPage {
		p := it.page
		if len(it.zf) > 0 {
			it.sink.Add(obs.ScanZoneConsidered, 1)
			if it.h.ZoneSkip(p, it.zf) {
				it.sink.Add(obs.ScanZoneSkippedPages, 1)
				it.page++
				continue
			}
		}
		cols, n, err := it.h.sealedPage(p, it.sink, it.sink)
		if err != nil {
			return nil, err // the cursor stays on the page it could not read
		}
		it.page++
		if n > 0 {
			return it.batch(cols, n, it.cum[p]), nil
		}
	}
	if it.tailOn {
		it.tailOn = false
		rows := it.tail
		it.tail = nil
		if len(rows) > 0 {
			it.sink.Add(obs.ScanValuesDecoded, int64(len(rows)*len(it.h.kinds)))
			return it.batch(rowsToVectors(it.h.kinds, rows), len(rows), it.tailAt), nil
		}
	}
	return nil, nil
}

// batch wraps n rows of columns starting at global row base, and counts
// them.
func (it *HeapBatchIterator) batch(cols []*vec.Vector, n int, base int64) *vec.Batch {
	b := vec.NewBatch(cols, n)
	b.Base = base
	it.sink.Add(obs.ScanBatches, 1)
	it.sink.Add(obs.ScanRows, int64(n))
	return b
}

// Close satisfies the iterator contract.
func (it *HeapBatchIterator) Close() error { return nil }
