package storage

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// decodePageBatch is the one decoder of sealed pages: row pages become lazy
// columns (rowpage.go), compressed and columnar pages keep their on-page
// dictionary/RLE coding as dictionary vectors. Every vector holds exactly
// the header's row count; a payload that says otherwise is corrupt. Decoded
// cells and dictionary entries count on sink: for a dictionary- or
// RLE-encoded column only the per-page dictionary entries are ever decoded,
// so a filter over such a column decodes O(distinct values) per page no
// matter how many rows it drops.
func (h *Heap) decodePageBatch(page []byte, sink obs.Sink) ([]*vec.Vector, int, error) {
	n, payload, err := pagePayload(page)
	if err != nil {
		return nil, 0, err
	}
	var cols []*vec.Vector
	switch page[0] {
	case pageTypeRows:
		cols, err = h.codec.lazyPageBatch(payload, n, sink)
	case pageTypeCompressed:
		cols, err = decodeCompressedBatch(h.kinds, payload, n, sink)
	case pageTypeColumnar:
		cols, err = decodeColumnarBatch(h.kinds, payload, n, sink)
	default:
		err = fmt.Errorf("storage: unknown heap page type %d: %w", page[0], ErrCorruptPage)
	}
	return cols, n, err
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
	cols, n, err := h.decodePageBatch(page, obs.Sink{})
	if err != nil {
		return nil, err
	}
	return vectorRows(cols, n)
}

// sealedPage pins sealed page p (0-based), decodes it and unpins it: the
// one place heap data pages are taken from the buffer pool. Pool traffic
// counts on pool, decoding on scan.
func (h *Heap) sealedPage(p int64, pool, scan obs.Sink) ([]*vec.Vector, int, error) {
	fr, err := h.pool.GetT(h.file, PageID(p+1), pool)
	if err != nil {
		return nil, 0, err
	}
	cols, n, err := h.decodePageBatch(fr.Data(), scan)
	h.pool.Unpin(fr, false)
	return cols, n, err
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

// decodeCompressedBatch converts a page-compressed (type 2) payload of n
// rows into dictionary vectors without materializing dropped rows:
// page-dictionary entries decode at most once per column, inline cells are
// appended to the column dictionary as singleton entries.
func decodeCompressedBatch(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) ([]*vec.Vector, error) {
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
	cols := make([]*vec.Vector, len(kinds))
	// dictMap[c][i] is the column-dictionary code of page-dict entry i in
	// column c, or -1 while undecoded.
	dictMap := make([][]int32, len(kinds))
	for c := range cols {
		cols[c] = &vec.Vector{Kind: kinds[c], Codes: make([]int32, n)}
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
		for c, col := range cols {
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
			v, err := cellFromImage(kinds[c], img)
			if err != nil {
				return nil, err
			}
			code := int32(len(col.Dict))
			col.Dict = append(col.Dict, v)
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
	return cols, nil
}

// decodeColumnarBatch converts a columnar (type 3) payload of n rows into
// vectors: dict/RLE columns keep their codes, flat columns stay lazy — the
// vector holds raw cell images and decodes them when the executor first
// reads the column, so columns the query never touches cost nothing past
// the structural walk. The payload is copied once up front because lazy
// images outlive the page pin.
func decodeColumnarBatch(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) ([]*vec.Vector, error) {
	buf = append([]byte(nil), buf...)
	cr, err := newColumnarReader(buf, len(kinds), n)
	if err != nil {
		return nil, err
	}
	cols := make([]*vec.Vector, len(kinds))
	for c, kind := range kinds {
		nulls, dict, codes, flat, err := cr.column(kind)
		if err != nil {
			return nil, err
		}
		var col *vec.Vector
		if codes != nil {
			vals := make([]sqltypes.Value, len(dict))
			for i, img := range dict {
				if vals[i], err = cellFromImage(kind, img); err != nil {
					return nil, err
				}
			}
			sink.Add(obs.ScanDictEntriesDecoded, int64(len(dict)))
			col = &vec.Vector{Kind: kind, Codes: codes, Dict: vals}
		} else {
			col = &vec.Vector{Kind: kind, Lazy: &flatColumn{kind: kind, imgs: flat, sink: sink}}
		}
		if nulls != nil {
			for r := 0; r < n; r++ {
				if nulls[r/8]&(1<<uint(r%8)) != 0 {
					col.SetNull(r)
				}
			}
		}
		cols[c] = col
	}
	return cols, nil
}

// flatColumn is a flat column of a columnar page, still as cell images
// (nil under a null bit): the lazy hook of its vector.
type flatColumn struct {
	kind sqltypes.Kind
	imgs [][]byte
	sink obs.Sink
}

// Len returns the page's row count.
func (f *flatColumn) Len() int { return len(f.imgs) }

// Fill decodes every non-null image into v's typed array.
func (f *flatColumn) Fill(v *vec.Vector) error {
	flat := vec.NewVector(f.kind, len(f.imgs))
	cells := int64(0)
	for _, img := range f.imgs {
		if img == nil {
			flat.Append(sqltypes.Null)
			continue
		}
		val, err := cellFromImage(f.kind, img)
		if err != nil {
			return err
		}
		flat.Append(val)
		cells++
	}
	v.Ints, v.Floats, v.Strs, v.Byts = flat.Ints, flat.Floats, flat.Strs, flat.Byts
	f.sink.Add(obs.ScanValuesDecoded, cells)
	return nil
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
