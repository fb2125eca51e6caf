package storage

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// decodePageBatch turns one sealed page into column vectors: row pages
// become lazy columns (rowpage.go), compressed and columnar pages keep
// their on-page dictionary/RLE coding as dictionary vectors. Decoded cells
// and dictionary entries count on sink: for a dictionary- or RLE-encoded
// column only the per-page dictionary entries are ever decoded, so a filter
// over such a column decodes O(distinct values) per page no matter how many
// rows it drops.
func (h *Heap) decodePageBatch(page []byte, sink obs.Sink) ([]*vec.Vector, int, error) {
	n, payload, err := pagePayload(page)
	if err != nil {
		return nil, 0, err
	}
	switch page[0] {
	case pageTypeRows:
		cols, err := h.codec.lazyPageBatch(payload, n, sink)
		return cols, n, err
	case pageTypeCompressed:
		return decodeCompressedBatch(h.kinds, payload, sink)
	case pageTypeColumnar:
		return decodeColumnarBatch(h.kinds, payload, sink)
	}
	return nil, 0, fmt.Errorf("storage: unknown heap page type %d", page[0])
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

// decodeCompressedBatch converts a page-compressed (type 2) payload into
// dictionary vectors without materializing dropped rows: page-dictionary
// entries decode at most once per column, inline cells are appended to
// the column dictionary as singleton entries.
func decodeCompressedBatch(kinds []sqltypes.Kind, buf []byte, sink obs.Sink) ([]*vec.Vector, int, error) {
	rd := pageReader{buf: buf}
	nCols := int(rd.uvarint())
	nRows := int(rd.uvarint())
	if rd.failed || nCols != len(kinds) {
		return nil, 0, fmt.Errorf("storage: page has %d columns, schema has %d", nCols, len(kinds))
	}
	prefixes := make([][]byte, nCols)
	for c := 0; c < nCols; c++ {
		prefixes[c] = rd.bytes(int(rd.uvarint()))
	}
	nDict := int(rd.uvarint())
	if rd.failed {
		return nil, 0, rd.err()
	}
	pageDict := make([][]byte, nDict)
	for i := range pageDict {
		pageDict[i] = rd.bytes(int(rd.uvarint()))
	}
	cols := make([]*vec.Vector, nCols)
	// dictMap[c][i] is the column-dictionary code of page-dict entry i in
	// column c, or -1 while undecoded.
	dictMap := make([][]int32, nCols)
	for c := range cols {
		cols[c] = &vec.Vector{Kind: kinds[c], Codes: make([]int32, nRows)}
		dictMap[c] = make([]int32, nDict)
		for i := range dictMap[c] {
			dictMap[c][i] = -1
		}
	}
	nb := (nCols + 7) / 8
	var scratch []byte
	var dictEntries, values int64 // written to sink once, after the page
	for r := 0; r < nRows; r++ {
		nullBM := rd.bytes(nb)
		dictBM := rd.bytes(nb)
		if rd.failed {
			return nil, 0, rd.err()
		}
		for c := 0; c < nCols; c++ {
			col := cols[c]
			if nullBM[c/8]&(1<<uint(c%8)) != 0 {
				col.SetNull(r)
				continue
			}
			var sfx []byte
			fromDict := dictBM[c/8]&(1<<uint(c%8)) != 0
			var dictRef int
			if fromDict {
				dictRef = int(rd.uvarint())
				if rd.failed || dictRef >= nDict {
					return nil, 0, fmt.Errorf("storage: dictionary index out of range")
				}
				if code := dictMap[c][dictRef]; code >= 0 {
					col.Codes[r] = code
					continue
				}
				sfx = pageDict[dictRef]
			} else {
				switch kinds[c] {
				case sqltypes.KindInt:
					sfx = rd.varintBytes()
				case sqltypes.KindFloat:
					sfx = rd.bytes(8)
				case sqltypes.KindBool:
					sfx = rd.bytes(1)
				default:
					sfx = rd.bytes(int(rd.uvarint()))
				}
				if rd.failed {
					return nil, 0, rd.err()
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
				return nil, 0, err
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
	return cols, nRows, nil
}

// decodeColumnarBatch converts a columnar (type 3) payload into vectors:
// dict/RLE columns keep their codes, flat columns stay lazy — the vector
// holds raw cell images and decodes them when the executor first reads
// the column, so columns the query never touches cost nothing past the
// structural walk. The payload is copied once up front because lazy
// images outlive the page pin.
func decodeColumnarBatch(kinds []sqltypes.Kind, buf []byte, sink obs.Sink) ([]*vec.Vector, int, error) {
	buf = append([]byte(nil), buf...)
	cr, err := newColumnarReader(buf, len(kinds))
	if err != nil {
		return nil, 0, err
	}
	cols := make([]*vec.Vector, cr.nCols)
	for c := 0; c < cr.nCols; c++ {
		cr.kind = kinds[c]
		_, nulls, dict, codes, flat, err := cr.column()
		if err != nil {
			return nil, 0, err
		}
		var col *vec.Vector
		if codes != nil {
			vals := make([]sqltypes.Value, len(dict))
			for i, img := range dict {
				v, err := cellFromImage(kinds[c], img)
				if err != nil {
					return nil, 0, err
				}
				vals[i] = v
			}
			sink.Add(obs.ScanDictEntriesDecoded, int64(len(dict)))
			col = &vec.Vector{Kind: kinds[c], Codes: codes, Dict: vals}
		} else {
			col = &vec.Vector{Kind: kinds[c], Lazy: &flatColumn{kind: kinds[c], imgs: flat, sink: sink}}
		}
		if nulls != nil {
			for r := 0; r < cr.nRows; r++ {
				if nulls[r/8]&(1<<uint(r%8)) != 0 {
					col.SetNull(r)
				}
			}
		}
		cols[c] = col
	}
	return cols, cr.nRows, nil
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

// HeapBatchIterator scans sealed pages [loPage, hiPage) batch-at-a-time,
// one page per batch, optionally followed by a snapshot of the in-memory
// tail — the vectorized counterpart of HeapVersionIterator. Each batch's
// Base is the global row index of its first physical row, the coordinate
// MVCC visibility ranges are expressed in.
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
// every row physically present at creation. Scan work, skipped pages and
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
		if len(it.zf) > 0 && it.h.ZoneSkip(it.page, it.zf) {
			it.sink.Add(obs.ScanZoneSkippedPages, 1)
			it.page++
			continue
		}
		fr, err := it.h.pool.GetT(it.h.file, PageID(it.page+1), it.sink)
		if err != nil {
			return nil, err
		}
		cols, n, err := it.h.decodePageBatch(fr.Data(), it.sink)
		it.h.pool.Unpin(fr, false)
		if err != nil {
			return nil, err
		}
		base := it.cum[it.page]
		it.page++
		if n == 0 {
			continue
		}
		b := vec.NewBatch(cols, n)
		b.Base = base
		it.sink.Add(obs.ScanBatches, 1)
		it.sink.Add(obs.ScanRows, int64(n))
		return b, nil
	}
	if it.tailOn {
		it.tailOn = false
		rows := it.tail
		it.tail = nil
		if len(rows) > 0 {
			cols := rowsToVectors(it.h.kinds, rows)
			it.sink.Add(obs.ScanValuesDecoded, int64(len(rows)*len(it.h.kinds)))
			b := vec.NewBatch(cols, len(rows))
			b.Base = it.tailAt
			it.sink.Add(obs.ScanBatches, 1)
			it.sink.Add(obs.ScanRows, int64(len(rows)))
			return b, nil
		}
	}
	return nil, nil
}

// Close satisfies the iterator contract.
func (it *HeapBatchIterator) Close() error { return nil }
