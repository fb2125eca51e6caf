package storage

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// pageForm is the decoded form of one page of rows: a sealed heap page, or
// the values of a clustered btree leaf's entries in slot order (or of a
// run of them). Every scan of the page shares it and gets fresh vector
// headers over it (vectors), so a scan may set header fields (Packed,
// Lazy) but never writes an array. The arrays are written once: eager
// columns (dictionary codes, null bitmaps) when the form is built, a lazy
// column's typed array the first time any scan reads the column (fill),
// after which every scan shares it.
//
// A form the buffer pool keeps on a frame (BufferPool.keepForm) is charged
// to the pool's decoded budget, its filled columns as they fill, and is
// refunded when the frame drops it; pool is nil for a form nobody keeps.
// Only a form of every row of its page is kept.
type pageForm struct {
	n       int
	cols    []formCol
	pool    *BufferPool
	charged atomic.Int64 // bytes charged to pool; -1 once the frame dropped the form
	bytes   int64        // the form's size as built
	reread  atomic.Bool  // a scan other than the one that built it read the form
}

// formCol is one column of a pageForm. vec is the template every header
// copies: Kind, Nulls and, for an eager column, its codes and dictionary.
// src, for a lazy column, decodes its typed array; filled holds that array
// once some scan has read the column.
type formCol struct {
	vec    vec.Vector
	src    columnSource
	mu     sync.Mutex
	filled atomic.Pointer[vec.Vector]
}

// columnSource is the still-encoded form of the lazy columns of a page:
// fill sets v's typed array to column c's (v.Nulls is the column's bitmap)
// and returns the cells it decoded.
type columnSource interface {
	fill(c int, v *vec.Vector) (int64, error)
}

// init makes f a form of n rows with one column per kind, the columns still
// to be set up by the decoder that builds it.
func (f *pageForm) init(kinds []sqltypes.Kind, n int) *pageForm {
	f.n, f.cols = n, make([]formCol, len(kinds))
	for c, k := range kinds {
		f.cols[c].vec.Kind = k
	}
	return f
}

// seal clips every template array to its length, so that a header append
// reallocates instead of writing past the shared length, and adds the
// templates to the form's size.
func (f *pageForm) seal() *pageForm {
	for c := range f.cols {
		v := &f.cols[c].vec
		v.Clip()
		f.bytes += 8*int64(len(v.Nulls)) + v.ArrayBytes() + int64(unsafe.Sizeof(f.cols[c]))
	}
	return f
}

// vectors returns fresh headers over the form, taken from hs (nil: made
// for them); a lazy column the query later reads is filled through its
// header's hook, whose decoding counts on sink.
func (f *pageForm) vectors(sink obs.Sink, hs *Headers) []*vec.Vector {
	hdrs, cols := hs.take(len(f.cols))
	for c := range f.cols {
		fc, h := &f.cols[c], &hdrs[c]
		h.v = fc.vec
		if fc.src != nil {
			if filled := fc.filled.Load(); filled != nil {
				h.v.ShareArrays(filled)
			} else {
				h.hook = formHook{f: f, c: c, sink: sink}
				h.v.Lazy = &h.hook
			}
		}
		cols[c] = &h.v
	}
	return cols
}

// formHeader is a scan's vector header over one form column, and its
// lazy hook.
type formHeader struct {
	v    vec.Vector
	hook formHook
}

// Headers is where a scan of many small forms — a clustered scan's leaves
// — takes their vector headers from: blocks that double as the scan goes
// on, up to 64 forms' worth, so the headers cost a few allocations a scan
// instead of two a form. No header is handed out twice.
type Headers struct {
	hdrs  []formHeader
	cols  []*vec.Vector
	block int
}

// take returns k fresh headers and the column slice over them.
func (hs *Headers) take(k int) ([]formHeader, []*vec.Vector) {
	if hs == nil {
		return make([]formHeader, k), make([]*vec.Vector, k)
	}
	if len(hs.hdrs) < k {
		hs.block = min(max(2*hs.block, k), 64*k)
		hs.hdrs, hs.cols = make([]formHeader, hs.block), make([]*vec.Vector, hs.block)
	}
	hdrs, cols := hs.hdrs[:k:k], hs.cols[:k:k]
	hs.hdrs, hs.cols = hs.hdrs[k:], hs.cols[k:]
	return hdrs, cols
}

// KeptRowForm returns fresh vectors over the form pinned frame fr keeps of
// its clustered btree leaf's values, one row a slot, or nil when it keeps
// none (RowFormOf builds one). Their headers come from hs; the form counts
// on sink as a decoded page hit, and cells count on it as they are
// decoded.
func (fr *frame) KeptRowForm(hs *Headers, sink obs.Sink) []*vec.Vector {
	kept := fr.form.Load()
	if kept == nil {
		return nil
	}
	sink.Add(obs.ScanDecodedPageHits, 1)
	if !kept.reread.Load() {
		kept.reread.Store(true)
	}
	return kept.vectors(sink, hs)
}

// RowFormOf returns fresh vectors over a form of rows in c's format laid
// end to end in payload, row r ending at ends[r]: values of the entries of
// the clustered btree leaf on pinned frame fr. keep says they are the
// values of every slot; the frame then keeps their form if the pool's
// decoded budget allows. Otherwise the form is the caller's alone. Headers
// and counts are as for KeptRowForm.
func RowFormOf(fr *Frame, bp *BufferPool, c *RowCodec, payload []byte, ends []int, keep bool, hs *Headers, sink obs.Sink) ([]*vec.Vector, error) {
	f, err := c.rowForm(payload, len(ends), ends)
	if err != nil {
		return nil, err
	}
	if keep {
		bp.keepForm(fr, f)
	}
	return f.vectors(sink, hs), nil
}

// GatherRows appends rows of src, a column of vectors KeptRowForm or
// RowFormOf returned, to dst, a flat vector of src's kind. The choice is
// made per form from what the pool saw: a column that no scan has filled,
// of a form no other scan has read since the one gathering built it — a
// leaf read cold, likely evicted before anyone reads it again — is decoded
// for those rows only, straight into dst (counted as values gathered);
// any other column is filled once, for every later scan too, and copied.
func GatherRows(dst, src *vec.Vector, rows []int) error {
	h, ok := src.Lazy.(*formHook)
	if !ok || h.f.reread.Load() || h.f.cols[h.c].filled.Load() != nil {
		return dst.AppendRows(src, rows)
	}
	pg, ok := h.f.cols[h.c].src.(*rowPage)
	if !ok {
		return dst.AppendRows(src, rows)
	}
	base := dst.Len()
	cells := pg.cells(h.c, rows, dst)
	h.sink.Add(obs.ScanValuesDecoded, cells)
	h.sink.Add(obs.ScanValuesGathered, cells)
	for i, r := range rows {
		if src.IsNull(r) {
			dst.SetNull(base + i)
		}
	}
	return nil
}

// formHook is the lazy hook of one scan's header over form column c.
type formHook struct {
	f    *pageForm
	c    int
	sink obs.Sink
}

// Len returns the page's row count.
func (h *formHook) Len() int { return h.f.n }

// Fill gives v the column's typed array, decoding it if no scan has yet.
func (h *formHook) Fill(v *vec.Vector) error {
	filled, err := h.f.fill(h.c, h.sink)
	if err != nil {
		return err
	}
	v.ShareArrays(filled)
	return nil
}

// fill returns column c's typed array, decoding it at most once while the
// form can pay for it: the first reader decodes (its cells count on its
// sink) while later ones wait, then share the array. A fill the pool's
// decoded budget cannot take stays with the scan that made it, and the
// next reader decodes again.
func (f *pageForm) fill(col int, sink obs.Sink) (*vec.Vector, error) {
	c := &f.cols[col]
	if filled := c.filled.Load(); filled != nil {
		return filled, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if filled := c.filled.Load(); filled != nil {
		return filled, nil
	}
	v := &vec.Vector{Kind: c.vec.Kind, Nulls: c.vec.Nulls}
	cells, err := c.src.fill(col, v)
	if err != nil {
		return nil, err
	}
	sink.Add(obs.ScanValuesDecoded, cells)
	v.Clip()
	if f.charge(v.ArrayBytes()) {
		c.filled.Store(v)
	}
	return v, nil
}

// charge reserves size more bytes of the pool's decoded budget for a kept
// form, and reports whether the form may keep them. A form nobody keeps,
// or one its frame has dropped, belongs to the scans holding it and keeps
// everything uncharged.
func (f *pageForm) charge(size int64) bool {
	if f.pool == nil {
		return true
	}
	if !f.pool.reserveDecoded(size) {
		return false
	}
	for {
		c := f.charged.Load()
		if c < 0 {
			f.pool.decoded.Add(-size)
			return true
		}
		if f.charged.CompareAndSwap(c, c+size) {
			return true
		}
	}
}

// detach refunds everything the form was charged; its frame has dropped
// it.
func (f *pageForm) detach() {
	if c := f.charged.Swap(-1); c > 0 {
		f.pool.decoded.Add(-c)
	}
}
