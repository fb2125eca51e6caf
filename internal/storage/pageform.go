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
// the values of clustered-leaf entries laid end to end. Every scan of the
// page shares it and gets fresh vector headers over it (vectors), so a
// scan may set header fields (Packed, Lazy) but never writes an array. The
// arrays are written once: eager columns (dictionary codes, null bitmaps)
// when the form is built, a lazy column's typed array the first time any
// scan reads the column (fill), after which every scan shares it.
//
// A form the buffer pool keeps on a frame (BufferPool.keepForm) is charged
// to the pool's decoded budget, its filled columns as they fill, and is
// refunded when the frame drops it; pool is nil for a form nobody keeps.
type pageForm struct {
	n       int
	cols    []formCol
	pool    *BufferPool
	charged atomic.Int64 // bytes charged to pool; -1 once the frame dropped the form
	bytes   int64        // the form's size as built
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

// columnSource is the still-encoded form of a lazy column: fill sets v's
// typed array (v.Nulls is the column's bitmap) and returns the cells it
// decoded.
type columnSource interface {
	fill(v *vec.Vector) (int64, error)
}

// newPageForm returns a form of n rows with one column per kind, the
// columns still to be set up by the decoder that builds it.
func newPageForm(kinds []sqltypes.Kind, n int) *pageForm {
	f := &pageForm{n: n, cols: make([]formCol, len(kinds))}
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
		v.Nulls, v.Codes, v.Dict = clip(v.Nulls), clip(v.Codes), clip(v.Dict)
		f.bytes += 8*int64(len(v.Nulls)) + arrayBytes(v) + int64(unsafe.Sizeof(f.cols[c]))
	}
	return f
}

func clip[T any](s []T) []T { return s[:len(s):len(s)] }

// vectors returns fresh headers over the form; a lazy column the query
// later reads is filled through its header's hook, whose decoding counts
// on sink.
func (f *pageForm) vectors(sink obs.Sink) []*vec.Vector {
	hs := make([]struct {
		v    vec.Vector
		hook formHook
	}, len(f.cols))
	cols := make([]*vec.Vector, len(f.cols))
	for c := range f.cols {
		fc, h := &f.cols[c], &hs[c]
		h.v = fc.vec
		if fc.src != nil {
			if filled := fc.filled.Load(); filled != nil {
				setArrays(&h.v, filled)
			} else {
				h.hook = formHook{f: f, c: fc, sink: sink}
				h.v.Lazy = &h.hook
			}
		}
		cols[c] = &h.v
	}
	return cols
}

// formHook is the lazy hook of one scan's header over a form column.
type formHook struct {
	f    *pageForm
	c    *formCol
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
	setArrays(v, filled)
	return nil
}

// fill returns column c's typed array, decoding it at most once while the
// form can pay for it: the first reader decodes (its cells count on its
// sink) while later ones wait, then share the array. A fill the pool's
// decoded budget cannot take stays with the scan that made it, and the
// next reader decodes again.
func (f *pageForm) fill(c *formCol, sink obs.Sink) (*vec.Vector, error) {
	if filled := c.filled.Load(); filled != nil {
		return filled, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if filled := c.filled.Load(); filled != nil {
		return filled, nil
	}
	v := &vec.Vector{Kind: c.vec.Kind, Nulls: c.vec.Nulls}
	cells, err := c.src.fill(v)
	if err != nil {
		return nil, err
	}
	sink.Add(obs.ScanValuesDecoded, cells)
	v.Ints, v.Floats, v.Strs, v.Byts = clip(v.Ints), clip(v.Floats), clip(v.Strs), clip(v.Byts)
	if f.charge(arrayBytes(v)) {
		c.filled.Store(v)
	}
	return v, nil
}

func setArrays(v, filled *vec.Vector) {
	v.Ints, v.Floats, v.Strs, v.Byts = filled.Ints, filled.Floats, filled.Strs, filled.Byts
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

// arrayBytes estimates the memory v's value arrays hold (its null bitmap
// aside).
func arrayBytes(v *vec.Vector) int64 {
	b := 8*int64(len(v.Ints)+len(v.Floats)) + 4*int64(len(v.Codes)) +
		int64(unsafe.Sizeof(""))*int64(len(v.Strs)) + int64(unsafe.Sizeof([]byte(nil)))*int64(len(v.Byts)) +
		int64(unsafe.Sizeof(sqltypes.Value{}))*int64(len(v.Dict))
	for _, s := range v.Strs {
		b += int64(len(s))
	}
	for _, s := range v.Byts {
		b += int64(len(s))
	}
	for _, d := range v.Dict {
		b += int64(len(d.S) + len(d.B))
	}
	return b
}
