package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Late materialization of rows in the row format: sealed row pages
// (pageTypeRows) and the values of clustered btree leaves. Decoding a page
// walks it once to find where every cell lies — the row format has no
// offset table, so a cell is only reachable through the cells before it —
// and keeps the offsets, the null bitmaps and a copy of the rows as the
// page's form (pageform.go), which the buffer pool keeps on the page's
// frame while it is resident. A column decodes, typed and for the whole
// page at once, the first time any scan reads one of its cells, and every
// later scan of the page shares the array; a column no query reads costs
// its share of the walk and nothing else. This is the field-wise access
// argument of Campagne et al. applied to the paper's uncompressed and
// ROW-compressed tables: a reader pays for the fields it uses, once.

// rowPage is one walked page of rows, and the source of its form's
// columns.
type rowPage struct {
	codec   *RowCodec
	payload []byte // the form's own: it outlives the page pin
	n       int
	// offs[c*n+r] is the payload offset of cell (r, c), at its length
	// prefix for text; unset under a null bit. Payloads are shorter than
	// maxRowFormBytes, so 16 bits do.
	offs []uint16
}

// rowPageForm is a row page's form and its source, allocated together.
type rowPageForm struct {
	form pageForm
	pg   rowPage
}

// Cell shapes of the walk: a positive shape is a fixed width in bytes.
const (
	shapeVarint = -1 // zig-zag varint (ROW-mode integers)
	shapeText4  = -2 // 4-byte length, then bytes
	shapeTextUv = -3 // uvarint length, then bytes
)

// cellShape says how column col's cells are delimited, 0 for a kind the
// row format cannot hold.
func (c *RowCodec) cellShape(col int) int {
	none := c.Mode == CompressNone
	switch c.Kinds[col] {
	case sqltypes.KindInt:
		if none {
			return c.intWidth(col)
		}
		return shapeVarint
	case sqltypes.KindFloat:
		return 8
	case sqltypes.KindBool:
		return 1
	case sqltypes.KindString, sqltypes.KindBytes:
		if none {
			return shapeText4
		}
		return shapeTextUv
	}
	return 0
}

// maxRowFormBytes is the longest payload rowForm takes: cell offsets are
// kept in 16 bits. Heap pages and btree leaves are shorter by
// construction.
const maxRowFormBytes = 1 << 16

// rowForm walks n encoded rows laid end to end in payload — a sealed row
// page, or clustered-leaf values — into a form that keeps payload: one
// lazy column per kind, null bitmaps set. ends, when non-nil, gives the
// offset at which each row must end (rows that were stored apart must not
// run into each other). Every offset the columns will later read is
// bounds-checked here, against bytes that cannot change afterwards, so a
// fill cannot fail or read out of range.
func (c *RowCodec) rowForm(payload []byte, n int, ends []int) (*pageForm, error) {
	nCols := len(c.Kinds)
	nb := (nCols + 7) / 8
	if n*nb > len(payload) {
		return nil, fmt.Errorf("storage: page header claims %d rows in %d payload bytes: %w", n, len(payload), ErrCorruptPage)
	}
	if ends != nil && len(ends) != n {
		return nil, fmt.Errorf("storage: %d row ends for %d rows", len(ends), n)
	}
	if len(payload) > maxRowFormBytes {
		return nil, fmt.Errorf("storage: %d bytes of rows exceed the %d a form can address", len(payload), maxRowFormBytes)
	}
	var shapeBuf [32]int
	shapes := shapeBuf[:0]
	for i := range c.Kinds {
		s := c.cellShape(i)
		if s == 0 {
			return nil, fmt.Errorf("storage: cannot decode kind %s", c.Kinds[i])
		}
		shapes = append(shapes, s)
	}
	rf := &rowPageForm{pg: rowPage{codec: c, payload: payload, n: n, offs: make([]uint16, nCols*n)}}
	pg, f := &rf.pg, rf.form.init(c.Kinds, n)
	for i := range f.cols {
		f.cols[i].src = pg
	}
	buf := pg.payload
	pos := 0
	for r := 0; r < n; r++ {
		if len(buf)-pos < nb {
			return nil, errBitmapTruncated
		}
		bitmap := buf[pos : pos+nb]
		pos += nb
		for i, shape := range shapes {
			if bitmap[i>>3]&(1<<uint(i&7)) != 0 {
				f.cols[i].vec.SetNull(r)
				continue
			}
			pg.offs[i*n+r] = uint16(pos)
			rest := len(buf) - pos
			size := shape
			switch shape {
			case shapeVarint:
				_, k := binary.Varint(buf[pos:])
				if k <= 0 {
					return nil, errTruncated(i)
				}
				size = k
			case shapeText4:
				if rest < 4 {
					return nil, errTruncated(i)
				}
				ln := binary.LittleEndian.Uint32(buf[pos:])
				if uint64(ln) > uint64(rest-4) {
					return nil, errTruncated(i)
				}
				size = 4 + int(ln)
			case shapeTextUv:
				ln, k := binary.Uvarint(buf[pos:])
				if k <= 0 || ln > uint64(rest-k) {
					return nil, errTruncated(i)
				}
				size = k + int(ln)
			}
			if size > rest {
				return nil, errTruncated(i)
			}
			pos += size
		}
		if ends != nil && pos != ends[r] {
			return nil, fmt.Errorf("storage: row %d ends at byte %d of its form, stored up to %d: %w", r, pos, ends[r], ErrCorruptPage)
		}
	}
	f.bytes = int64(len(payload) + 2*len(pg.offs))
	return f.seal(), nil
}

// text returns the bytes of the text cell at payload offset o.
func (pg *rowPage) text(o uint16) []byte {
	buf := pg.payload[o:]
	if pg.codec.Mode == CompressNone {
		return buf[4 : 4+binary.LittleEndian.Uint32(buf)]
	}
	ln, k := binary.Uvarint(buf)
	return buf[k : k+int(ln)]
}

// fill decodes column col into v's typed array, one entry a row.
func (pg *rowPage) fill(col int, v *vec.Vector) (int64, error) {
	v.ShareArrays(vec.NewVector(pg.codec.Kinds[col], pg.n))
	return pg.cells(col, nil, v), nil
}

// cells appends column col's cells of rows (nil: every row, in order) to
// v's typed array, a zero entry (an empty cell) for a NULL, and returns
// how many cells it decoded. Text cells are copied into v's byte run.
// A NULL cell has offset 0, where a row's null bitmap lies, never a cell.
func (pg *rowPage) cells(col int, rows []int, v *vec.Vector) int64 {
	c, buf, offs := pg.codec, pg.payload, pg.offs[col*pg.n:(col+1)*pg.n]
	m := pg.n
	if rows != nil {
		m = len(rows)
	}
	off := func(i int) uint16 {
		if rows != nil {
			return offs[rows[i]]
		}
		return offs[i]
	}
	cells := int64(0)
	switch c.Kinds[col] {
	case sqltypes.KindInt, sqltypes.KindBool:
		base, shape := len(v.Ints), c.cellShape(col)
		v.Ints = slices.Grow(v.Ints, m)[:base+m]
		out := v.Ints[base:]
		for i := range out {
			o := off(i)
			switch {
			case o == 0:
				out[i] = 0
				continue
			case shape == 1:
				out[i] = int64(min(buf[o], 1))
			case shape == 4:
				out[i] = int64(int32(binary.LittleEndian.Uint32(buf[o:])))
			case shape == 8:
				out[i] = int64(binary.LittleEndian.Uint64(buf[o:]))
			default:
				out[i], _ = binary.Varint(buf[o:])
			}
			cells++
		}
	case sqltypes.KindFloat:
		base := len(v.Floats)
		v.Floats = slices.Grow(v.Floats, m)[:base+m]
		out := v.Floats[base:]
		for i := range out {
			out[i] = 0
			if o := off(i); o != 0 {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[o:]))
				cells++
			}
		}
	case sqltypes.KindString, sqltypes.KindBytes:
		size := 0
		for i := 0; i < m; i++ {
			if o := off(i); o != 0 {
				size += len(pg.text(o))
				cells++
			}
		}
		v.GrowText(m, size)
		for i := 0; i < m; i++ {
			var cell []byte
			if o := off(i); o != 0 {
				cell = pg.text(o)
			}
			vec.AppendText(v, cell)
		}
	}
	return cells
}
