package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Late materialization of sealed row pages (pageTypeRows). Decoding a
// page walks it once to find where every cell lies — the row format has
// no offset table, so a cell is only reachable through the cells before
// it — and keeps the offsets, the null bitmaps and a copy of the payload
// as the page's form (pageform.go), which the buffer pool keeps on the
// page's frame while it is resident. A column decodes, typed and for the
// whole page at once, the first time any scan reads one of its cells, and
// every later scan of the page shares the array; a column no query reads
// costs its share of the walk and nothing else. This is the field-wise
// access argument of Campagne et al. applied to the paper's uncompressed
// and ROW-compressed tables: a reader pays for the fields it uses, once.

// rowPage is one walked row page.
type rowPage struct {
	codec   *RowCodec
	payload []byte // the form's own: it outlives the page pin
	n       int
	// offs[c*n+r] is the payload offset of cell (r, c), at its length
	// prefix for text; unset under a null bit. Payloads are shorter than
	// 64 KB (heapCapacity), so 16 bits do.
	offs []uint16
}

// rowPageCol is column c of a rowPage, as the source of its form column.
type rowPageCol struct {
	pg *rowPage
	c  int
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

// MaxLazyRowsBytes is the longest payload LazyRows takes: cell offsets are
// kept in 16 bits. A heap page is shorter by construction.
const MaxLazyRowsBytes = 1 << 16

// LazyRows is the late-materializing kernel over n encoded rows laid end
// to end in payload, which the returned vectors keep: the values of
// clustered-index leaf entries appended one after the other. Their form
// is the scan's own; a sealed row page's is kept on its frame
// (Heap.sealedPage). A column's cells count on sink when it is first
// read.
func (c *RowCodec) LazyRows(payload []byte, n int, ends []int, sink obs.Sink) ([]*vec.Vector, error) {
	f, err := c.rowForm(payload, n, ends)
	if err != nil {
		return nil, err
	}
	return f.vectors(sink), nil
}

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
	if len(payload) > MaxLazyRowsBytes {
		return nil, fmt.Errorf("storage: %d bytes of rows exceed the %d a batch can address", len(payload), MaxLazyRowsBytes)
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
	pg := &rowPage{
		codec:   c,
		payload: payload,
		n:       n,
		offs:    make([]uint16, nCols*n),
	}
	f := newPageForm(c.Kinds, n)
	srcs := make([]rowPageCol, nCols)
	for i := range srcs {
		srcs[i] = rowPageCol{pg: pg, c: i}
		f.cols[i].src = &srcs[i]
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
			return nil, fmt.Errorf("storage: row %d ends at byte %d of its batch, stored up to %d: %w", r, pos, ends[r], ErrCorruptPage)
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

// fill decodes the column into v's typed array. Text columns share one
// backing allocation per page instead of one per cell.
func (rc *rowPageCol) fill(v *vec.Vector) (int64, error) {
	pg, c := rc.pg, rc.pg.codec
	n, buf := pg.n, pg.payload
	offs := pg.offs[rc.c*n : (rc.c+1)*n]
	cells := 0
	switch c.Kinds[rc.c] {
	case sqltypes.KindInt:
		out := make([]int64, n)
		shape := c.cellShape(rc.c)
		for r, o := range offs {
			if v.IsNull(r) {
				continue
			}
			cells++
			switch shape {
			case 4:
				out[r] = int64(int32(binary.LittleEndian.Uint32(buf[o:])))
			case 8:
				out[r] = int64(binary.LittleEndian.Uint64(buf[o:]))
			default:
				out[r], _ = binary.Varint(buf[o:])
			}
		}
		v.Ints = out
	case sqltypes.KindBool:
		out := make([]int64, n)
		for r, o := range offs {
			if v.IsNull(r) {
				continue
			}
			cells++
			if buf[o] != 0 {
				out[r] = 1
			}
		}
		v.Ints = out
	case sqltypes.KindFloat:
		out := make([]float64, n)
		for r, o := range offs {
			if v.IsNull(r) {
				continue
			}
			cells++
			out[r] = math.Float64frombits(binary.LittleEndian.Uint64(buf[o:]))
		}
		v.Floats = out
	case sqltypes.KindString:
		total := 0
		for r, o := range offs {
			if !v.IsNull(r) {
				total += len(pg.text(o))
			}
		}
		var sb strings.Builder
		sb.Grow(total)
		for r, o := range offs {
			if !v.IsNull(r) {
				sb.Write(pg.text(o))
			}
		}
		all := sb.String()
		out := make([]string, n)
		at := 0
		for r, o := range offs {
			if v.IsNull(r) {
				continue
			}
			cells++
			ln := len(pg.text(o))
			out[r] = all[at : at+ln]
			at += ln
		}
		v.Strs = out
	case sqltypes.KindBytes:
		total := 0
		for r, o := range offs {
			if !v.IsNull(r) {
				total += len(pg.text(o))
			}
		}
		all := make([]byte, 0, total)
		out := make([][]byte, n)
		for r, o := range offs {
			if v.IsNull(r) {
				continue
			}
			cells++
			at := len(all)
			all = append(all, pg.text(o)...)
			out[r] = all[at:len(all):len(all)]
		}
		v.Byts = out
	}
	return int64(cells), nil
}
