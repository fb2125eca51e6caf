package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Page compression, modeled on SQL Server 2008 (paper Section 2.3.5 and
// [11]): when a page is sealed, rows are re-encoded with (a) ROW
// compression, (b) column-prefix compression — the longest common prefix
// of each string column's byte image is stored once in the page header —
// and (c) a page dictionary of repeated cell images. Because the prefix
// and dictionary only span "a small subset of the data fitting on one
// disk page", repetitive data (DGE tags) compresses very well while
// near-unique data (1000 Genomes reads) barely shrinks — exactly the
// contrast between the paper's Table 1 and Table 2. When page coding does
// not pay for a page, the engine falls back to the ROW format, as SQL
// Server does.
//
// Layout:
//
//	uvarint colCount, rowCount
//	per string/bytes column: uvarint prefixLen + prefix (others: 0)
//	uvarint dictCount; per entry: uvarint len + bytes
//	per row:
//	    null bitmap   (ceil(cols/8) bytes)
//	    dict bitmap   (ceil(cols/8) bytes; bit set = cell is a dict ref)
//	    per non-null cell:
//	        dict ref:      uvarint dictIndex
//	        inline int:    varint
//	        inline float:  8 bytes
//	        inline bool:   1 byte
//	        inline string: uvarint suffixLen + suffix (prefix stripped)

// cellImage encodes one non-null cell's post-prefix payload.
func cellImage(dst []byte, v sqltypes.Value) []byte {
	switch v.K {
	case sqltypes.KindInt:
		return binary.AppendVarint(dst, v.I)
	case sqltypes.KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
		return append(dst, b[:]...)
	case sqltypes.KindBool:
		return append(dst, byte(v.I))
	case sqltypes.KindString:
		return append(dst, v.S...)
	case sqltypes.KindBytes:
		return append(dst, v.B...)
	}
	return dst
}

func isTextKind(k sqltypes.Kind) bool {
	return k == sqltypes.KindString || k == sqltypes.KindBytes
}

// appendImage appends the cell img encodes to v, a flat vector of kind k.
func appendImage(v *vec.Vector, k sqltypes.Kind, img []byte) error {
	switch k {
	case sqltypes.KindInt:
		x, n := binary.Varint(img)
		if n <= 0 || n != len(img) {
			return fmt.Errorf("storage: bad int cell image: %w", ErrCorruptPage)
		}
		v.Append(sqltypes.NewInt(x))
	case sqltypes.KindFloat:
		if len(img) != 8 {
			return fmt.Errorf("storage: bad float cell image: %w", ErrCorruptPage)
		}
		v.Append(sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(img))))
	case sqltypes.KindBool:
		if len(img) != 1 {
			return fmt.Errorf("storage: bad bool cell image: %w", ErrCorruptPage)
		}
		v.Append(sqltypes.NewBool(img[0] != 0))
	case sqltypes.KindString, sqltypes.KindBytes:
		vec.AppendText(v, img)
	default:
		return fmt.Errorf("storage: bad cell kind %s", k)
	}
	return nil
}

// commonPrefix returns the longest common prefix length of a and b.
func commonPrefix(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// dictMinLen is the smallest cell image worth a dictionary entry.
const dictMinLen = 3

// CompressPageRows encodes rows into the page-compressed format.
func CompressPageRows(kinds []sqltypes.Kind, rows []sqltypes.Row) ([]byte, error) {
	nCols := len(kinds)
	images := make([][][]byte, len(rows)) // images[r][c]; nil for NULL
	for r, row := range rows {
		if len(row) != nCols {
			return nil, fmt.Errorf("storage: row %d has %d columns, want %d", r, len(row), nCols)
		}
		images[r] = make([][]byte, nCols)
		for c, v := range row {
			if v.IsNull() {
				continue
			}
			if v.K != kinds[c] {
				return nil, fmt.Errorf("storage: row %d col %d kind %s != %s", r, c, v.K, kinds[c])
			}
			images[r][c] = cellImage(nil, v)
		}
	}
	// Column-prefix compression applies to string columns, where the
	// inline format carries an explicit length.
	prefixes := make([][]byte, nCols)
	for c := 0; c < nCols; c++ {
		if !isTextKind(kinds[c]) {
			continue
		}
		var p []byte
		first := true
		for r := range images {
			img := images[r][c]
			if img == nil {
				continue
			}
			if first {
				p = img
				first = false
				continue
			}
			p = p[:commonPrefix(p, img)]
			if len(p) == 0 {
				break
			}
		}
		prefixes[c] = p
	}
	suffix := func(r, c int) []byte {
		return images[r][c][len(prefixes[c]):]
	}
	// Page dictionary over repeated post-prefix images.
	counts := make(map[string]int)
	for r := range images {
		for c := range images[r] {
			if images[r][c] == nil {
				continue
			}
			if s := suffix(r, c); len(s) >= dictMinLen {
				counts[string(s)]++
			}
		}
	}
	var dict [][]byte
	dictIdx := make(map[string]int)
	for r := range images {
		for c := range images[r] {
			if images[r][c] == nil {
				continue
			}
			s := suffix(r, c)
			if len(s) >= dictMinLen && counts[string(s)] >= 2 {
				if _, ok := dictIdx[string(s)]; !ok {
					dictIdx[string(s)] = len(dict)
					dict = append(dict, s)
				}
			}
		}
	}
	// Serialize.
	out := binary.AppendUvarint(nil, uint64(nCols))
	out = binary.AppendUvarint(out, uint64(len(rows)))
	for c := 0; c < nCols; c++ {
		out = binary.AppendUvarint(out, uint64(len(prefixes[c])))
		out = append(out, prefixes[c]...)
	}
	out = binary.AppendUvarint(out, uint64(len(dict)))
	for _, e := range dict {
		out = binary.AppendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	nb := (nCols + 7) / 8
	for r := range images {
		nullAt := len(out)
		for i := 0; i < 2*nb; i++ {
			out = append(out, 0)
		}
		dictAt := nullAt + nb
		for c := range images[r] {
			if images[r][c] == nil {
				out[nullAt+c/8] |= 1 << uint(c%8)
				continue
			}
			s := suffix(r, c)
			if idx, ok := dictIdx[string(s)]; ok {
				out[dictAt+c/8] |= 1 << uint(c%8)
				out = binary.AppendUvarint(out, uint64(idx))
				continue
			}
			if isTextKind(kinds[c]) {
				out = binary.AppendUvarint(out, uint64(len(s)))
			}
			out = append(out, s...)
		}
	}
	return out, nil
}

// pageReader is a cursor with sticky error handling over a page payload.
type pageReader struct {
	buf    []byte
	pos    int
	failed bool
}

func (r *pageReader) uvarint() uint64 {
	if r.failed {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.failed = true
		return 0
	}
	r.pos += n
	return v
}

// varintBytes consumes one signed varint and returns its raw bytes.
func (r *pageReader) varintBytes() []byte {
	if r.failed {
		return nil
	}
	_, n := binary.Varint(r.buf[r.pos:])
	if n <= 0 {
		r.failed = true
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// length consumes a uvarint that counts bytes or entries still ahead in
// the payload: more than remain is a failure, so no length read from disk
// sizes an allocation or a slice past the page.
func (r *pageReader) length() int {
	v := r.uvarint()
	if v > uint64(len(r.buf)-r.pos) {
		r.failed = true
		return 0
	}
	return int(v)
}

func (r *pageReader) bytes(n int) []byte {
	if r.failed || n < 0 || n > len(r.buf)-r.pos {
		r.failed = true
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// image consumes one inline cell image of the given kind.
func (r *pageReader) image(k sqltypes.Kind) []byte {
	switch k {
	case sqltypes.KindInt:
		return r.varintBytes()
	case sqltypes.KindFloat:
		return r.bytes(8)
	case sqltypes.KindBool:
		return r.bytes(1)
	default:
		return r.bytes(r.length())
	}
}

func (r *pageReader) err() error {
	if r.failed {
		return fmt.Errorf("storage: truncated compressed page: %w", ErrCorruptPage)
	}
	return nil
}
