package storage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/sqltypes"
)

// Columnar page format (pageTypeColumnar): cells are stored
// column-major so a sealed page can materialize straight into the
// vectorized executor's column vectors, and low-NDV columns (DGE tags,
// lane/flowcell ids, quality bins — the structured genomics columns of
// Campagne et al.) carry dictionary or run-length codes that predicates
// evaluate without decompressing. Each column independently picks the
// smallest of three encodings:
//
//	uvarint colCount, rowCount
//	per column:
//	    enc    byte (0 = flat, 1 = dict, 2 = rle)
//	    nulls  byte (0/1); if 1: ceil(rows/8) bitmap bytes
//	    flat:  per non-null row, the cell image
//	           (int varint | float 8B | bool 1B | text uvarint len + bytes)
//	    dict:  uvarint dictCount; per entry uvarint len + image;
//	           per row uvarint code (null rows repeat the previous code
//	           so they never break a run)
//	    rle:   dict header as above; uvarint runCount;
//	           per run uvarint code, uvarint length
const pageTypeColumnar = 3

const (
	colEncFlat = 0
	colEncDict = 1
	colEncRLE  = 2
)

// EncodeColumnarPage encodes rows column-major, or returns nil (no
// error) when the image cannot beat limit bytes.
func EncodeColumnarPage(kinds []sqltypes.Kind, rows []sqltypes.Row, limit int) ([]byte, error) {
	nCols, nRows := len(kinds), len(rows)
	out := binary.AppendUvarint(nil, uint64(nCols))
	out = binary.AppendUvarint(out, uint64(nRows))
	var images [][]byte // per-row images of the current column
	for c := 0; c < nCols; c++ {
		images = images[:0]
		hasNulls := false
		for r, row := range rows {
			if len(row) != nCols {
				return nil, fmt.Errorf("storage: row %d has %d columns, want %d", r, len(row), nCols)
			}
			v := row[c]
			if v.IsNull() {
				images = append(images, nil)
				hasNulls = true
				continue
			}
			if v.K != kinds[c] {
				return nil, fmt.Errorf("storage: row %d col %d kind %s != %s", r, c, v.K, kinds[c])
			}
			images = append(images, cellImage(nil, v))
		}
		out = encodeColumn(out, kinds[c], images, hasNulls, nRows)
		if len(out) > limit {
			return nil, nil
		}
	}
	return out, nil
}

// encodeColumn appends one column in the smallest of the three encodings.
func encodeColumn(out []byte, kind sqltypes.Kind, images [][]byte, hasNulls bool, nRows int) []byte {
	// Dictionary assignment in first-appearance order; null rows inherit
	// the previous row's code so interleaved nulls don't break runs (the
	// null bitmap is authoritative, the code under a null is filler).
	dictIdx := make(map[string]int32)
	var dict [][]byte
	codes := make([]int32, nRows)
	prev := int32(0)
	flatSize := 0
	for r, img := range images {
		if img == nil {
			codes[r] = prev
			continue
		}
		code, ok := dictIdx[string(img)]
		if !ok {
			code = int32(len(dict))
			dictIdx[string(img)] = code
			dict = append(dict, img)
		}
		codes[r] = code
		prev = code
		flatSize += len(img)
		if isTextKind(kind) {
			flatSize += uvarintLen(uint64(len(img)))
		}
	}
	dictHdr := uvarintLen(uint64(len(dict)))
	for _, e := range dict {
		dictHdr += uvarintLen(uint64(len(e))) + len(e)
	}
	dictSize := dictHdr
	for _, c := range codes {
		dictSize += uvarintLen(uint64(c))
	}
	rleSize := dictHdr
	nRuns := 0
	for r := 0; r < nRows; {
		e := r + 1
		for e < nRows && codes[e] == codes[r] {
			e++
		}
		rleSize += uvarintLen(uint64(codes[r])) + uvarintLen(uint64(e-r))
		nRuns++
		r = e
	}
	rleSize += uvarintLen(uint64(nRuns))

	enc := byte(colEncFlat)
	best := flatSize
	if dictSize < best {
		enc, best = colEncDict, dictSize
	}
	if rleSize < best {
		enc = colEncRLE
	}

	out = append(out, enc)
	if hasNulls {
		out = append(out, 1)
		at := len(out)
		for i := 0; i < (nRows+7)/8; i++ {
			out = append(out, 0)
		}
		for r, img := range images {
			if img == nil {
				out[at+r/8] |= 1 << uint(r%8)
			}
		}
	} else {
		out = append(out, 0)
	}
	switch enc {
	case colEncFlat:
		for _, img := range images {
			if img == nil {
				continue
			}
			if isTextKind(kind) {
				out = binary.AppendUvarint(out, uint64(len(img)))
			}
			out = append(out, img...)
		}
	case colEncDict:
		out = appendColDict(out, dict)
		for _, c := range codes {
			out = binary.AppendUvarint(out, uint64(c))
		}
	case colEncRLE:
		out = appendColDict(out, dict)
		out = binary.AppendUvarint(out, uint64(nRuns))
		for r := 0; r < nRows; {
			e := r + 1
			for e < nRows && codes[e] == codes[r] {
				e++
			}
			out = binary.AppendUvarint(out, uint64(codes[r]))
			out = binary.AppendUvarint(out, uint64(e-r))
			r = e
		}
	}
	return out
}

func appendColDict(out []byte, dict [][]byte) []byte {
	out = binary.AppendUvarint(out, uint64(len(dict)))
	for _, e := range dict {
		out = binary.AppendUvarint(out, uint64(len(e)))
		out = append(out, e...)
	}
	return out
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// columnarReader walks a columnar page payload column by column, handing
// out raw cell images.
type columnarReader struct {
	rd    pageReader
	nRows int
}

// newColumnarReader opens a payload that must hold nCols columns of nRows
// rows, as the schema and the page header say.
func newColumnarReader(buf []byte, nCols, nRows int) (*columnarReader, error) {
	cr := &columnarReader{rd: pageReader{buf: buf}, nRows: nRows}
	haveCols, haveRows := cr.rd.uvarint(), cr.rd.uvarint()
	if cr.rd.failed || haveCols != uint64(nCols) || haveRows != uint64(nRows) {
		return nil, fmt.Errorf("storage: columnar page holds %d columns of %d rows, schema and header say %d of %d: %w",
			haveCols, haveRows, nCols, nRows, ErrCorruptPage)
	}
	return cr, nil
}

// column decodes the next column, of the given kind. nulls is nil when the
// column has no nulls; codes/dict are nil for flat columns, in which case
// flat holds one image per non-null row in row order. A code under a null
// bit is filler; every other code indexes dict.
func (cr *columnarReader) column(kind sqltypes.Kind) (nulls []byte, dict [][]byte, codes []int32, flat [][]byte, err error) {
	rd := &cr.rd
	encB := rd.bytes(1)
	hasN := rd.bytes(1)
	if rd.failed {
		return nil, nil, nil, nil, rd.err()
	}
	if hasN[0] != 0 {
		if nulls = rd.bytes((cr.nRows + 7) / 8); rd.failed {
			return nil, nil, nil, nil, rd.err()
		}
	}
	isNull := func(r int) bool {
		return nulls != nil && nulls[r/8]&(1<<uint(r%8)) != 0
	}
	bad := func(what string) error {
		return fmt.Errorf("storage: %s: %w", what, ErrCorruptPage)
	}
	switch enc := encB[0]; enc {
	case colEncFlat:
		flat = make([][]byte, cr.nRows)
		for r := 0; r < cr.nRows; r++ {
			if isNull(r) {
				continue
			}
			flat[r] = rd.image(kind)
			if rd.failed {
				return nil, nil, nil, nil, rd.err()
			}
		}
	case colEncDict, colEncRLE:
		nDict := rd.length()
		if rd.failed || nDict > cr.nRows {
			return nil, nil, nil, nil, bad("bad columnar dictionary size")
		}
		dict = make([][]byte, nDict)
		for i := range dict {
			dict[i] = rd.bytes(rd.length())
		}
		codes = make([]int32, cr.nRows)
		// filler reports whether rows [at, at+n) are all NULL: only there may
		// a code miss the dictionary (it is stored as 0).
		filler := func(at, n int) bool {
			for r := at; r < at+n; r++ {
				if !isNull(r) {
					return false
				}
			}
			return true
		}
		if enc == colEncDict {
			for r := range codes {
				code := rd.uvarint()
				if code >= uint64(nDict) {
					if !filler(r, 1) {
						return nil, nil, nil, nil, bad("columnar code out of range")
					}
					code = 0
				}
				codes[r] = int32(code)
			}
		} else {
			nRuns := rd.length()
			at := 0
			for i := 0; i < nRuns; i++ {
				code, n := rd.uvarint(), rd.uvarint()
				if rd.failed || n > uint64(cr.nRows-at) {
					return nil, nil, nil, nil, bad("columnar runs exceed row count")
				}
				if code >= uint64(nDict) {
					if !filler(at, int(n)) {
						return nil, nil, nil, nil, bad("columnar code out of range")
					}
					code = 0
				}
				for end := at + int(n); at < end; at++ {
					codes[at] = int32(code)
				}
			}
			if at != cr.nRows {
				return nil, nil, nil, nil, bad(fmt.Sprintf("columnar runs cover %d of %d rows", at, cr.nRows))
			}
		}
	default:
		return nil, nil, nil, nil, bad(fmt.Sprintf("unknown column encoding %d", enc))
	}
	if rd.failed {
		return nil, nil, nil, nil, rd.err()
	}
	return nulls, dict, codes, flat, nil
}
