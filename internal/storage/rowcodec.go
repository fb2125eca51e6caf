package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/sqltypes"
)

// Compression selects the physical row format of a table, mirroring the
// paper's CREATE TABLE ... WITH (DATA_COMPRESSION = ROW|PAGE) examples.
type Compression uint8

// Compression modes.
const (
	CompressNone Compression = iota
	CompressRow
	CompressPage
)

// String returns the T-SQL spelling.
func (c Compression) String() string {
	switch c {
	case CompressNone:
		return "NONE"
	case CompressRow:
		return "ROW"
	case CompressPage:
		return "PAGE"
	}
	return fmt.Sprintf("Compression(%d)", uint8(c))
}

// RowCodec serializes rows of a fixed column layout.
type RowCodec struct {
	Kinds []sqltypes.Kind // declared column kinds; NULLs allowed anywhere
	Mode  Compression     // CompressNone or CompressRow (page is layered above)
	// Widths optionally narrows fixed-width integer columns in the
	// uncompressed format: 4 stores an INT in 4 bytes (as SQL Server
	// does), 0 or 8 stores 8 bytes. Ignored under ROW compression, where
	// integers are varint-coded anyway.
	Widths []uint8
}

func (c *RowCodec) intWidth(col int) int {
	if c.Widths != nil && col < len(c.Widths) && c.Widths[col] == 4 {
		return 4
	}
	return 8
}

// EncodeAppend appends the encoding of row to dst and returns it.
//
// Uncompressed format ("fixed", like SQL Server's FixedVar rows): a null
// bitmap, then 8 bytes for every numeric column and a fixed 4-byte length
// prefix for every string/bytes column. ROW compression replaces these
// with variable-length encodings: zig-zag varints for integers and uvarint
// length prefixes — "variable-length storage formats for numeric types and
// fixed-length character strings" (paper Section 2.3.5).
func (c *RowCodec) EncodeAppend(dst []byte, row sqltypes.Row) ([]byte, error) {
	if len(row) != len(c.Kinds) {
		return nil, fmt.Errorf("storage: row has %d columns, schema has %d", len(row), len(c.Kinds))
	}
	nb := (len(row) + 7) / 8
	nbAt := len(dst)
	for i := 0; i < nb; i++ {
		dst = append(dst, 0)
	}
	for i, v := range row {
		if v.IsNull() {
			dst[nbAt+i/8] |= 1 << uint(i%8)
			continue
		}
		if err := checkKind(v, c.Kinds[i]); err != nil {
			return nil, fmt.Errorf("storage: column %d: %w", i, err)
		}
		switch v.K {
		case sqltypes.KindInt:
			if c.Mode == CompressNone {
				if c.intWidth(i) == 4 {
					if v.I > math.MaxInt32 || v.I < math.MinInt32 {
						return nil, fmt.Errorf("storage: column %d: value %d overflows 4-byte INT", i, v.I)
					}
					dst = appendFixed32(dst, uint32(int32(v.I)))
				} else {
					dst = appendFixed64(dst, uint64(v.I))
				}
			} else {
				dst = binary.AppendVarint(dst, v.I)
			}
		case sqltypes.KindFloat:
			dst = appendFixed64(dst, math.Float64bits(v.F))
		case sqltypes.KindBool:
			dst = append(dst, byte(v.I))
		case sqltypes.KindString:
			if c.Mode == CompressNone {
				dst = appendFixed32(dst, uint32(len(v.S)))
			} else {
				dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			}
			dst = append(dst, v.S...)
		case sqltypes.KindBytes:
			if c.Mode == CompressNone {
				dst = appendFixed32(dst, uint32(len(v.B)))
			} else {
				dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			}
			dst = append(dst, v.B...)
		default:
			return nil, fmt.Errorf("storage: cannot encode kind %s", v.K)
		}
	}
	return dst, nil
}

func checkKind(v sqltypes.Value, want sqltypes.Kind) error {
	if v.K != want {
		return fmt.Errorf("value kind %s does not match declared %s", v.K, want)
	}
	return nil
}

// Decode reads one row from buf, returning the row and the bytes consumed.
// The row's string/bytes values share memory with buf only if copy is
// false; pass copy=true when buf will be reused (e.g. buffer-pool frames).
func (c *RowCodec) Decode(buf []byte, copyData bool) (sqltypes.Row, int, error) {
	row := make(sqltypes.Row, len(c.Kinds))
	n, err := c.DecodeInto(buf, copyData, row)
	return row, n, err
}

// DecodeInto is Decode into a caller-provided row to avoid allocation.
func (c *RowCodec) DecodeInto(buf []byte, copyData bool, row sqltypes.Row) (int, error) {
	nb := (len(c.Kinds) + 7) / 8
	if len(buf) < nb {
		return 0, errBitmapTruncated
	}
	pos := nb
	for i, k := range c.Kinds {
		if buf[i/8]&(1<<uint(i%8)) != 0 {
			row[i] = sqltypes.Null
			continue
		}
		switch k {
		case sqltypes.KindInt:
			if c.Mode == CompressNone {
				w := c.intWidth(i)
				if pos+w > len(buf) {
					return 0, errTruncated(i)
				}
				if w == 4 {
					row[i] = sqltypes.NewInt(int64(int32(binary.LittleEndian.Uint32(buf[pos:]))))
				} else {
					row[i] = sqltypes.NewInt(int64(binary.LittleEndian.Uint64(buf[pos:])))
				}
				pos += w
			} else {
				v, n := binary.Varint(buf[pos:])
				if n <= 0 {
					return 0, errTruncated(i)
				}
				row[i] = sqltypes.NewInt(v)
				pos += n
			}
		case sqltypes.KindFloat:
			if pos+8 > len(buf) {
				return 0, errTruncated(i)
			}
			row[i] = sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case sqltypes.KindBool:
			if pos+1 > len(buf) {
				return 0, errTruncated(i)
			}
			row[i] = sqltypes.NewBool(buf[pos] != 0)
			pos++
		case sqltypes.KindString, sqltypes.KindBytes:
			var ln int
			if c.Mode == CompressNone {
				if pos+4 > len(buf) {
					return 0, errTruncated(i)
				}
				ln = int(binary.LittleEndian.Uint32(buf[pos:]))
				pos += 4
			} else {
				v, n := binary.Uvarint(buf[pos:])
				if n <= 0 || v > uint64(len(buf)) { // also keeps int(v) from wrapping negative
					return 0, errTruncated(i)
				}
				ln = int(v)
				pos += n
			}
			if pos+ln > len(buf) {
				return 0, errTruncated(i)
			}
			data := buf[pos : pos+ln]
			pos += ln
			if k == sqltypes.KindString {
				row[i] = sqltypes.NewString(string(data)) // string() copies
			} else {
				if copyData {
					data = append([]byte(nil), data...)
				}
				row[i] = sqltypes.NewBytes(data)
			}
		default:
			return 0, fmt.Errorf("storage: cannot decode kind %s", k)
		}
	}
	return pos, nil
}

var errBitmapTruncated = fmt.Errorf("storage: row truncated in null bitmap")

func errTruncated(col int) error {
	return fmt.Errorf("storage: row truncated in column %d", col)
}

func appendFixed64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendFixed32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}
