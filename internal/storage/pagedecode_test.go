package storage

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// lazyPageBatch, decodeCompressedBatch and decodeColumnarBatch decode a
// payload of one page format into its form and return one scan's vectors
// over it, decoding counted on sink.
func (c *RowCodec) lazyPageBatch(payload []byte, n int, sink obs.Sink) ([]*vec.Vector, error) {
	f, err := c.rowForm(append([]byte(nil), payload...), n, nil)
	return scanVectors(f, err, sink)
}

func decodeCompressedBatch(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) ([]*vec.Vector, error) {
	f, err := compressedForm(kinds, buf, n, sink)
	return scanVectors(f, err, sink)
}

func decodeColumnarBatch(kinds []sqltypes.Kind, buf []byte, n int, sink obs.Sink) ([]*vec.Vector, error) {
	f, err := columnarForm(kinds, buf, n, sink)
	return scanVectors(f, err, sink)
}

func scanVectors(f *pageForm, err error, sink obs.Sink) ([]*vec.Vector, error) {
	if err != nil {
		return nil, err
	}
	return f.vectors(sink, nil), nil
}

// randomPage draws a schema of 1-8 columns of random kinds and n rows for
// it. Every column has NULLs and one of three value distributions: a few
// distinct values (dictionary), runs of one value (RLE), or a fresh value a
// row (flat); BYTES columns hold packed sequences in their wire format.
func randomPage(r *rand.Rand, n int) (*RowCodec, []sqltypes.Row) {
	nCols := 1 + r.Intn(8)
	codec := &RowCodec{Kinds: make([]sqltypes.Kind, nCols), Widths: make([]uint8, nCols)}
	gens := make([]func() sqltypes.Value, nCols)
	for c := range gens {
		kind := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindBool, sqltypes.KindString, sqltypes.KindBytes}[r.Intn(5)]
		codec.Kinds[c] = kind
		narrow := kind == sqltypes.KindInt && r.Intn(2) == 0
		if narrow {
			codec.Widths[c] = 4
		}
		fresh := func() sqltypes.Value {
			switch kind {
			case sqltypes.KindInt:
				if narrow {
					return sqltypes.NewInt(int64(int32(r.Uint32())))
				}
				return sqltypes.NewInt(int64(r.Uint64()))
			case sqltypes.KindFloat:
				return sqltypes.NewFloat(r.NormFloat64() * 1e3)
			case sqltypes.KindBool:
				return sqltypes.NewBool(r.Intn(2) == 1)
			}
			read := make([]byte, r.Intn(24))
			for i := range read {
				read[i] = "ACGT"[r.Intn(4)]
			}
			if kind == sqltypes.KindString {
				return sqltypes.NewString("lane7:" + string(read)) // a prefix PAGE compression strips
			}
			p, err := seq.Pack(string(read))
			if err != nil {
				panic(err)
			}
			return sqltypes.NewBytes(p.Encode())
		}
		gen := fresh
		switch r.Intn(3) {
		case 0: // dictionary
			few := []sqltypes.Value{fresh(), fresh(), fresh(), fresh()}
			gen = func() sqltypes.Value { return few[r.Intn(len(few))] }
		case 1: // runs
			var cur sqltypes.Value
			left := 0
			gen = func() sqltypes.Value {
				if left == 0 {
					cur, left = fresh(), 1+r.Intn(20)
				}
				left--
				return cur
			}
		}
		nulls := []float64{0, 0.1, 0.9}[r.Intn(3)]
		gens[c] = func() sqltypes.Value {
			v := gen() // drawn either way: a NULL does not break a run
			if r.Float64() < nulls {
				return sqltypes.Null
			}
			return v
		}
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = make(sqltypes.Row, nCols)
		for c, gen := range gens {
			rows[i][c] = gen()
		}
	}
	return codec, rows
}

// TestPageDecodersRoundTrip holds each of the three page decoders to the
// rows that were encoded: over random schemas, NULL rates and
// dictionary/run/flat distributions, a page image decoded as a batch reads
// back cell for cell — whichever subset of its columns is read, and the
// whole of it as rows.
func TestPageDecodersRoundTrip(t *testing.T) {
	type format struct {
		name   string
		encode func(*RowCodec, []sqltypes.Row) ([]byte, error)
		decode func(*RowCodec, []byte, int) ([]*vec.Vector, error)
	}
	rowPages := func(mode Compression) format {
		return format{"rows-" + mode.String(),
			func(c *RowCodec, rows []sqltypes.Row) (img []byte, err error) {
				c.Mode = mode
				for _, row := range rows {
					if img, err = c.EncodeAppend(img, row); err != nil {
						return nil, err
					}
				}
				return img, nil
			},
			func(c *RowCodec, img []byte, n int) ([]*vec.Vector, error) {
				return c.lazyPageBatch(img, n, obs.Sink{})
			}}
	}
	formats := []format{
		rowPages(CompressNone),
		rowPages(CompressRow),
		{"compressed",
			func(c *RowCodec, rows []sqltypes.Row) ([]byte, error) { return CompressPageRows(c.Kinds, rows) },
			func(c *RowCodec, img []byte, n int) ([]*vec.Vector, error) {
				return decodeCompressedBatch(c.Kinds, img, n, obs.Sink{})
			}},
		{"columnar",
			func(c *RowCodec, rows []sqltypes.Row) ([]byte, error) {
				return EncodeColumnarPage(c.Kinds, rows, math.MaxInt)
			},
			func(c *RowCodec, img []byte, n int) ([]*vec.Vector, error) {
				return decodeColumnarBatch(c.Kinds, img, n, obs.Sink{})
			}},
	}
	r := rand.New(rand.NewSource(18))
	for trial := 0; trial < 60; trial++ {
		codec, rows := randomPage(r, r.Intn(120)) // a page of 8 such columns stays under 64 KB
		for _, f := range formats {
			name := fmt.Sprintf("trial %d, %s, kinds %v", trial, f.name, codec.Kinds)
			img, err := f.encode(codec, rows)
			if err != nil {
				t.Fatalf("%s: encode: %v", name, err)
			}
			for pass := 0; pass < 3; pass++ {
				cols, err := f.decode(codec, img, len(rows))
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if pass == 0 { // every column, as rows
					got, err := vectorRows(cols, len(rows))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					for i, row := range rows {
						for c := range row {
							if got[i][c].K != row[c].K || sqltypes.Compare(got[i][c], row[c]) != 0 {
								t.Fatalf("%s: row %d column %d = %v (%s), wrote %v (%s)", name, i, c, got[i][c], got[i][c].K, row[c], row[c].K)
							}
						}
					}
					continue
				}
				for c, col := range cols { // a random subset, column by column
					if r.Intn(2) == 0 {
						continue
					}
					if col.Len() != len(rows) {
						t.Fatalf("%s: column %d holds %d rows, wrote %d", name, c, col.Len(), len(rows))
					}
					checkColumn(t, col, c, rows)
				}
			}
		}
	}
}

// FuzzPageBatchDecode: the PAGE-compressed and columnar decoders read bytes
// from disk, so arbitrary payloads must come back as an error of the
// ErrCorruptPage class or as n rows every cell of which can be read —
// never a panic, never another length.
func FuzzPageBatchDecode(f *testing.F) {
	kinds := pageTestCodec(CompressRow).Kinds
	for _, distinct := range []int{4, 12} { // dictionary/RLE columns, flat columns
		rows := make([]sqltypes.Row, 12)
		for i := range rows {
			rows[i] = pageTestRow(i % distinct)
		}
		comp, err := CompressPageRows(kinds, rows)
		if err != nil {
			f.Fatal(err)
		}
		col, err := EncodeColumnarPage(kinds, rows, math.MaxInt)
		if err != nil {
			f.Fatal(err)
		}
		for i, img := range [][]byte{comp, col} {
			columnar := i == 1
			f.Add(img, uint16(12), columnar)
			f.Add(img[:len(img)/2], uint16(12), columnar)
			f.Add(img[:len(img)-1], uint16(12), columnar)
			f.Add(img, uint16(13), columnar) // the header's count and the payload's disagree
		}
	}
	f.Add([]byte{}, uint16(0), false)
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, columnar bool) {
		if len(payload) > heapCapacity {
			payload = payload[:heapCapacity]
		}
		decode := decodeCompressedBatch
		if columnar {
			decode = decodeColumnarBatch
		}
		cols, err := decode(kinds, payload, int(n), obs.Sink{})
		if err != nil {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("refused with an error outside the ErrCorruptPage class: %v", err)
			}
			return
		}
		if len(cols) != len(kinds) {
			t.Fatalf("%d columns, schema has %d", len(cols), len(kinds))
		}
		for c, col := range cols {
			if col.Len() != int(n) {
				t.Fatalf("column %d holds %d rows, header says %d", c, col.Len(), n)
			}
			for r := 0; r < int(n); r++ {
				if _, err := col.Value(r); err != nil {
					t.Fatalf("column %d row %d of an accepted page: %v", c, r, err)
				}
			}
		}
	})
}
