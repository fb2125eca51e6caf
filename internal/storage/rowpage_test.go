package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// pageTestCodec is the layout the row-page tests share: a 4-byte INT
// beside an 8-byte one, and one column of every other storage kind.
func pageTestCodec(mode Compression) *RowCodec {
	return &RowCodec{
		Kinds: []sqltypes.Kind{
			sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindFloat,
			sqltypes.KindBool, sqltypes.KindString, sqltypes.KindBytes,
		},
		Mode:   mode,
		Widths: []uint8{4, 8, 0, 0, 0, 0},
	}
}

// pageTestRow is row i of the shared layout; every column is NULL in
// some rows, and text cells are empty in some.
func pageTestRow(i int) sqltypes.Row {
	row := sqltypes.Row{
		sqltypes.NewInt(int64(i*7919 - 40000)),
		sqltypes.NewInt(int64(i) << 33),
		sqltypes.NewFloat(float64(i) / 7),
		sqltypes.NewBool(i%3 == 0),
		sqltypes.NewString(fmt.Sprintf("ACGT%0*d", i%9, i)),
		sqltypes.NewBytes([]byte{byte(i), byte(i >> 3), byte(i >> 5)}[:i%4]),
	}
	for c := range row {
		if (i+c)%5 == 0 {
			row[c] = sqltypes.Null
		}
	}
	return row
}

// encodeTestPage encodes n rows of the shared layout into one payload.
func encodeTestPage(t testing.TB, codec *RowCodec, n int) []byte {
	t.Helper()
	var payload []byte
	for i := 0; i < n; i++ {
		var err error
		if payload, err = codec.EncodeAppend(payload, pageTestRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	return payload
}

// decodeReference decodes n rows with RowCodec.Decode, the reference the
// page kernel must agree with.
func decodeReference(codec *RowCodec, payload []byte, n int) ([]sqltypes.Row, error) {
	rows := make([]sqltypes.Row, 0, n)
	for pos := 0; len(rows) < n; {
		row, used, err := codec.Decode(payload[pos:], true)
		if err != nil {
			return nil, err
		}
		pos += used
		rows = append(rows, row)
	}
	return rows, nil
}

// checkColumn reads every cell of column c and compares it with the
// reference rows.
func checkColumn(t testing.TB, col *vec.Vector, c int, want []sqltypes.Row) {
	t.Helper()
	for r, row := range want {
		got, err := col.Value(r)
		if err != nil {
			t.Fatalf("column %d row %d: %v", c, r, err)
		}
		if got.K != row[c].K || sqltypes.Compare(got, row[c]) != 0 {
			t.Fatalf("column %d row %d = %v (%s), Decode has %v (%s)", c, r, got, got.K, row[c], row[c].K)
		}
	}
}

// TestRowPageColumnSubsets: for every subset of the columns, in both row
// formats, the lazy kernel returns what RowCodec.Decode returns, leaves
// the other columns encoded, and counts exactly the cells it decoded.
func TestRowPageColumnSubsets(t *testing.T) {
	const n = 60
	for _, mode := range []Compression{CompressNone, CompressRow} {
		codec := pageTestCodec(mode)
		payload := encodeTestPage(t, codec, n)
		want, err := decodeReference(codec, payload, n)
		if err != nil {
			t.Fatal(err)
		}
		nCols := len(codec.Kinds)
		for subset := 0; subset < 1<<nCols; subset++ {
			stats := obs.Sink{Engine: new(obs.Counters)}
			cols, err := codec.lazyPageBatch(payload, n, stats)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			cells := int64(0)
			for c := 0; c < nCols; c++ {
				if subset&(1<<c) == 0 {
					continue
				}
				if cols[c].Len() != n {
					t.Fatalf("%s column %d: Len %d before decoding, want %d", mode, c, cols[c].Len(), n)
				}
				checkColumn(t, cols[c], c, want)
				for _, row := range want {
					if !row[c].IsNull() {
						cells++
					}
				}
			}
			for c := 0; c < nCols; c++ {
				if touched := subset&(1<<c) != 0; touched == (cols[c].Lazy != nil) {
					t.Fatalf("%s subset %06b: column %d touched=%v but lazy=%v", mode, subset, c, touched, cols[c].Lazy != nil)
				}
			}
			if got := stats.Engine.Get(obs.ScanValuesDecoded); got != cells {
				t.Fatalf("%s subset %06b: counted %d decoded cells, read %d", mode, subset, got, cells)
			}
		}
	}
}

// TestRowPageTextOwnsItsBytes: a text column's strings never alias the
// buffer-pool frame the page was read from (it is reused once the page
// is unpinned), and they are cut from one backing allocation a page, not
// one a cell.
func TestRowPageTextOwnsItsBytes(t *testing.T) {
	const n, strCol = 40, 4
	codec := pageTestCodec(CompressNone)
	frame := encodeTestPage(t, codec, n)
	stats := obs.Sink{Engine: new(obs.Counters)}
	cols, err := codec.lazyPageBatch(frame, n, stats)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	for r := 0; r < n; r++ {
		v, err := cols[strCol].Value(r)
		if err != nil {
			t.Fatal(err)
		}
		if ref := pageTestRow(r)[strCol]; v.K != ref.K || v.S != ref.S {
			t.Fatalf("row %d = %q after the frame was overwritten, want %q", r, v.S, ref.S)
		}
	}

	payload := encodeTestPage(t, codec, n)
	allocs := testing.AllocsPerRun(20, func() {
		cols, err := codec.lazyPageBatch(payload, n, stats)
		if err != nil {
			t.Fatal(err)
		}
		if err := cols[strCol].Materialize(); err != nil {
			t.Fatal(err)
		}
	})
	// The page costs a fixed handful of allocations (payload copy, offsets,
	// vectors, hooks, null bitmaps); the text column adds its backing
	// string and its []string. One allocation a cell would be n more.
	if allocs >= n {
		t.Errorf("%v allocations to decode one text column of %d rows", allocs, n)
	}
}

// TestCorruptLegacyPageHeader: a version-0 page carries no checksum, so
// a damaged used-bytes or row-count field reaches the decoder, which must
// refuse it with ErrCorruptPage instead of slicing past the page.
func TestCorruptLegacyPageHeader(t *testing.T) {
	pool := NewBufferPool(16)
	h, err := OpenHeapEnv(filepath.Join(t.TempDir(), "legacy.dat"), sampleKinds(), nil, CompressNone, pool,
		HeapEnv{DisableChecksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 50; i++ {
		if err := h.Append(sampleRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var page [PageSize]byte
	if err := h.file.ReadPage(1, page[:]); err != nil {
		t.Fatal(err)
	}
	if page[pageVerOff] != PageVerLegacy {
		t.Fatalf("page version %d, want legacy", page[pageVerOff])
	}
	stats := obs.Sink{Engine: new(obs.Counters)}
	if f, err := h.decodePageBatch(page[:], stats); err != nil || f.n != 50 {
		t.Fatalf("undamaged page: %v", err)
	}

	damaged := page
	binary.LittleEndian.PutUint16(damaged[4:], heapCapacity+1)
	if _, err := h.decodePageBatch(damaged[:], stats); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("used > capacity: %v, want ErrCorruptPage", err)
	}

	damaged = page
	binary.LittleEndian.PutUint16(damaged[2:], 0xffff)
	if _, err := h.decodePageBatch(damaged[:], stats); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("65535 rows: %v, want ErrCorruptPage", err)
	}

	// Through the scan path: the damaged page fails the scan, nothing panics.
	binary.LittleEndian.PutUint16(page[4:], 0xffff)
	if err := h.file.WritePage(1, page[:]); err != nil {
		t.Fatal(err)
	}
	pool.DropFile(h.file)
	if _, err := h.NewBatchIterator(0, 1, false, obs.Sink{}).NextBatch(); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("batch scan of the damaged page: %v, want ErrCorruptPage", err)
	}
	if _, _, err := h.FetchRowCached(0, NewHeapFetchCache(obs.Sink{})); !errors.Is(err, ErrCorruptPage) {
		t.Errorf("fetch from the damaged page: %v, want ErrCorruptPage", err)
	}
}

// FuzzRowPageBatch: the page kernel reads bytes from disk, so arbitrary
// payloads must come back as an error or as a batch every cell of which
// can be read — never a panic. Whenever RowCodec.Decode accepts the
// payload the kernel must too, with the same values.
func FuzzRowPageBatch(f *testing.F) {
	for _, mode := range []Compression{CompressNone, CompressRow} {
		codec := pageTestCodec(mode)
		payload := encodeTestPage(f, codec, 12)
		f.Add(payload, uint16(12), mode == CompressRow)
		f.Add(payload[:len(payload)/2], uint16(12), mode == CompressRow)
		f.Add(payload, uint16(13), mode == CompressRow)
	}
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff}, uint16(1), false)
	f.Fuzz(func(t *testing.T, payload []byte, n uint16, rowMode bool) {
		if len(payload) > heapCapacity {
			payload = payload[:heapCapacity]
		}
		mode := CompressNone
		if rowMode {
			mode = CompressRow
		}
		codec := pageTestCodec(mode)
		stats := obs.Sink{Engine: new(obs.Counters)}
		cols, err := codec.lazyPageBatch(payload, int(n), stats)
		want, refErr := decodeReference(codec, payload, int(n))
		if err != nil {
			if refErr == nil {
				t.Fatalf("kernel refused a page RowCodec.Decode accepts: %v", err)
			}
			return
		}
		if refErr != nil {
			t.Fatalf("kernel accepted a page RowCodec.Decode refuses: %v", refErr)
		}
		for c, col := range cols {
			checkColumn(t, col, c, want)
		}
	})
}

// BenchmarkRowPageBatch times the kernel on one full page of an
// 8-column lane table (the benchmark's [Read]): the walk alone, the walk
// plus two INT columns, and every column, in both row formats. The
// fixed per-page cost and the per-column cost are what a scan pays.
func BenchmarkRowPageBatch(b *testing.B) {
	kinds := []sqltypes.Kind{
		sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindInt,
		sqltypes.KindInt, sqltypes.KindInt, sqltypes.KindString, sqltypes.KindString,
	}
	for _, mode := range []Compression{CompressNone, CompressRow} {
		codec := &RowCodec{Kinds: kinds, Mode: mode, Widths: []uint8{8, 4, 4, 4, 4, 4, 0, 0}}
		var payload []byte
		n := 0
		for {
			row := sqltypes.Row{
				sqltypes.NewInt(int64(n)), sqltypes.NewInt(855), sqltypes.NewInt(1), sqltypes.NewInt(int64(n % 100)),
				sqltypes.NewInt(int64(n * 17 % 2048)), sqltypes.NewInt(int64(n * 31 % 2048)),
				sqltypes.NewString("ACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
				sqltypes.NewString("IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
			}
			next, err := codec.EncodeAppend(payload, row)
			if err != nil {
				b.Fatal(err)
			}
			if len(next) > heapCapacity {
				break
			}
			payload, n = next, n+1
		}
		for _, touch := range [][]int{{}, {3, 4}, {0, 1, 2, 3, 4, 5, 6, 7}} {
			b.Run(fmt.Sprintf("%s/touch%d", mode, len(touch)), func(b *testing.B) {
				stats := obs.Sink{Engine: new(obs.Counters)}
				b.SetBytes(int64(len(payload)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					cols, err := codec.lazyPageBatch(payload, n, stats)
					if err != nil {
						b.Fatal(err)
					}
					for _, c := range touch {
						if err := cols[c].Materialize(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
