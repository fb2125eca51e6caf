package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

func TestPagedFileBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dat")
	f, err := OpenPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.NumPages() != 0 {
		t.Fatalf("new file has %d pages", f.NumPages())
	}
	id, err := f.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || f.NumPages() != 1 {
		t.Fatalf("first page id %d, pages %d", id, f.NumPages())
	}
	buf := make([]byte, PageSize)
	buf[0] = 0xAA
	buf[PageSize-1] = 0xBB
	if err := f.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, PageSize)
	if err := f.ReadPage(id, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAA || got[PageSize-1] != 0xBB {
		t.Error("page round trip corrupted data")
	}
	if err := f.ReadPage(5, got); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if err := f.WritePage(-1, buf); err == nil {
		t.Error("negative page write succeeded")
	}
	if err := f.ReadPage(id, got[:10]); err == nil {
		t.Error("short buffer read succeeded")
	}
}

func TestPagedFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dat")
	f, _ := OpenPagedFile(path)
	f.Allocate()
	f.Allocate()
	f.Close()
	f2, err := OpenPagedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 2 {
		t.Errorf("reopened with %d pages", f2.NumPages())
	}
	if err := f2.Truncate(1); err != nil {
		t.Fatal(err)
	}
	if f2.NumPages() != 1 {
		t.Errorf("truncate left %d pages", f2.NumPages())
	}
	if err := f2.Truncate(5); err == nil {
		t.Error("growing truncate succeeded")
	}
}

func TestBufferPoolPinEvict(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dat")
	f, _ := OpenPagedFile(path)
	defer f.Close()
	for i := 0; i < 20; i++ {
		id, _ := f.Allocate()
		buf := make([]byte, PageSize)
		buf[0] = byte(i)
		f.WritePage(id, buf)
	}
	bp := NewBufferPool(8)
	// Read all pages; pool must evict to make room.
	for i := 0; i < 20; i++ {
		fr, err := bp.Get(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d content %d", i, fr.Data()[0])
		}
		bp.Unpin(fr, false)
	}
	if bp.Stats().Evictions == 0 {
		t.Error("no evictions with 20 pages in 8 frames")
	}
	// Re-read page 19 - should hit.
	h := bp.Stats().Hits
	fr, _ := bp.Get(f, 19)
	bp.Unpin(fr, false)
	if bp.Stats().Hits != h+1 {
		t.Error("expected a buffer hit on recently used page")
	}
}

func TestBufferPoolExhaustion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dat")
	f, _ := OpenPagedFile(path)
	defer f.Close()
	bp := NewBufferPool(8)
	var frames []*frame
	for i := 0; i < 8; i++ {
		id, _ := f.Allocate()
		fr, err := bp.NewPage(f, id)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	id, _ := f.Allocate()
	if _, err := bp.Get(f, id); err == nil {
		t.Error("expected pool exhaustion with all frames pinned")
	}
	for _, fr := range frames {
		bp.Unpin(fr, true) // dirty: still not evictable
	}
	if _, err := bp.Get(f, id); err == nil {
		t.Error("expected pool exhaustion with all frames dirty (no-steal)")
	}
	if err := bp.FlushFile(f); err != nil {
		t.Fatal(err)
	}
	fr, err := bp.Get(f, id)
	if err != nil {
		t.Fatalf("after flush: %v", err)
	}
	bp.Unpin(fr, false)
}

func TestBufferPoolFlushPersists(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.dat")
	f, _ := OpenPagedFile(path)
	bp := NewBufferPool(8)
	id, _ := f.Allocate()
	fr, _ := bp.NewPage(f, id)
	fr.Data()[7] = 42
	bp.Unpin(fr, true)
	if err := bp.FlushFile(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f2, _ := OpenPagedFile(path)
	defer f2.Close()
	buf := make([]byte, PageSize)
	f2.ReadPage(id, buf)
	if buf[7] != 42 {
		t.Error("flushed page not persisted")
	}
}

func intCol() []sqltypes.Kind { return []sqltypes.Kind{sqltypes.KindInt} }

func sampleKinds() []sqltypes.Kind {
	return []sqltypes.Kind{
		sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString,
		sqltypes.KindBytes, sqltypes.KindBool,
	}
}

func sampleRow(i int) sqltypes.Row {
	return sqltypes.Row{
		sqltypes.NewInt(int64(i)),
		sqltypes.NewFloat(float64(i) / 3),
		sqltypes.NewString(fmt.Sprintf("str-%d", i)),
		sqltypes.NewBytes([]byte{byte(i), byte(i >> 8)}),
		sqltypes.NewBool(i%2 == 0),
	}
}

func TestRowCodecRoundTrip(t *testing.T) {
	for _, mode := range []Compression{CompressNone, CompressRow} {
		codec := RowCodec{Kinds: sampleKinds(), Mode: mode}
		for i := 0; i < 50; i++ {
			row := sampleRow(i)
			if i%7 == 0 {
				row[2] = sqltypes.Null
			}
			enc, err := codec.EncodeAppend(nil, row)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			dec, n, err := codec.Decode(enc, true)
			if err != nil {
				t.Fatalf("%s: %v", mode, err)
			}
			if n != len(enc) {
				t.Errorf("%s: consumed %d of %d", mode, n, len(enc))
			}
			if !reflect.DeepEqual(dec, row) {
				t.Errorf("%s: round trip %v != %v", mode, dec, row)
			}
		}
	}
}

func TestRowCodecRowSmallerThanFixed(t *testing.T) {
	// ROW compression must beat the fixed format on small ints and short
	// strings (the premise of Table 1's row-compression column).
	row := sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewString("ab")}
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	fixed, _ := (&RowCodec{Kinds: kinds, Mode: CompressNone}).EncodeAppend(nil, row)
	rowc, _ := (&RowCodec{Kinds: kinds, Mode: CompressRow}).EncodeAppend(nil, row)
	if len(rowc) >= len(fixed) {
		t.Errorf("row-compressed %d >= fixed %d", len(rowc), len(fixed))
	}
}

func TestRowCodecErrors(t *testing.T) {
	codec := RowCodec{Kinds: intCol(), Mode: CompressNone}
	if _, err := codec.EncodeAppend(nil, sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(2)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := codec.EncodeAppend(nil, sqltypes.Row{sqltypes.NewString("x")}); err == nil {
		t.Error("kind mismatch accepted")
	}
	enc, _ := codec.EncodeAppend(nil, sqltypes.Row{sqltypes.NewInt(500)})
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := codec.Decode(enc[:cut], true); err == nil {
			t.Errorf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestRowCodecFixedIntWidths(t *testing.T) {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindInt}
	codec := RowCodec{Kinds: kinds, Mode: CompressNone, Widths: []uint8{4, 8}}
	row := sqltypes.Row{sqltypes.NewInt(-123456), sqltypes.NewInt(1 << 40)}
	enc, err := codec.EncodeAppend(nil, row)
	if err != nil {
		t.Fatal(err)
	}
	// bitmap(1) + 4 + 8 bytes.
	if len(enc) != 13 {
		t.Errorf("encoded %d bytes, want 13", len(enc))
	}
	dec, n, err := codec.Decode(enc, true)
	if err != nil || n != len(enc) {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, row) {
		t.Errorf("round trip %v != %v", dec, row)
	}
	// 4-byte column rejects out-of-range values.
	if _, err := codec.EncodeAppend(nil, sqltypes.Row{sqltypes.NewInt(1 << 40), sqltypes.NewInt(0)}); err == nil {
		t.Error("int32 overflow accepted in 4-byte column")
	}
	// Negative boundary values survive.
	edge := sqltypes.Row{sqltypes.NewInt(-(1 << 31)), sqltypes.NewInt(-1)}
	enc, _ = codec.EncodeAppend(nil, edge)
	dec, _, err = codec.Decode(enc, true)
	if err != nil || !reflect.DeepEqual(dec, edge) {
		t.Errorf("edge round trip %v != %v (%v)", dec, edge, err)
	}
}

func TestHeapWidthsRoundTrip(t *testing.T) {
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	h, err := OpenHeapWidths(filepath.Join(t.TempDir(), "h.dat"), kinds, []uint8{4, 0}, CompressNone, NewBufferPool(16))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 700; i++ {
		if err := h.Append(sqltypes.Row{sqltypes.NewInt(int64(i - 350)), sqltypes.NewString("x")}); err != nil {
			t.Fatal(err)
		}
	}
	rows := readAll(t, h)
	for i, r := range rows {
		if r[0].I != int64(i-350) {
			t.Fatalf("row %d = %v", i, r)
		}
	}
	if len(rows) != 700 {
		t.Fatalf("scanned %d", len(rows))
	}
}

func TestHeapUsedBytes(t *testing.T) {
	h, _ := openTestHeap(t, CompressRow)
	defer h.Close()
	for i := 0; i < 500; i++ {
		h.Append(sampleRow(i))
	}
	used, err := h.UsedBytes()
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 {
		t.Error("no used bytes after appends")
	}
	// Once checkpointed, payload bytes fit within the allocated pages.
	if err := h.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	used, err = h.UsedBytes()
	if err != nil {
		t.Fatal(err)
	}
	if used <= 0 || used > h.SizeBytes() {
		t.Errorf("used = %d, allocated = %d", used, h.SizeBytes())
	}
}

func TestRowCodecQuick(t *testing.T) {
	codec := RowCodec{
		Kinds: []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString},
		Mode:  CompressRow,
	}
	f := func(i int64, s string, null bool) bool {
		row := sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(s)}
		if null {
			row[1] = sqltypes.Null
		}
		enc, err := codec.EncodeAppend(nil, row)
		if err != nil {
			return false
		}
		dec, n, err := codec.Decode(enc, true)
		return err == nil && n == len(enc) && reflect.DeepEqual(dec, row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPageCompressionRoundTrip(t *testing.T) {
	kinds := sampleKinds()
	var rows []sqltypes.Row
	for i := 0; i < 100; i++ {
		r := sampleRow(i % 10) // repetition for the dictionary
		if i%9 == 0 {
			r[3] = sqltypes.Null
		}
		rows = append(rows, r)
	}
	buf, err := CompressPageRows(kinds, rows)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decompressRows(kinds, buf, len(rows))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(rows) {
		t.Fatalf("%d rows decoded", len(dec))
	}
	for i := range rows {
		if !reflect.DeepEqual(dec[i], rows[i]) {
			t.Errorf("row %d: %v != %v", i, dec[i], rows[i])
		}
	}
}

func TestPageCompressionShrinksRepetitiveData(t *testing.T) {
	// The DGE scenario: few distinct tags repeated many times.
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	codec := RowCodec{Kinds: kinds, Mode: CompressRow}
	var rows []sqltypes.Row
	var raw []byte
	for i := 0; i < 200; i++ {
		r := sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("TAGSEQ" + strings.Repeat("ACGT", 5) + fmt.Sprint(i%4)),
		}
		rows = append(rows, r)
		raw, _ = codec.EncodeAppend(raw, r)
	}
	comp, err := CompressPageRows(kinds, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) > len(raw)/2 {
		t.Errorf("compressed %d vs raw %d: dictionary not effective on repetitive data", len(comp), len(raw))
	}
}

func TestPageCompressionUniqueDataBarelyShrinks(t *testing.T) {
	// The 1000 Genomes scenario: near-unique sequences. Page compression
	// should NOT achieve large savings (paper Section 5.1.2).
	kinds := []sqltypes.Kind{sqltypes.KindString}
	codec := RowCodec{Kinds: kinds, Mode: CompressRow}
	rng := rand.New(rand.NewSource(1))
	var rows []sqltypes.Row
	var raw []byte
	for i := 0; i < 200; i++ {
		b := make([]byte, 36)
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		r := sqltypes.Row{sqltypes.NewString(string(b))}
		rows = append(rows, r)
		raw, _ = codec.EncodeAppend(raw, r)
	}
	comp, err := CompressPageRows(kinds, rows)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(comp)) < 0.85*float64(len(raw)) {
		t.Errorf("compressed %d vs raw %d: unique data should not compress well", len(comp), len(raw))
	}
}

func TestPageCompressionQuick(t *testing.T) {
	kinds := []sqltypes.Kind{sqltypes.KindString, sqltypes.KindInt}
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		rows := make([]sqltypes.Row, len(vals))
		for i, v := range vals {
			rows[i] = sqltypes.Row{
				sqltypes.NewString(strings.Repeat("x", int(v)%50) + fmt.Sprint(v%7)),
				sqltypes.NewInt(int64(v)),
			}
		}
		buf, err := CompressPageRows(kinds, rows)
		if err != nil {
			return false
		}
		dec, err := decompressRows(kinds, buf, len(rows))
		if err != nil || len(dec) != len(rows) {
			return false
		}
		for i := range rows {
			if !reflect.DeepEqual(dec[i], rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// decompressRows decodes a CompressPageRows image of n rows through the
// batch decoder and reads the rows off its vectors.
func decompressRows(kinds []sqltypes.Kind, buf []byte, n int) ([]sqltypes.Row, error) {
	cols, err := decodeCompressedBatch(kinds, buf, n, obs.Sink{})
	if err != nil {
		return nil, err
	}
	return vectorRows(cols, n)
}

// readRange returns the rows of sealed pages [lo, hi) — with tail, of
// every sealed page from lo and the unsealed tail — read off the heap's
// batch cursor, checking that row indexes run on from the range's first.
func readRange(t testing.TB, h *Heap, lo, hi int64, tail bool) []sqltypes.Row {
	t.Helper()
	var rows []sqltypes.Row
	it := h.NewBatchIterator(lo, hi, tail, obs.Sink{})
	defer it.Close()
	first := int64(-1)
	for {
		b, err := it.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return rows
		}
		if first < 0 {
			first = b.Base
		}
		if b.Base != first+int64(len(rows)) {
			t.Fatalf("row %d of the range has index %d, the range starts at %d", len(rows), b.Base, first)
		}
		for r := 0; r < b.Rows(); r++ {
			row, err := b.ReadRow(r, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
}

// readAll returns every row of the heap in insertion order.
func readAll(t testing.TB, h *Heap) []sqltypes.Row {
	t.Helper()
	return readRange(t, h, 0, 0, true)
}

func openTestHeap(t *testing.T, comp Compression) (*Heap, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "heap.dat")
	h, err := OpenHeap(path, sampleKinds(), comp, NewBufferPool(64))
	if err != nil {
		t.Fatal(err)
	}
	return h, path
}

func TestHeapAppendScan(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressRow, CompressPage} {
		t.Run(comp.String(), func(t *testing.T) {
			h, _ := openTestHeap(t, comp)
			defer h.Close()
			const n = 2000
			for i := 0; i < n; i++ {
				if err := h.Append(sampleRow(i)); err != nil {
					t.Fatal(err)
				}
			}
			if h.RowCount() != n {
				t.Fatalf("RowCount = %d", h.RowCount())
			}
			rows := readAll(t, h)
			for i, r := range rows {
				if want := sampleRow(i); !reflect.DeepEqual(r, want) {
					t.Fatalf("row %d = %v, want %v", i, r, want)
				}
			}
			if len(rows) != n {
				t.Fatalf("scanned %d rows", len(rows))
			}
		})
	}
}

// TestFetchRowCached: a run of point fetches landing on one sealed page
// takes the page from the pool once and decodes it once, whatever their
// order; the cache's sink is credited the pool traffic and nothing under
// scan.* (those counters are the work of table scans); a tail row is the
// caller's copy; a position past the heap's end is an error.
func TestFetchRowCached(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressRow, CompressPage} {
		t.Run(comp.String(), func(t *testing.T) {
			h, _ := openTestHeap(t, comp)
			defer h.Close()
			const n = 2000
			for i := 0; i < n; i++ {
				if err := h.Append(sampleRow(i)); err != nil {
					t.Fatal(err)
				}
			}
			if len(h.pageRows) < 2 || len(h.tailRows) == 0 {
				t.Fatalf("want sealed pages and a tail, have %d pages and %d tail rows", len(h.pageRows), len(h.tailRows))
			}
			sink := obs.Sink{Engine: new(obs.Counters)}
			gets := func() int64 { return sink.Engine.Get(obs.PoolHits) + sink.Engine.Get(obs.PoolMisses) }
			c := NewHeapFetchCache(sink)
			fetch := func(idx int64) sqltypes.Row {
				t.Helper()
				row, err := h.FetchRowCached(idx, c)
				if err != nil {
					t.Fatalf("fetch %d: %v", idx, err)
				}
				if want := sampleRow(int(idx)); !reflect.DeepEqual(row, want) {
					t.Fatalf("fetch %d = %v, want %v", idx, row, want)
				}
				return row
			}

			last := int64(h.pageRows[0]) - 1
			fetch(last)
			decoded := c.b.Cols[0]
			for idx := last - 1; idx >= 0; idx-- {
				fetch(idx)
			}
			if gets() != 1 {
				t.Errorf("%d fetches on one page took it from the pool %d times", last+1, gets())
			}
			if c.b.Cols[0] != decoded {
				t.Error("the cached page was decoded again")
			}
			fetch(last + 1) // the next page replaces it
			if gets() != 2 || c.b.Cols[0] == decoded {
				t.Errorf("a fetch on the next page: %d pool gets, cache replaced = %v", gets(), c.b.Cols[0] != decoded)
			}
			for _, counter := range []obs.Counter{obs.ScanBatches, obs.ScanRows, obs.ScanValuesDecoded, obs.ScanDictEntriesDecoded} {
				if got := sink.Engine.Get(counter); got != 0 {
					t.Errorf("fetches credited %d to %s, a table-scan counter", got, counter)
				}
			}

			row := fetch(n - 1) // a tail row: no pool traffic, and the caller's to overwrite
			row[0] = sqltypes.NewInt(-1)
			fetch(n - 1)
			if gets() != 2 {
				t.Errorf("tail fetches went to the pool: %d gets", gets())
			}
			for _, idx := range []int64{n, -1} {
				if _, err := h.FetchRowCached(idx, c); err == nil {
					t.Errorf("fetch of row %d of %d succeeded", idx, n)
				}
			}
		})
	}
}

func TestHeapCheckpointRecovery(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressRow, CompressPage} {
		t.Run(comp.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "heap.dat")
			pool := NewBufferPool(64)
			h, err := OpenHeap(path, sampleKinds(), comp, pool)
			if err != nil {
				t.Fatal(err)
			}
			const durable = 1500
			for i := 0; i < durable; i++ {
				h.Append(sampleRow(i))
			}
			if err := h.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// Rows after the checkpoint simulate a crash: they must be
			// discarded on reopen (the WAL would replay them).
			for i := durable; i < durable+700; i++ {
				h.Append(sampleRow(i))
			}
			h.Close() // no checkpoint: "crash"

			h2, err := OpenHeap(path, sampleKinds(), comp, NewBufferPool(64))
			if err != nil {
				t.Fatal(err)
			}
			defer h2.Close()
			if h2.RowCount() != durable {
				t.Fatalf("recovered %d rows, want %d", h2.RowCount(), durable)
			}
			for i, r := range readAll(t, h2) {
				if !reflect.DeepEqual(r, sampleRow(i)) {
					t.Fatalf("row %d mismatch after recovery", i)
				}
			}
		})
	}
}

func TestHeapTruncateRollback(t *testing.T) {
	h, _ := openTestHeap(t, CompressRow)
	defer h.Close()
	for i := 0; i < 3000; i++ {
		h.Append(sampleRow(i))
	}
	if err := h.Truncate(1200); err != nil {
		t.Fatal(err)
	}
	if h.RowCount() != 1200 {
		t.Fatalf("RowCount after truncate = %d", h.RowCount())
	}
	rows := readAll(t, h)
	for i, r := range rows {
		if !reflect.DeepEqual(r, sampleRow(i)) {
			t.Fatalf("row %d mismatch after truncate", i)
		}
	}
	if len(rows) != 1200 {
		t.Fatalf("scanned %d", len(rows))
	}
	// Appends after truncation continue cleanly.
	if err := h.Append(sampleRow(1200)); err != nil {
		t.Fatal(err)
	}
	if h.RowCount() != 1201 {
		t.Error("append after truncate miscounted")
	}
	if err := h.Truncate(-1); err == nil {
		t.Error("negative truncate accepted")
	}
	if err := h.Truncate(5000); err == nil {
		t.Error("growing truncate accepted")
	}
}

func TestHeapTruncateBelowDurableFails(t *testing.T) {
	h, _ := openTestHeap(t, CompressNone)
	defer h.Close()
	for i := 0; i < 100; i++ {
		h.Append(sampleRow(i))
	}
	h.Checkpoint()
	if err := h.Truncate(50); err == nil {
		t.Error("truncate below durable row count accepted")
	}
}

func TestHeapPageCompressionPacksMoreRows(t *testing.T) {
	// Repetitive rows: a page-compressed heap must use fewer pages than a
	// row-compressed one (Table 1's page column vs row column).
	kinds := []sqltypes.Kind{sqltypes.KindString}
	mk := func(comp Compression) int64 {
		path := filepath.Join(t.TempDir(), "h.dat")
		h, err := OpenHeap(path, kinds, comp, NewBufferPool(512))
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		for i := 0; i < 20000; i++ {
			h.Append(sqltypes.Row{sqltypes.NewString("CATGCTAGCTAGCTAGG" + fmt.Sprint(i%5))})
		}
		if err := h.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return h.SizeBytes()
	}
	rowSize := mk(CompressRow)
	pageSize := mk(CompressPage)
	if pageSize >= rowSize {
		t.Errorf("page-compressed %d >= row-compressed %d bytes", pageSize, rowSize)
	}
	if pageSize > rowSize/3 {
		t.Logf("note: page compression ratio %.2f weaker than expected", float64(pageSize)/float64(rowSize))
	}
}

func TestHeapRejectsOversizeRow(t *testing.T) {
	h, _ := openTestHeap(t, CompressNone)
	defer h.Close()
	big := sampleRow(1)
	big[2] = sqltypes.NewString(strings.Repeat("x", PageSize))
	if err := h.Append(big); err == nil {
		t.Error("oversize row accepted")
	}
	if h.RowCount() != 0 {
		t.Error("failed append counted")
	}
	// Heap still usable.
	if err := h.Append(sampleRow(1)); err != nil {
		t.Fatal(err)
	}
}

func TestHeapScanPagesParallelPartitions(t *testing.T) {
	h, _ := openTestHeap(t, CompressRow)
	defer h.Close()
	const n = 5000
	for i := 0; i < n; i++ {
		h.Append(sampleRow(i))
	}
	sealed := h.SealedPages()
	if sealed < 2 {
		t.Fatalf("only %d sealed pages", sealed)
	}
	mid := sealed / 2
	head := len(readRange(t, h, 0, mid, false))
	rest := len(readRange(t, h, mid, sealed, true)) // the last partition owns the tail
	if head+rest != n {
		t.Errorf("partitioned scan saw %d+%d rows, want %d", head, rest, n)
	}
}

func TestHeapWrongCompressionOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "h.dat")
	h, err := OpenHeap(path, intCol(), CompressRow, NewBufferPool(8))
	if err != nil {
		t.Fatal(err)
	}
	h.Append(sqltypes.Row{sqltypes.NewInt(1)})
	h.Checkpoint()
	h.Close()
	if _, err := OpenHeap(path, intCol(), CompressPage, NewBufferPool(8)); err == nil {
		t.Error("reopen with different compression accepted")
	}
}
