package storage

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// appendRows appends rows to h.
func appendRows(t testing.TB, h *Heap, rows []sqltypes.Row) {
	t.Helper()
	for _, r := range rows {
		if err := h.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// sampleRows returns sampleRow(from), ..., sampleRow(to-1).
func sampleRows(from, to int) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, to-from)
	for i := from; i < to; i++ {
		rows = append(rows, sampleRow(i))
	}
	return rows
}

// checkRows fails unless got equals want row for row.
func checkRows(t testing.TB, what string, got, want []sqltypes.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// TestDecodedFormInvalidation: a frame's decoded form lives exactly as
// long as the frame maps its page. (1) A rollback pulls the last sealed
// page back into the tail and different rows are sealed at the same page
// id, in a one-shard pool of 8 frames, so every later read recycles a
// frame that carried some form: the scan must see the new rows, and every
// form's bytes are refunded once the heap is closed. (2) In a 16-page
// pool, three scans of a ~200-page heap never hold more than 16 pages'
// worth of decoded forms, and return the rows written.
func TestDecodedFormInvalidation(t *testing.T) {
	t.Run("truncate_reseal", func(t *testing.T) {
		pool := NewBufferPoolSharded(8, 1)
		h, err := OpenHeap(filepath.Join(t.TempDir(), "heap.dat"), sampleKinds(), CompressNone, pool)
		if err != nil {
			t.Fatal(err)
		}
		want := sampleRows(0, 3000)
		appendRows(t, h, want)
		sealed := h.SealedPages()
		if sealed < 12 {
			t.Fatalf("%d sealed pages, the pool must be smaller than the heap", sealed)
		}
		for pass := 0; pass < 2; pass++ {
			checkRows(t, "before the rollback", readAll(t, h), want)
		}
		if pool.Stats().DecodedBytes == 0 {
			t.Fatal("warm scans kept no decoded form")
		}

		cut := h.pageCum[sealed-1] + 3 // three rows of the last sealed page survive
		if err := h.Truncate(cut); err != nil {
			t.Fatal(err)
		}
		want = want[:cut]
		for i := 0; h.SealedPages() < sealed; i++ {
			row := sampleRow(100000 + i)
			appendRows(t, h, []sqltypes.Row{row})
			want = append(want, row)
		}
		for pass := 0; pass < 2; pass++ {
			checkRows(t, fmt.Sprintf("pass %d after re-sealing page %d", pass, sealed), readAll(t, h), want)
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
		if d := pool.Stats().DecodedBytes; d != 0 {
			t.Errorf("%d decoded bytes still charged after the heap's pages were dropped", d)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		pool := NewBufferPool(16)
		h, err := OpenHeap(filepath.Join(t.TempDir(), "heap.dat"), sampleKinds(), CompressNone, pool)
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		want := sampleRows(0, 44000)
		appendRows(t, h, want)
		if p := h.SealedPages(); p < 180 {
			t.Fatalf("%d sealed pages, want ~200", p)
		}
		limit := int64(pool.Capacity()) * PageSize
		peak := int64(0)
		for pass := 0; pass < 3; pass++ {
			it := h.NewBatchIterator(0, h.SealedPages(), false, obs.Sink{})
			var got []sqltypes.Row
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				for r := 0; r < b.Rows(); r++ {
					row, err := b.ReadRow(r, nil)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, row)
				}
				if d := pool.Stats().DecodedBytes; d > limit {
					t.Fatalf("pass %d: %d decoded bytes kept, the pool's %d frames hold %d", pass, d, pool.Capacity(), limit)
				} else if d > peak {
					peak = d
				}
			}
			checkRows(t, fmt.Sprintf("pass %d", pass), got, want[:h.pageCum[h.SealedPages()]])
		}
		if peak == 0 {
			t.Error("no form was ever kept")
		}
	})
}

// TestDecodedFormConcurrentFirstFills: 8 goroutines take vectors over the
// same warm pages before any column is decoded, then read every column at
// once. Each sees the written rows, and each page column is decoded
// exactly once between them. Run under -race.
func TestDecodedFormConcurrentFirstFills(t *testing.T) {
	pool := NewBufferPool(256)
	h, err := OpenHeap(filepath.Join(t.TempDir(), "heap.dat"), sampleKinds(), CompressRow, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	want := sampleRows(0, 2000)
	appendRows(t, h, want)
	pages := h.SealedPages()
	if pages < 4 {
		t.Fatalf("%d sealed pages", pages)
	}
	// Warm the pool: every page's form kept, no column read.
	scan := func(sink obs.Sink) []*vec.Batch {
		var bs []*vec.Batch
		it := h.NewBatchIterator(0, pages, false, sink)
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				return bs
			}
			bs = append(bs, b)
		}
	}
	scan(obs.Sink{})

	const workers = 8
	sink := obs.Sink{Engine: new(obs.Counters)}
	batches := make([][]*vec.Batch, workers)
	for w := range batches {
		batches[w] = scan(sink)
		for _, b := range batches[w] {
			for c, col := range b.Cols {
				if col.Lazy == nil {
					t.Fatalf("worker %d: column %d of the page at row %d was decoded before the workers started", w, c, b.Base)
				}
			}
		}
	}
	if hits := sink.Engine.Get(obs.ScanDecodedPageHits); hits != workers*pages {
		t.Errorf("%d pages served from kept forms, want %d", hits, workers*pages)
	}
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(bs []*vec.Batch) {
			defer wg.Done()
			<-start
			for _, b := range bs {
				for r := 0; r < b.Rows(); r++ {
					row, err := b.ReadRow(r, nil)
					if err != nil {
						errs <- err
						return
					}
					if w := want[b.Base+int64(r)]; !reflect.DeepEqual(row, w) {
						errs <- fmt.Errorf("row %d = %v, want %v", b.Base+int64(r), row, w)
						return
					}
				}
			}
		}(batches[w])
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	cells := h.pageCum[pages] * int64(len(sampleKinds()))
	if got := sink.Engine.Get(obs.ScanValuesDecoded); got != cells {
		t.Errorf("%d workers decoded %d cells of %d sealed cells: want each page column decoded once", workers, got, cells)
	}
}

// warmScanHeap returns a heap of sealed row pages of sampleKinds, with a
// NULL in every seventh text cell, in a pool that holds all of them.
func warmScanHeap(tb testing.TB, comp Compression) *Heap {
	h, err := OpenHeap(filepath.Join(tb.TempDir(), "heap.dat"), sampleKinds(), comp, NewBufferPool(1024))
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		row := sampleRow(i)
		if i%7 == 0 {
			row[2] = sqltypes.Null
		}
		if err := h.Append(row); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// warmScan scans every sealed page of h and reads every column of each.
func warmScan(tb testing.TB, h *Heap) {
	it := h.NewBatchIterator(0, h.SealedPages(), false, obs.Sink{})
	for {
		b, err := it.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if b == nil {
			return
		}
		for _, col := range b.Cols {
			if _, err := col.Value(b.Rows() - 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// checkWarmScanAllocs returns the allocations per page of a warm scan of
// h (after a cold one), and fails tb unless they are at most one a
// column: a warm page costs its batch, its selection and its headers,
// however many rows it holds, where decoding it again costs at least one
// allocation a column on top.
func checkWarmScanAllocs(tb testing.TB, h *Heap) float64 {
	warmScan(tb, h)
	perPage := testing.AllocsPerRun(5, func() { warmScan(tb, h) }) / float64(h.SealedPages())
	if limit := len(h.Kinds()); perPage > float64(limit) {
		tb.Errorf("%s: a warm scan allocates %.1f times a page of %d columns, want <= %d",
			h.Compression(), perPage, limit, limit)
	}
	return perPage
}

// TestWarmScanAllocsPerPage holds a warm scan to checkWarmScanAllocs'
// bound in both row formats.
func TestWarmScanAllocsPerPage(t *testing.T) {
	for _, comp := range []Compression{CompressNone, CompressRow} {
		h := warmScanHeap(t, comp)
		defer h.Close()
		t.Logf("%s: %.2f allocations a page", comp, checkWarmScanAllocs(t, h))
	}
}

// BenchmarkWarmHeapScan times warm scans of sealed row pages, after a
// cold one, and reports their allocations per page.
func BenchmarkWarmHeapScan(b *testing.B) {
	h := warmScanHeap(b, CompressNone)
	defer h.Close()
	perPage := checkWarmScanAllocs(b, h)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmScan(b, h)
	}
	b.ReportMetric(perPage, "allocs/page")
}
