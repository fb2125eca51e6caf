package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

func anyRow(vals ...sqltypes.Value) sqltypes.Row { return sqltypes.Row(vals) }

func TestAnyRowCodecRoundTrip(t *testing.T) {
	rows := []sqltypes.Row{
		anyRow(sqltypes.NewInt(-42), sqltypes.NewFloat(3.25), sqltypes.NewBool(true)),
		anyRow(sqltypes.Null, sqltypes.NewString("héllo"), sqltypes.NewBytes([]byte{0, 1, 2})),
		anyRow(), // zero-width row
		anyRow(sqltypes.NewString(""), sqltypes.NewInt(1<<60)),
	}
	var buf []byte
	var err error
	for _, r := range rows {
		buf, err = AppendAnyRow(buf, r)
		if err != nil {
			t.Fatal(err)
		}
	}
	pos := 0
	for i, want := range rows {
		got, n, err := DecodeAnyRow(buf[pos:])
		if err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		pos += n
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("row %d: got %v want %v", i, got, want)
		}
	}
	if pos != len(buf) {
		t.Errorf("decoded %d of %d bytes", pos, len(buf))
	}
}

func TestSpillFileRoundTripAndRelease(t *testing.T) {
	dir := t.TempDir()
	pool := NewBufferPool(64)
	mgr := NewSpillManager(dir, pool)
	f, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	const n = 5000 // enough rows to seal multiple pages
	var want []sqltypes.Row
	for i := 0; i < n; i++ {
		r := anyRow(sqltypes.NewInt(int64(i)), sqltypes.NewString(strings.Repeat("x", i%40)))
		want = append(want, r)
		if err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if f.Rows() != n {
		t.Fatalf("Rows() = %d", f.Rows())
	}
	if f.file.NumPages() == 0 {
		t.Fatal("expected sealed pages")
	}
	// Two full iterations (a re-probe re-reads the same file).
	for pass := 0; pass < 2; pass++ {
		it := f.NewIterator(obs.Sink{})
		var got []sqltypes.Row
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			got = append(got, r)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("pass %d: round trip mismatch (%d rows vs %d)", pass, len(got), len(want))
		}
	}
	path := f.file.Path()
	if err := f.Release(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file still exists after Release: %v", err)
	}
	if err := f.Release(); err != nil { // idempotent
		t.Fatal(err)
	}
}

func TestSpillFileConcurrentAppend(t *testing.T) {
	pool := NewBufferPool(32)
	mgr := NewSpillManager(t.TempDir(), pool)
	f, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := anyRow(sqltypes.NewInt(int64(w)), sqltypes.NewInt(int64(i)))
				if err := f.Append(r); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	it := f.NewIterator(obs.Sink{})
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seen[fmt.Sprintf("%d/%d", r[0].I, r[1].I)] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("saw %d distinct rows, want %d", len(seen), workers*per)
	}
}

func TestSpillManagerSeparateFiles(t *testing.T) {
	dir := t.TempDir()
	mgr := NewSpillManager(filepath.Join(dir, "tmp"), NewBufferPool(16))
	a, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	if a.file.Path() == b.file.Path() {
		t.Fatal("spill files share a path")
	}
	a.Release()
	b.Release()
}

// TestSpillLargeRowSpansPages verifies rows bigger than one page chunk
// across pages and round-trip exactly — anything the in-memory join holds
// (e.g. unpacked SEQUENCE strings > 8 KB) must also spill.
func TestSpillLargeRowSpansPages(t *testing.T) {
	mgr := NewSpillManager(t.TempDir(), NewBufferPool(16))
	f, err := mgr.Create()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	big := make([]byte, 3*PageSize)
	for i := range big {
		big[i] = byte(i * 31)
	}
	want := []sqltypes.Row{
		anyRow(sqltypes.NewInt(1), sqltypes.NewBytes(big)),
		anyRow(sqltypes.NewInt(2), sqltypes.NewString(strings.Repeat("acgt", PageSize))),
		anyRow(sqltypes.NewInt(3), sqltypes.NewString("small")),
	}
	for _, r := range want {
		if err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if f.file.NumPages() < 3 {
		t.Fatalf("big rows sealed only %d pages", f.file.NumPages())
	}
	it := f.NewIterator(obs.Sink{})
	var got []sqltypes.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("spanning rows did not round-trip (%d rows)", len(got))
	}
}

// TestSpillManagerSweepsStaleFiles simulates a crash: files left behind by
// a previous process (same names, never Released) must not leak into a
// new manager's spill files.
func TestSpillManagerSweepsStaleFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tmp")
	pool := NewBufferPool(16)

	crashed := NewSpillManager(dir, pool)
	f, err := crashed.Create()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ { // enough to seal pages
		if err := f.Append(anyRow(sqltypes.NewInt(int64(i)), sqltypes.NewString("stale"))); err != nil {
			t.Fatal(err)
		}
	}
	stalePath := f.file.Path()
	f.file.Close() // crash: no Release, file stays on disk
	if _, err := os.Stat(stalePath); err != nil {
		t.Fatalf("stale file missing: %v", err)
	}

	fresh := NewSpillManager(dir, NewBufferPool(16))
	g, err := fresh.Create() // same seq → same path as the stale file
	if err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	if g.file.NumPages() != 0 {
		t.Fatalf("fresh spill file inherited %d stale pages", g.file.NumPages())
	}
	if err := g.Append(anyRow(sqltypes.NewString("fresh"))); err != nil {
		t.Fatal(err)
	}
	it := g.NewIterator(obs.Sink{})
	r, ok, err := it.Next()
	if err != nil || !ok || r[0].S != "fresh" {
		t.Fatalf("fresh file replayed stale rows: %v %v %v", r, ok, err)
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("fresh file contains extra rows")
	}
}

// TestSpillRunSequentialRead: a sorted-run file (CreateRun) must round-
// trip its rows in order while performing zero buffer-pool traffic —
// runs are read exactly once, so caching their pages would only evict
// hot data.
func TestSpillRunSequentialRead(t *testing.T) {
	pool := NewBufferPool(16)
	m := NewSpillManager(t.TempDir(), pool)
	f, err := m.CreateRun()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	var want []sqltypes.Row
	for i := 0; i < 5000; i++ {
		r := anyRow(sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("run-row-%06d", i)))
		want = append(want, r)
		if err := f.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if f.Rows() != 5000 {
		t.Fatalf("Rows() = %d", f.Rows())
	}
	before := pool.Stats()
	it := f.NewIterator(obs.Sink{})
	var got []sqltypes.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		got = append(got, r)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run round-trip mismatch: %d vs %d rows", len(got), len(want))
	}
	if after := pool.Stats(); after != before {
		t.Fatalf("sequential run read touched the buffer pool: %+v -> %+v", before, after)
	}
	// A second iterator re-reads the same rows (extsort re-merges never
	// need this, but the contract should hold).
	it2 := f.NewIterator(obs.Sink{})
	r, ok, err := it2.Next()
	if err != nil || !ok || !reflect.DeepEqual(r, want[0]) {
		t.Fatalf("second iterator: %v %v %v", r, ok, err)
	}
}
