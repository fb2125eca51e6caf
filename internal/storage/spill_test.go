package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

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

// FuzzSpillRowDecode feeds arbitrary bytes to the two readers of spill
// bytes from disk: DecodeAnyRow on a row, SpillIterator on a stream of
// length-prefixed rows. Either returns an error or rows that re-encode to
// themselves — never a panic, whatever a count or a length claims.
func FuzzSpillRowDecode(f *testing.F) {
	rows := []sqltypes.Row{
		anyRow(sqltypes.Null, sqltypes.NewInt(-42), sqltypes.NewBool(true), sqltypes.NewFloat(3.25)),
		anyRow(sqltypes.NewString("ACGT"), sqltypes.NewBytes([]byte{0, 1, 2}), sqltypes.NewString("")),
		anyRow(),
	}
	var stream []byte
	for _, r := range rows {
		enc, err := AppendAnyRow(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
		f.Add(enc[:len(enc)/2])
		stream = binary.AppendUvarint(stream, uint64(len(enc)))
		stream = append(stream, enc...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-1])
	f.Fuzz(func(t *testing.T, data []byte) {
		if row, n, err := DecodeAnyRow(data); err == nil {
			if n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			checkAnyRowRoundTrip(t, row)
		}
		// The bytes as a spill file's unsealed tail; every row takes at least
		// one byte, so the stream cannot hold more rows than it has bytes.
		it := &SpillIterator{rowsLeft: int64(len(data)) + 1, tail: data}
		for {
			row, ok, err := it.Next()
			if err != nil || !ok {
				return
			}
			checkAnyRowRoundTrip(t, row)
		}
	})
}

// checkAnyRowRoundTrip asserts a decoded row encodes to bytes that decode
// to the same encoding (bytes, not values: NaN is not equal to itself).
func checkAnyRowRoundTrip(t *testing.T, row sqltypes.Row) {
	t.Helper()
	enc, err := AppendAnyRow(nil, row)
	if err != nil {
		t.Fatalf("decoded row %v does not encode: %v", row, err)
	}
	again, n, err := DecodeAnyRow(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("re-encoded row does not decode: %d of %d bytes, %v", n, len(enc), err)
	}
	if enc2, _ := AppendAnyRow(nil, again); !bytes.Equal(enc, enc2) {
		t.Fatalf("row %v round-trips to %v", row, again)
	}
}

func TestSpillFileRoundTripAndRelease(t *testing.T) {
	dir := t.TempDir()
	mgr := NewSpillManager(dir, nil)
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
		it := f.NewIterator()
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
	mgr := NewSpillManager(t.TempDir(), nil)
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
	it := f.NewIterator()
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
	mgr := NewSpillManager(filepath.Join(dir, "tmp"), nil)
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
	mgr := NewSpillManager(t.TempDir(), nil)
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
	it := f.NewIterator()
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

	crashed := NewSpillManager(dir, nil)
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

	fresh := NewSpillManager(dir, nil)
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
	it := g.NewIterator()
	r, ok, err := it.Next()
	if err != nil || !ok || r[0].S != "fresh" {
		t.Fatalf("fresh file replayed stale rows: %v %v %v", r, ok, err)
	}
	if _, ok, _ := it.Next(); ok {
		t.Fatal("fresh file contains extra rows")
	}
}

// TestSpillRunSequentialRead: runs sealed back to back in one file read
// back independently, each in order, and the whole file reads as their
// concatenation.
func TestSpillRunSequentialRead(t *testing.T) {
	f, err := NewSpillManager(t.TempDir(), nil).Create()
	if err != nil {
		t.Fatal(err)
	}
	defer f.Release()
	var all [][]sqltypes.Row
	var spans [][4]int64
	for run := 0; run < 3; run++ {
		var want []sqltypes.Row
		for i := 0; i < 2000*run+1; i++ { // one row, then several pages
			r := anyRow(sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("run-%d-row-%06d", run, i)))
			want = append(want, r)
			if err := f.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		start, end, rows, bytes, err := f.SealRun()
		if err != nil {
			t.Fatal(err)
		}
		if rows != int64(len(want)) || bytes <= 0 {
			t.Fatalf("run %d sealed %d rows, %d bytes", run, rows, bytes)
		}
		all, spans = append(all, want), append(spans, [4]int64{start, end, rows})
	}
	drain := func(it *SpillIterator) []sqltypes.Row {
		var got []sqltypes.Row
		for {
			r, ok, err := it.Next()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return got
			}
			got = append(got, r)
		}
	}
	for run := len(spans) - 1; run >= 0; run-- {
		sp := spans[run]
		if got := drain(f.NewRunIterator(sp[0], sp[1], sp[2])); !reflect.DeepEqual(got, all[run]) {
			t.Fatalf("run %d: %d rows back, %d written", run, len(got), len(all[run]))
		}
	}
	if got := drain(f.NewIterator()); !reflect.DeepEqual(got, append(append(all[0], all[1]...), all[2]...)) {
		t.Fatalf("whole file: %d rows back", len(got))
	}
}
