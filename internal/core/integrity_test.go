package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// loadTwoTables creates heap tables a and b with enough rows to seal
// pages, checkpoints, and closes — leaving both durable on disk.
func loadTwoTables(t *testing.T, dir string, legacyPages bool) {
	t.Helper()
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	db.noChecksums = legacyPages // read when CREATE TABLE opens the heap
	for _, name := range []string{"a", "b"} {
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE %s (k BIGINT, s VARCHAR(24))`, name))
		rows := make([]sqltypes.Row, 0, 2000)
		for i := 0; i < 2000; i++ {
			rows = append(rows, sqltypes.Row{
				sqltypes.NewInt(int64(i)),
				sqltypes.NewString(fmt.Sprintf("%s-row-%08d", name, i)),
			})
		}
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// tableFile finds the on-disk storage file of a table by name substring.
func tableFile(t *testing.T, dir, name string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".heap" &&
			len(e.Name()) > 0 && containsTableName(e.Name(), name) {
			return filepath.Join(dir, e.Name())
		}
	}
	t.Fatalf("no heap file for table %s in %s", name, dir)
	return ""
}

func containsTableName(file, table string) bool {
	// Files are named t<id>_<name>.heap.
	return len(file) > len(table)+6 && file[len(file)-len(table)-5:len(file)-5] == table
}

// TestCorruptPageFailsQueryNotDatabase: a flipped bit in one table's
// sealed page fails queries over that table with ErrCorruptPage and bumps
// the integrity counter — while the database opens cleanly, other tables
// scan normally, and Health stays nil.
func TestCorruptPageFailsQueryNotDatabase(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	loadTwoTables(t, dir, false)

	// Flip one byte in the middle of table a's first sealed data page.
	path := tableFile(t, dir, "a")
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte{0}
	off := int64(storage.PageSize) + 100
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xFF
	if _, err := f.WriteAt(buf, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Bit rot must not prevent opening: it surfaces at query time.
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatalf("open with one corrupt page failed: %v", err)
	}
	defer db.Close()

	_, qerr := db.Exec(`SELECT k, s FROM a`)
	if qerr == nil {
		t.Fatal("scan over corrupt page succeeded")
	}
	if !errors.Is(qerr, storage.ErrCorruptPage) {
		t.Fatalf("scan error = %v, want wrapped ErrCorruptPage", qerr)
	}
	if n := engineCounters(db)[obs.ChecksumFailures]; n == 0 {
		t.Error("checksum failure did not increment the integrity counter")
	}

	// The unrelated table is untouched and the database is not poisoned.
	res, err := db.Exec(`SELECT COUNT(*) FROM b`)
	if err != nil {
		t.Fatalf("scan of healthy table after corruption: %v", err)
	}
	if res.Rows[0][0].I != 2000 {
		t.Fatalf("healthy table count = %d", res.Rows[0][0].I)
	}
	if herr := db.Health(); herr != nil {
		t.Fatalf("corrupt page poisoned the database: %v", herr)
	}

	// Offline verification pinpoints the damaged table.
	reports, err := db.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	var aFail, bFail int
	for _, rep := range reports {
		switch rep.Table {
		case "a":
			aFail = len(rep.Failures)
		case "b":
			bFail = len(rep.Failures)
		}
	}
	if aFail == 0 {
		t.Error("VerifyIntegrity found no failure in the corrupted table")
	}
	if bFail != 0 {
		t.Errorf("VerifyIntegrity reported failures in the healthy table: %d", bFail)
	}
}

// TestLegacyPagesOpenAndUpgrade: a database written before page checksums
// existed (version byte 0, no CRC) opens cleanly, scans without
// verification, and new pages appended after the upgrade are checksummed —
// a mixed-format file stays fully readable.
func TestLegacyPagesOpenAndUpgrade(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	// Legacy (version-0) pages: the same bytes a pre-checksum build
	// produced.
	loadTwoTables(t, dir, true)

	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatalf("open of pre-checksum database failed: %v", err)
	}
	defer db.Close()
	res, err := db.Exec(`SELECT COUNT(*) FROM a`)
	if err != nil {
		t.Fatalf("scan of legacy pages: %v", err)
	}
	if res.Rows[0][0].I != 2000 {
		t.Fatalf("legacy scan count = %d", res.Rows[0][0].I)
	}
	if n := engineCounters(db)[obs.ChecksumFailures]; n != 0 {
		t.Fatalf("legacy pages reported %d checksum failures", n)
	}

	// Append new rows with the current build and checkpoint: the file now
	// mixes legacy and checksummed pages.
	rows := make([]sqltypes.Row, 0, 2000)
	for i := 2000; i < 4000; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("a-row-%08d", i)),
		})
	}
	if err := db.InsertRows("a", rows); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reports, err := db.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		if rep.Table != "a" {
			continue
		}
		if len(rep.Failures) != 0 {
			t.Fatalf("mixed-format table failures: %v", rep.Failures)
		}
		if rep.PagesSkipped == 0 {
			t.Error("expected unverifiable legacy pages to be counted as skipped")
		}
		if rep.PagesChecked == 0 {
			t.Error("expected new pages to be checksummed after upgrade")
		}
	}

	// The mixed file survives a reopen and full scan.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatalf("reopen of mixed-format database: %v", err)
	}
	defer db2.Close()
	res, err = db2.Exec(`SELECT COUNT(*) FROM a`)
	if err != nil {
		t.Fatalf("scan of mixed-format table: %v", err)
	}
	if res.Rows[0][0].I != 4000 {
		t.Fatalf("mixed-format count = %d, want 4000", res.Rows[0][0].I)
	}
}
