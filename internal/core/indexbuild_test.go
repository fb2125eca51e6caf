package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The index-build safety net. Every way an index gets built — CREATE
// INDEX (its parallel phase and the delta it merges in under the
// exclusive lock), checkpoint compaction and recovery — must leave exactly
// one entry per physical heap row, in key order. The oracle reads every
// physical row by position and sorts its entry keys with bytes.Compare.

// loadIndexFixture creates t (a INT, b VARCHAR(8), c INT) with NULLs in a
// and b, heavy duplicates, several sealed pages and an unsealed tail.
func loadIndexFixture(t *testing.T, db *Database) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE t (a INT, b VARCHAR(8), c INT)`)
	if err := db.InsertRows("t", indexFixtureRows(0, 6000)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	// The tail: rows after the last seal stay in memory.
	if err := db.InsertRows("t", indexFixtureRows(6000, 150)); err != nil {
		t.Fatal(err)
	}
}

// indexFixtureRows returns n rows numbered from first.
func indexFixtureRows(first, n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for k := range rows {
		i := first + k
		a, b := sqltypes.NewInt(int64(i*7919%97)), sqltypes.NewString(fmt.Sprintf("v%d", i%13))
		if i%11 == 0 {
			a = sqltypes.Null
		}
		if i%17 == 0 {
			b = sqltypes.Null
		}
		rows[k] = sqltypes.Row{a, b, sqltypes.NewInt(int64(i))}
	}
	return rows
}

// rollBackRows inserts n rows in a transaction that rolls back: physical
// heap rows no snapshot sees, until a checkpoint compacts them away.
func rollBackRows(t *testing.T, db *Database, first, n int) {
	t.Helper()
	s := db.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertRows("t", indexFixtureRows(first, n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// indexOracle returns the entry key of every physical row of the table,
// sorted.
func indexOracle(t *testing.T, db *Database, table string, cols []int) [][]byte {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		t.Fatal(err)
	}
	cache := storage.NewHeapFetchCache(obs.Sink{})
	keys := make([][]byte, 0, td.heap.RowCount())
	for idx := int64(0); idx < td.heap.RowCount(); idx++ {
		row, err := heapRow(td, idx, cache)
		if err != nil {
			t.Fatal(err)
		}
		key, err := indexEntryKey(cols, row, idx)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	slices.SortFunc(keys, bytes.Compare)
	return keys
}

// indexKeys returns the named index's entry keys in tree order, and its
// columns.
func indexKeys(t *testing.T, db *Database, table, name string) ([][]byte, []int) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range td.indexes {
		if ix.name != name {
			continue
		}
		it, err := ix.tree.Seek(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		var keys [][]byte
		for it.Next() {
			keys = append(keys, bytes.Clone(it.Key()))
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		return keys, ix.cols
	}
	t.Fatalf("no index %s on %s", name, table)
	return nil, nil
}

// assertIndexMatchesOracle compares the index's entries with the oracle
// over the heap as it stands.
func assertIndexMatchesOracle(t *testing.T, db *Database, label string) {
	t.Helper()
	got, cols := indexKeys(t, db, "t", "ix")
	want := indexOracle(t, db, "t", cols)
	if len(got) != len(want) {
		t.Fatalf("%s: index holds %d entries, the heap %d rows", label, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: entry %d differs from the oracle", label, i)
		}
	}
}

// TestIndexBuildsAgree: CREATE INDEX at DOP 1 and 4, under a 4 KB sort
// budget, with rows arriving between its two lock phases, the rebuild after
// a checkpoint compacts a rolled-back transaction's rows out of the heap,
// and the rebuild recovery runs at reopen all produce the oracle's entries.
func TestIndexBuildsAgree(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  Options
		spill bool // the build writes sorted runs
	}{
		{"dop1", Options{DOP: 1}, false},
		{"dop4", Options{DOP: 4}, false},
		{"sort-budget-4KB", Options{DOP: 1, SortMemoryBudget: 4 << 10}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(filepath.Join(t.TempDir(), "db"), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			loadIndexFixture(t, db)
			if c.spill {
				// Past the 1 MB a partition's sort is given at least,
				// which the fixture's 6 150 entries fit in.
				if err := db.InsertRows("t", indexFixtureRows(6150, 10000)); err != nil {
					t.Fatal(err)
				}
			}
			before := engineCounters(db)
			mustExec(t, db, `CREATE INDEX ix ON t(a, b)`)
			if runs := engineCounters(db).Sub(before)[obs.SortRuns]; (runs > 0) != c.spill {
				t.Errorf("%s: the build wrote %d sort runs", c.name, runs)
			}
			assertIndexMatchesOracle(t, db, c.name)
		})
	}

	t.Run("rows-between-phases", func(t *testing.T) {
		db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		loadIndexFixture(t, db)
		var hookErr error
		db.betweenIndexPhases = func() {
			// Enough rows to seal pages past the ones phase 1 read.
			hookErr = db.NewSession().InsertRows("t", indexFixtureRows(7000, 900))
		}
		mustExec(t, db, `CREATE INDEX ix ON t(a, b)`)
		if hookErr != nil {
			t.Fatal(hookErr)
		}
		assertIndexMatchesOracle(t, db, "rows-between-phases")
	})

	t.Run("checkpoint-compaction", func(t *testing.T) {
		db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		loadIndexFixture(t, db)
		mustExec(t, db, `CREATE INDEX ix ON t(a, b)`)
		if err := db.InsertRows("t", indexFixtureRows(8000, 200)); err != nil {
			t.Fatal(err)
		}
		rollBackRows(t, db, 9000, 700)
		if err := db.InsertRows("t", indexFixtureRows(10000, 100)); err != nil {
			t.Fatal(err)
		}
		before := indexOracle(t, db, "t", []int{0, 1})
		mustExec(t, db, `CHECKPOINT`)
		after := indexOracle(t, db, "t", []int{0, 1})
		if len(before)-len(after) != 700 {
			t.Fatalf("compaction removed %d rows, want the 700 rolled back", len(before)-len(after))
		}
		assertIndexMatchesOracle(t, db, "checkpoint-compaction")
	})

	t.Run("recovery-rebuild", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := Open(dir, Options{DOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		loadIndexFixture(t, db)
		mustExec(t, db, `CREATE INDEX ix ON t(a, b)`)
		path := db.indexPath(db.cat.Get("t"), "ix")
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		// A file lost mid-swap: recovery's entry-count check rebuilds it.
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir, Options{DOP: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		assertIndexMatchesOracle(t, db, "recovery-rebuild")
	})
}

// TestAnalyzeStatsPinned pins the statistics ANALYZE collects over a fixed
// 30 000-row table at DOP 1 and DOP 4: the JSON digest of TableStats must
// not move when ANALYZE's execution does. Column NDV comes from a
// HyperLogLog over sqltypes.Hash, whose seed is drawn per process, so the
// digest leaves it out; the two runs of one process must agree on it
// exactly (merging sketches is a register-wise max, the sketch of the
// union).
func TestAnalyzeStatsPinned(t *testing.T) {
	const (
		wantDOP1 = "773bded8dd8c62353d011e7b069ad43c14d4355c94c32f63a915ba6ad9c14e25"
		wantDOP4 = "a0a47f8b6cb120c5bdcf110c06f60aa55556c0ba9ad0741d5257567e2668f866"
	)
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE s (id BIGINT, grp INT, name VARCHAR(16), score FLOAT)`)
	rows := make([]sqltypes.Row, 30_000)
	for i := range rows {
		grp := sqltypes.NewInt(int64(i * 31 % 200))
		if i%7 == 0 {
			grp = sqltypes.Null
		}
		name := sqltypes.NewString(fmt.Sprintf("n%d", i*i%1500))
		if i%5 == 0 {
			name = sqltypes.NewString("common")
		}
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), grp, name, sqltypes.NewFloat(float64(i%977) / 8)}
	}
	if err := db.InsertRows("s", rows[:29_000]); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	if err := db.InsertRows("s", rows[29_000:]); err != nil {
		t.Fatal(err)
	}

	collect := func(dop int) (string, []int64) {
		db.SetDOP(dop)
		mustExec(t, db, `ANALYZE TABLE s`)
		ts := *db.tstats.Get(db.cat.Get("s").ID)
		ts.Columns = slices.Clone(ts.Columns)
		ndv := make([]int64, len(ts.Columns))
		for i := range ts.Columns {
			ndv[i], ts.Columns[i].NDV = ts.Columns[i].NDV, 0
		}
		data, err := json.Marshal(ts)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:]), ndv
	}
	got1, ndv1 := collect(1)
	got4, ndv4 := collect(4)
	if got1 != wantDOP1 {
		t.Errorf("DOP 1 statistics digest %s, want %s", got1, wantDOP1)
	}
	if got4 != wantDOP4 {
		t.Errorf("DOP 4 statistics digest %s, want %s", got4, wantDOP4)
	}
	if !slices.Equal(ndv1, ndv4) {
		t.Errorf("NDV differs between DOP 1 %v and DOP 4 %v", ndv1, ndv4)
	}
}

// TestIndexRebuildHonoursSortBudget: the rebuild a checkpoint runs after
// compacting a rolled-back transaction out of a 20 000-row indexed heap
// sorts under the sort budget — it writes sorted runs instead of holding
// every entry in memory — and still produces the oracle's entries.
func TestIndexRebuildHonoursSortBudget(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 2, SortMemoryBudget: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (a INT, b VARCHAR(8), c INT)`)
	if err := db.InsertRows("t", indexFixtureRows(0, 20_000)); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE INDEX ix ON t(a, b)`)
	rollBackRows(t, db, 30_000, 500)
	before := engineCounters(db)
	mustExec(t, db, `CHECKPOINT`)
	if runs := engineCounters(db).Sub(before)[obs.SortRuns]; runs == 0 {
		t.Error("the rebuild after compaction wrote no sort runs under a 16 KB budget")
	}
	assertIndexMatchesOracle(t, db, "rebuild")
}
