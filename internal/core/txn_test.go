package core

import (
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/sqltypes"
)

// countRows runs SELECT COUNT(*) through a session (snapshot-visible).
func countRows(t *testing.T, s *Session, table string) int64 {
	t.Helper()
	res, err := s.Exec("SELECT COUNT(*) FROM " + table)
	if err != nil {
		t.Fatalf("count %s: %v", table, err)
	}
	return res.Rows[0][0].I
}

// A duplicate-key INSERT must fail without touching the existing row.
// The pre-fix code ran the upsert before the duplicate check, so the
// losing INSERT silently replaced the stored row image.
func TestDuplicatePKPreservesExistingRow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE c (id BIGINT PRIMARY KEY CLUSTERED, v VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO c VALUES (1, 'original'), (2, 'two')`)
	if _, err := db.Exec(`INSERT INTO c VALUES (1, 'clobber')`); err == nil {
		t.Fatal("duplicate PK insert succeeded")
	}
	check := func(d *Database, when string) {
		res, err := d.Exec(`SELECT v FROM c WHERE id = 1`)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(res.Rows) != 1 || res.Rows[0][0].S != "original" {
			t.Fatalf("%s: row clobbered by failed duplicate insert: %v", when, res.Rows)
		}
	}
	check(db, "before reopen")
	// The failed statement rolled back; WAL recovery must reach the same
	// state (no checkpoint ran, so the reopen replays the log).
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2, "after WAL recovery")
	if n, _ := db2.tableRowCount("c"); n != 2 {
		t.Fatalf("row count after recovery = %d, want 2", n)
	}
}

// Rolled-back inserts must not advance the stats modification counter:
// the pre-fix code counted at insert time, so a large aborted load made
// the planner discard perfectly valid statistics.
func TestRollbackDoesNotInflateStatsStaleness(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a BIGINT, s VARCHAR(10))`)
	rows := make([]sqltypes.Row, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i % 100)), sqltypes.NewString("x")})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ANALYZE TABLE t")
	if db.tableStatistics("t") == nil {
		t.Fatal("no stats after ANALYZE")
	}
	// Insert far more than the staleness limit (rowCount/5 = 400), then
	// roll every row back.
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("t", rows[:1000]); err != nil {
		t.Fatal(err)
	}
	if err := db.defaultSess.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.tableStatistics("t") == nil {
		t.Fatal("stats went stale from a rolled-back insert")
	}
	// The same volume committed must trip the staleness check.
	if err := db.InsertRows("t", rows[:1000]); err != nil {
		t.Fatal(err)
	}
	if db.tableStatistics("t") != nil {
		t.Fatal("stats still fresh after large committed insert")
	}
}

// A rollback that fails mid-undo leaves storage half-reverted; the
// database must refuse further statements instead of serving a corrupted
// image. (The pre-fix code cleared the transaction slot and carried on.)
func TestFailedUndoPoisonsDatabase(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE c (id BIGINT PRIMARY KEY CLUSTERED, v VARCHAR(20))`)
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO c VALUES (1, 'x')`)
	// Sabotage the undo path: close the tree file underneath the engine
	// so the rollback's key delete fails.
	td, err := db.table("c")
	if err != nil {
		t.Fatal(err)
	}
	td.tree.Close()
	if err := db.defaultSess.Rollback(); err == nil {
		t.Fatal("rollback succeeded over a closed tree")
	}
	if db.healthErr() == nil {
		t.Fatal("database not poisoned after failed undo")
	}
	if _, err := db.Exec(`SELECT COUNT(*) FROM c`); err == nil {
		t.Fatal("poisoned database accepted a statement")
	}
	if err := db.defaultSess.Begin(); err == nil {
		t.Fatal("poisoned database opened a transaction")
	}
}

// Sessions are isolated: one session's uncommitted writes are invisible
// to others, and inside an explicit transaction reads are repeatable
// even as other sessions commit.
func TestSnapshotIsolationAcrossSessions(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	writer := db.NewSession()
	reader := db.NewSession()

	if err := writer.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Exec(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes: invisible to the reader, visible to the writer.
	if n := countRows(t, reader, "t"); n != 0 {
		t.Fatalf("reader sees %d uncommitted rows", n)
	}
	if n := countRows(t, writer, "t"); n != 3 {
		t.Fatalf("writer sees %d of its own rows, want 3", n)
	}
	// Repeatable reads: a transaction's snapshot is fixed at BEGIN.
	if err := reader.Begin(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, reader, "t"); n != 0 {
		t.Fatalf("reader txn sees %d rows, want 0", n)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, reader, "t"); n != 0 {
		t.Fatalf("reader txn snapshot moved: sees %d rows after concurrent commit", n)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	// New statement, new snapshot: the commit is now visible.
	if n := countRows(t, reader, "t"); n != 3 {
		t.Fatalf("reader sees %d rows after commit, want 3", n)
	}
}

// Rolled-back heap rows are compacted out of the file at checkpoint, and
// the compacted table recovers cleanly.
func TestCheckpointCompactsDeadRows(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (10), (11), (12)`)
	if err := db.defaultSess.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (3)`)
	mustExec(t, db, `CHECKPOINT`)
	td, err := db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := td.heap.RowCount(); got != 3 {
		t.Fatalf("physical rows after compacting checkpoint = %d, want 3", got)
	}
	res := mustExec(t, db, `SELECT a FROM t ORDER BY a`)
	want := []int64{1, 2, 3}
	for i, r := range res.Rows {
		if r[0].I != want[i] {
			t.Fatalf("row %d = %d, want %d", i, r[0].I, want[i])
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.tableRowCount("t"); n != 3 {
		t.Fatalf("rows after reopen = %d, want 3", n)
	}
}

// Concurrent sessions hammer commits and rollbacks while a reader
// continuously asserts snapshot-atomic batch visibility; a reopen then
// proves recovery replays exactly the committed transactions.
func TestConcurrentTransactionStress(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (w BIGINT, i BIGINT)`)

	const (
		writers       = 4
		txnsPerWriter = 25
		batch         = 8
	)
	var committed [writers]int64
	var wg sync.WaitGroup
	stopRead := make(chan struct{})
	readerDone := make(chan struct{})

	// Reader: every committed transaction inserts a whole batch, so any
	// snapshot must see a multiple of the batch size.
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerDone)
		s := db.NewSession()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			res, err := s.Exec(`SELECT COUNT(*) FROM t`)
			if err != nil {
				readerErr <- err
				return
			}
			if n := res.Rows[0][0].I; n%batch != 0 {
				readerErr <- fmt.Errorf("snapshot saw %d rows; batches of %d must be atomic", n, batch)
				return
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < txnsPerWriter; i++ {
				if err := s.Begin(); err != nil {
					t.Error(err)
					return
				}
				rows := make([]sqltypes.Row, batch)
				for j := range rows {
					rows[j] = sqltypes.Row{sqltypes.NewInt(int64(w)), sqltypes.NewInt(int64(i*batch + j))}
				}
				if err := s.InsertRows("t", rows); err != nil {
					t.Error(err)
					return
				}
				// Roll back every third transaction.
				if i%3 == 2 {
					if err := s.Rollback(); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := s.Commit(); err != nil {
						t.Error(err)
						return
					}
					committed[w] += batch
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopRead)
	<-readerDone
	select {
	case err := <-readerErr:
		t.Fatal(err)
	default:
	}

	var want int64
	for _, c := range committed {
		want += c
	}
	if n, _ := db.tableRowCount("t"); n != want {
		t.Fatalf("committed rows = %d, want %d", n, want)
	}
	// Crash-style reopen (no checkpoint): recovery must rebuild exactly
	// the committed transactions from the log.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.tableRowCount("t"); n != want {
		t.Fatalf("rows after recovery = %d, want %d", n, want)
	}
}

// Writers in other sessions never block a scan: a reader's statement
// snapshot stays consistent while inserts land between its statements.
func TestScanRunsDuringOpenTransaction(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3), (4)`)
	w := db.NewSession()
	if err := w.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Exec(`INSERT INTO t VALUES (5)`); err != nil {
		t.Fatal(err)
	}
	// The writer's transaction stays open — the reader's SELECT and
	// ANALYZE must complete without waiting for it.
	r := db.NewSession()
	if n := countRows(t, r, "t"); n != 4 {
		t.Fatalf("scan under open txn saw %d rows, want 4", n)
	}
	if _, err := r.Exec(`ANALYZE TABLE t`); err != nil {
		t.Fatalf("ANALYZE blocked or failed under open txn: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, r, "t"); n != 5 {
		t.Fatalf("scan after commit saw %d rows, want 5", n)
	}
}
