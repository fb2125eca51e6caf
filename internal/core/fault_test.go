package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// openFaultDB opens a database routed through inj with small spill
// budgets, creates table t, and loads rows rows into it (all before the
// injector is armed).
func openFaultDB(t *testing.T, inj *fault.Injector, rows int) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{
		DOP:              1,
		FaultInjector:    inj,
		SortMemoryBudget: 4 << 10,
		AggMemoryBudget:  4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE t (a BIGINT, s VARCHAR(24))`)
	batch := make([]sqltypes.Row, 0, rows)
	for i := 0; i < rows; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(i * 7 % rows)),
			sqltypes.NewString(fmt.Sprintf("payload-%08d", i)),
		})
	}
	if err := db.InsertRows("t", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertPoisoned checks the exactly-once poison contract: Health returns
// the original fault, later statements are blocked with it, and further
// failures do not replace it.
func assertPoisoned(t *testing.T, db *Database, base error, wantSubstr string) {
	t.Helper()
	herr := db.healthErr()
	if herr == nil {
		t.Fatal("database not poisoned")
	}
	if !errors.Is(herr, base) {
		t.Fatalf("Health() = %v, want wrapped %v", herr, base)
	}
	if !strings.Contains(herr.Error(), wantSubstr) {
		t.Fatalf("Health() = %q, want substring %q", herr, wantSubstr)
	}
	first := herr.Error()
	// Every later statement is blocked by the original error — including
	// statements that themselves fail (they must not re-poison).
	for i := 0; i < 2; i++ {
		_, err := db.Exec(`SELECT COUNT(*) FROM t`)
		if err == nil {
			t.Fatal("statement succeeded on a poisoned database")
		}
		if !errors.Is(err, base) {
			t.Fatalf("blocked statement error = %v, want wrapped %v", err, base)
		}
	}
	if now := db.healthErr().Error(); now != first {
		t.Fatalf("poison error changed: %q -> %q (must poison exactly once)", first, now)
	}
}

// TestIndexInsertFaultFailsStatementOnly: a failpoint on the btree
// write path ("btree.append") makes one secondary-index insert fail.
// The statement must fail alone — the database stays healthy, the row
// and its partial index entries are rolled back, and later statements
// (including index scans) behave normally.
func TestIndexInsertFaultFailsStatementOnly(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "btree.append", Nth: 1, Kind: fault.KindErrIO})
	db := openFaultDB(t, inj, 512)
	mustExec(t, db, `CREATE INDEX ix_a ON t (a)`)
	before := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].I

	inj.Arm()
	_, err := db.Exec(`INSERT INTO t VALUES (777777, 'doomed')`)
	inj.Disarm()
	if err == nil {
		t.Fatal("insert with failing index maintenance succeeded")
	}
	if !errors.Is(err, fault.ErrInjectedIO) {
		t.Fatalf("error = %v, want injected IO", err)
	}
	if herr := db.healthErr(); herr != nil {
		t.Fatalf("statement failure poisoned the database: %v", herr)
	}

	// The failed row is invisible on both access paths.
	if n := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].I; n != before {
		t.Fatalf("row count %d after failed insert, want %d", n, before)
	}
	if res := mustExec(t, db, `SELECT s FROM t WHERE a = 777777`); len(res.Rows) != 0 {
		t.Fatalf("failed row visible via index: %v", res.Rows)
	}

	// The table accepts writes again and the index serves them.
	mustExec(t, db, `INSERT INTO t VALUES (777777, 'survivor')`)
	res := mustExec(t, db, `SELECT s FROM t WHERE a = 777777`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "survivor" {
		t.Fatalf("index lookup after recovery = %v", res.Rows)
	}
}

// TestIndexInsertFaultInTxnForcesRollback: inside an explicit
// transaction a failed index insert leaves a partial (undoable) write
// set, so the transaction turns abort-only: later statements still run,
// but COMMIT refuses, rolls everything back, and the database stays
// healthy.
func TestIndexInsertFaultInTxnForcesRollback(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "btree.append", Nth: 1, Kind: fault.KindErrIO})
	db := openFaultDB(t, inj, 512)
	mustExec(t, db, `CREATE INDEX ix_a ON t (a)`)
	before := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].I

	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	_, err := db.Exec(`INSERT INTO t VALUES (888888, 'doomed')`)
	inj.Disarm()
	if err == nil {
		t.Fatal("insert with failing index maintenance succeeded")
	}
	// The transaction survives for more statements...
	mustExec(t, db, `INSERT INTO t VALUES (888889, 'sibling')`)
	// ...but commit must refuse and roll back instead.
	if err := db.defaultSess.Commit(); err == nil {
		t.Fatal("COMMIT succeeded on an abort-only transaction")
	} else if !strings.Contains(err.Error(), "rolled back") {
		t.Fatalf("commit error = %v, want rollback notice", err)
	}
	if herr := db.healthErr(); herr != nil {
		t.Fatalf("abort-only commit poisoned the database: %v", herr)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].I; n != before {
		t.Fatalf("row count %d after rolled-back txn, want %d", n, before)
	}
	for _, a := range []int{888888, 888889} {
		if res := mustExec(t, db, fmt.Sprintf(`SELECT s FROM t WHERE a = %d`, a)); len(res.Rows) != 0 {
			t.Fatalf("rolled-back row %d visible via index: %v", a, res.Rows)
		}
	}
	// A fresh transaction on the same session works.
	mustExec(t, db, `INSERT INTO t VALUES (888890, 'after')`)
	if n := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].I; n != before+1 {
		t.Fatalf("count %d after recovery insert, want %d", n, before+1)
	}
}

// TestCommitAppendFailurePoisons: the RecCommit append fails before
// anything reaches the log — the transaction can never become visible and
// the database poisons with the commit error.
func TestCommitAppendFailurePoisons(t *testing.T) {
	// After Arm: RecBegin is append 1, RecInsert append 2, RecCommit 3.
	inj := fault.New(&fault.Rule{Site: "wal.append", Nth: 3, Kind: fault.KindErrIO})
	db := openFaultDB(t, inj, 10)
	inj.Arm()
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (999, 'doomed')`)
	err := db.defaultSess.Commit()
	if err == nil {
		t.Fatal("commit succeeded past injected append failure")
	}
	if !errors.Is(err, fault.ErrInjectedIO) {
		t.Fatalf("commit error = %v, want injected IO", err)
	}
	assertPoisoned(t, db, fault.ErrInjectedIO, "commit of txn")
}

// TestCommitFsyncFailurePoisons: the commit record is appended but the
// group fsync fails — in-doubt durability, so the database poisons with
// the flush error and treats the transaction as aborted in this process.
func TestCommitFsyncFailurePoisons(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "wal", Op: fault.OpSync, Nth: 1, Kind: fault.KindErrIO})
	db := openFaultDB(t, inj, 10)
	inj.Arm()
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (999, 'doomed')`)
	err := db.defaultSess.Commit()
	if err == nil {
		t.Fatal("commit succeeded past injected fsync failure")
	}
	if !errors.Is(err, fault.ErrInjectedIO) {
		t.Fatalf("commit error = %v, want injected IO", err)
	}
	assertPoisoned(t, db, fault.ErrInjectedIO, "commit flush of txn")
}

// TestRollbackMidUndoPoisons: storage fails while rollback is deleting a
// clustered transaction's keys — half-reverted storage poisons, and the
// un-deleted keys stay masked dead rather than resurfacing.
func TestRollbackMidUndoPoisons(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "txn.undo", Nth: 1, Kind: fault.KindErrIO})
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1, FaultInjector: inj})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE t (a BIGINT PRIMARY KEY CLUSTERED, s VARCHAR(24))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'keep')`)
	inj.Arm()
	if err := db.defaultSess.Begin(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (2, 'undoomed')`)
	rbErr := db.defaultSess.Rollback()
	if rbErr == nil {
		t.Fatal("rollback succeeded past injected undo failure")
	}
	if !errors.Is(rbErr, fault.ErrInjectedIO) {
		t.Fatalf("rollback error = %v, want injected IO", rbErr)
	}
	assertPoisoned(t, db, fault.ErrInjectedIO, "failed mid-undo")
}

// tmpFiles lists the spill directory's contents on the real filesystem.
func tmpFiles(t *testing.T, db *Database) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(db.dir, "tmp"))
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSpillENOSPCFailsOnlyQuery: a full disk while a sort spills runs
// must fail that query with a clear wrapped error — and nothing else. The
// database stays healthy, no temp files leak, and the same query succeeds
// once space is back.
func TestSpillENOSPCFailsOnlyQuery(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "spill", Kind: fault.KindErrNoSpace})
	db := openFaultDB(t, inj, 4000)
	inj.Arm()
	_, err := db.Exec(`SELECT a, s FROM t ORDER BY s`)
	if err == nil {
		t.Fatal("spilling sort succeeded with ENOSPC injected on every spill write")
	}
	if !errors.Is(err, fault.ErrNoSpace) {
		t.Fatalf("query error = %v, want wrapped ErrNoSpace", err)
	}
	if !strings.Contains(err.Error(), "spilling query temp state") {
		t.Fatalf("query error %q does not explain the spill failure", err)
	}
	if herr := db.healthErr(); herr != nil {
		t.Fatalf("spill failure poisoned the database: %v", herr)
	}
	if left := tmpFiles(t, db); len(left) != 0 {
		t.Fatalf("failed spill leaked temp files: %v", left)
	}
	// Unrelated statements still work...
	if n := countRows(t, db.defaultSess, "t"); n != 4000 {
		t.Fatalf("row count after failed spill = %d", n)
	}
	// ...and so does the very same query once the disk has space again.
	inj.Disarm()
	res, err := db.Exec(`SELECT a, s FROM t ORDER BY s`)
	if err != nil {
		t.Fatalf("query after space recovered: %v", err)
	}
	if len(res.Rows) != 4000 {
		t.Fatalf("recovered query returned %d rows", len(res.Rows))
	}
	if left := tmpFiles(t, db); len(left) != 0 {
		t.Fatalf("successful spill left temp files behind: %v", left)
	}
}

// TestSpillEIOJoinFailsOnlyQuery: same contract on the partitioned-join
// spill path with a hard I/O error instead of ENOSPC.
func TestSpillEIOJoinFailsOnlyQuery(t *testing.T) {
	inj := fault.New(&fault.Rule{Site: "spill", Op: fault.OpWrite, Kind: fault.KindErrIO})
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{
		DOP: 1, FaultInjector: inj, JoinMemoryBudget: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.joinParts = 4 // 1 000 rows a partition: each spill fills pages and writes them
	db.SetDOP(1)
	mustExec(t, db, `CREATE TABLE t (a BIGINT, s VARCHAR(24))`)
	mustExec(t, db, `CREATE TABLE u (a BIGINT, s VARCHAR(24))`)
	batch := make([]sqltypes.Row, 0, 4000)
	for i := 0; i < 4000; i++ {
		batch = append(batch, sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("payload-%08d", i)),
		})
	}
	if err := db.InsertRows("t", batch); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("u", batch); err != nil {
		t.Fatal(err)
	}
	// s is a join key so that column pruning below COUNT(*) keeps it in
	// the spilled rows: without the payload a partition's rows fit one
	// page and the spill never writes.
	const join = `SELECT COUNT(*) FROM t JOIN u ON t.a = u.a AND t.s = u.s`
	inj.Arm()
	_, qerr := db.Exec(join)
	if qerr == nil {
		t.Fatal("spilling join succeeded with EIO injected on every spill write")
	}
	if !errors.Is(qerr, fault.ErrInjectedIO) {
		t.Fatalf("query error = %v, want wrapped injected IO", qerr)
	}
	if !strings.Contains(qerr.Error(), "spilling query temp state") {
		t.Fatalf("query error %q does not explain the spill failure", qerr)
	}
	if herr := db.healthErr(); herr != nil {
		t.Fatalf("spill failure poisoned the database: %v", herr)
	}
	if left := tmpFiles(t, db); len(left) != 0 {
		t.Fatalf("failed spill leaked temp files: %v", left)
	}
	// The join still answers correctly once the fault clears.
	inj.Disarm()
	res, err := db.Exec(join)
	if err != nil {
		t.Fatalf("join after fault cleared: %v", err)
	}
	if res.Rows[0][0].I != 4000 {
		t.Fatalf("join count = %d, want 4000", res.Rows[0][0].I)
	}
	if left := tmpFiles(t, db); len(left) != 0 {
		t.Fatalf("successful spill left temp files behind: %v", left)
	}
}
