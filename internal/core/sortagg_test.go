package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// loadEventsTable populates one heap table big enough for the parallel
// planner, with duplicated sort keys (for stability checks) and grouped
// keys, plus a NULL sprinkle.
func loadEventsTable(t *testing.T, db *Database, n, keySpace, groups int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE events (k INT, grp INT, seq INT, payload VARCHAR(40))`)
	rows := make([]sqltypes.Row, n)
	for i := 0; i < n; i++ {
		k := sqltypes.NewInt(int64((i * 13) % keySpace))
		g := sqltypes.NewInt(int64((i * 7) % groups))
		if i%97 == 0 {
			g = sqltypes.Null
		}
		rows[i] = sqltypes.Row{k, g, sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("ev-%06d", i))}
	}
	if err := db.InsertRows("events", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CHECKPOINT")
}

func openSortAggDB(t *testing.T, sortBudget, aggBudget int64, n int) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{
		DOP:              4,
		SortMemoryBudget: sortBudget,
		AggMemoryBudget:  aggBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.threshold = 256
	db.SetDOP(4)
	loadEventsTable(t, db, n, 200, 400)
	return db
}

// ordered renders rows preserving their order (sorts must compare
// sequences, not sets).
func ordered(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	return out
}

// TestSortSpillsAndMatchesInMemory is the end-to-end acceptance check
// for the external sort: ORDER BY over an input far larger than the sort
// budget must spill runs, return exactly the in-memory sequence (equal
// keys stay in table order across spilled runs), and clean up its temp
// files.
func TestSortSpillsAndMatchesInMemory(t *testing.T) {
	const sql = `SELECT k, seq, payload FROM events ORDER BY k`
	inMemDB := openSortAggDB(t, -1, -1, 6000) // negative = unlimited
	explain := mustExec(t, inMemDB, "EXPLAIN "+sql)
	if !strings.Contains(explain.Plan, "Merge Gather") {
		t.Fatalf("expected parallel sort plan:\n%s", explain.Plan)
	}
	inMem := ordered(mustExec(t, inMemDB, sql))
	if s := engineCounters(inMemDB); s[obs.SortRuns] != 0 {
		t.Fatalf("unlimited budget spilled runs: %+v", s)
	}

	spillDB := openSortAggDB(t, 8<<10, -1, 6000)
	spilledRes := mustExec(t, spillDB, sql)
	spilled := ordered(spilledRes)
	s := engineCounters(spillDB)
	if s[obs.SortRuns] == 0 || s[obs.SortSpilledRows] == 0 || s[obs.SortSpilledBytes] == 0 {
		t.Fatalf("8 KB sort budget did not spill: %+v", s)
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatalf("spilled ORDER BY differs from in-memory (%d vs %d rows)", len(spilled), len(inMem))
	}
	// Stability: rows with equal k must keep ascending seq (table order)
	// even though they crossed spilled runs and partition merges.
	for i := 1; i < len(spilledRes.Rows); i++ {
		prev, cur := spilledRes.Rows[i-1], spilledRes.Rows[i]
		if prev[0].I == cur[0].I && prev[1].I >= cur[1].I {
			t.Fatalf("row %d: equal keys out of table order (%v then %v)", i, prev, cur)
		}
	}
	// Temp files are gone once queries finish.
	tmpDir := filepath.Join(spillDB.dir, "tmp")
	if entries, err := os.ReadDir(tmpDir); err == nil && len(entries) > 0 {
		t.Errorf("%d spill files left behind in %s", len(entries), tmpDir)
	}

	// Serial DOP must produce the identical sequence (stability contract).
	serialDB := openSortAggDB(t, 8<<10, -1, 6000)
	serialDB.SetDOP(1)
	serial := ordered(mustExec(t, serialDB, sql))
	if !reflect.DeepEqual(inMem, serial) {
		t.Fatal("DOP 1 spilled sort differs from DOP 4 in-memory sort")
	}
}

// TestAggregateSpillsAndMatchesInMemory: GROUP BY over more groups than
// the budget can hold must freeze partitions, spill raw rows, and return
// exactly the in-memory groups — including the NULL group key.
func TestAggregateSpillsAndMatchesInMemory(t *testing.T) {
	const sql = `SELECT grp, COUNT(*), SUM(seq), MIN(payload) FROM events GROUP BY grp`
	inMemDB := openSortAggDB(t, -1, -1, 6000)
	explain := mustExec(t, inMemDB, "EXPLAIN "+sql)
	if !strings.Contains(explain.Plan, "Partial Aggregate") || !strings.Contains(explain.Plan, "Final Aggregate") {
		t.Fatalf("expected partial/final aggregate plan:\n%s", explain.Plan)
	}
	inMem := canonResult(mustExec(t, inMemDB, sql))
	if s := engineCounters(inMemDB); s[obs.AggSpilledPartitions] != 0 {
		t.Fatalf("unlimited budget spilled: %+v", s)
	}

	spillDB := openSortAggDB(t, -1, 4<<10, 6000)
	spilled := canonResult(mustExec(t, spillDB, sql))
	s := engineCounters(spillDB)
	if s[obs.AggSpilledPartitions] == 0 || s[obs.AggSpilledRows] == 0 || s[obs.AggSpillRecursions] == 0 {
		t.Fatalf("4 KB agg budget did not spill: %+v", s)
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatalf("spilled GROUP BY differs from in-memory (%d vs %d groups)", len(spilled), len(inMem))
	}
	tmpDir := filepath.Join(spillDB.dir, "tmp")
	if entries, err := os.ReadDir(tmpDir); err == nil && len(entries) > 0 {
		t.Errorf("%d spill files left behind in %s", len(entries), tmpDir)
	}

	// Serial plan (DOP 1) spills through the same machinery.
	serialDB := openSortAggDB(t, -1, 4<<10, 6000)
	serialDB.SetDOP(1)
	serial := canonResult(mustExec(t, serialDB, sql))
	if !reflect.DeepEqual(inMem, serial) {
		t.Fatal("DOP 1 spilled aggregate differs from in-memory")
	}
	if s := engineCounters(serialDB); s[obs.AggSpilledPartitions] == 0 {
		t.Fatalf("DOP 1 aggregate did not spill: %+v", s)
	}
}

// TestRowNumberSpillsAndMatches: the paper's Query 1 ranking construct
// must survive run spilling with identical numbering.
func TestRowNumberSpillsAndMatches(t *testing.T) {
	const sql = `SELECT ROW_NUMBER() OVER (ORDER BY k DESC) AS rank, k, seq FROM events`
	inMemDB := openSortAggDB(t, -1, -1, 4000)
	inMem := ordered(mustExec(t, inMemDB, sql))

	spillDB := openSortAggDB(t, 8<<10, -1, 4000)
	spilled := ordered(mustExec(t, spillDB, sql))
	if s := engineCounters(spillDB); s[obs.SortRuns] == 0 {
		t.Fatalf("row-number sort did not spill: %+v", s)
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatal("spilled ROW_NUMBER differs from in-memory")
	}
}

// TestCountersUnifiedSurface: one snapshot covers pool, join, sort and
// aggregate counters, and deltas accumulate across queries.
func TestCountersUnifiedSurface(t *testing.T) {
	db := openSortAggDB(t, 8<<10, 4<<10, 6000)
	before := engineCounters(db)
	mustExec(t, db, `SELECT k FROM events ORDER BY k`)
	mustExec(t, db, `SELECT grp, COUNT(*) FROM events GROUP BY grp`)
	d := engineCounters(db).Sub(before)
	if d[obs.SortSorts] == 0 || d[obs.SortRuns] == 0 {
		t.Fatalf("sort counters did not advance: %+v", d)
	}
	if d[obs.AggSpilledPartitions] == 0 {
		t.Fatalf("agg counters did not advance: %+v", d)
	}
	if d[obs.PoolHits]+d[obs.PoolMisses] == 0 {
		t.Fatalf("pool counters did not advance: %+v", d)
	}
}
