package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// loadJoinTables populates two heap tables large enough for the parallel
// planner: nl "reads" rows and nr "aligns" rows sharing integer keys in
// [0, keySpace).
func loadJoinTables(t *testing.T, db *Database, nl, nr, keySpace int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE reads (k INT, payload VARCHAR(40))`)
	mustExec(t, db, `CREATE TABLE aligns (k INT, tag VARCHAR(40))`)
	mk := func(n int, side string) []sqltypes.Row {
		rows := make([]sqltypes.Row, n)
		for i := 0; i < n; i++ {
			rows[i] = sqltypes.Row{
				sqltypes.NewInt(int64(i % keySpace)),
				sqltypes.NewString(fmt.Sprintf("%s-%d", side, i)),
			}
		}
		return rows
	}
	if err := db.InsertRows("reads", mk(nl, "r")); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("aligns", mk(nr, "a")); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CHECKPOINT")
}

func canonResult(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestJoinSpillsAndMatchesInMemory is the end-to-end acceptance check: the
// same SQL join run with an ample budget and with a budget far smaller
// than the build side must return identical rows, with spill counters
// reported in the engine counters, and the temp spill files cleaned up.
func TestJoinSpillsAndMatchesInMemory(t *testing.T) {
	const sql = `SELECT payload, tag FROM reads JOIN aligns ON reads.k = aligns.k WHERE aligns.k < 40`
	run := func(budget int64) ([]string, *Database) {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := Open(dir, Options{DOP: 4, JoinMemoryBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		db.threshold, db.joinParts = 256, 8
		db.SetDOP(4)
		loadJoinTables(t, db, 3000, 2500, 500)
		// The parallel partitioned join must actually be planned.
		explain := mustExec(t, db, "EXPLAIN "+sql)
		if !strings.Contains(explain.Plan, "Hash Match (Partitioned Inner Join)") {
			t.Fatalf("expected partitioned join plan:\n%s", explain.Plan)
		}
		return canonResult(mustExec(t, db, sql)), db
	}

	inMem, memDB := run(-1) // negative = unlimited
	if s := engineCounters(memDB); s[obs.JoinSpilledPartitions] != 0 {
		t.Fatalf("unlimited budget spilled: %+v", s)
	}

	spilled, spillDB := run(4 << 10) // 4 KB budget << the ~28 KB build side
	s := engineCounters(spillDB)
	if s[obs.JoinSpilledPartitions] == 0 || s[obs.JoinSpilledBuildRows] == 0 || s[obs.JoinSpilledProbeRows] == 0 {
		t.Fatalf("expected spill activity with 4 KB budget, got %+v", s)
	}
	if s[obs.JoinSpillRecursions] == 0 {
		t.Fatalf("expected spilled partitions to be re-joined, got %+v", s)
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatalf("spilled join returned %d rows, in-memory %d", len(spilled), len(inMem))
	}
	if len(spilled) == 0 {
		t.Fatal("join returned no rows")
	}
	// Spill temp files are released once the query finishes.
	tmpDir := filepath.Join(spillDB.dir, "tmp")
	if entries, err := os.ReadDir(tmpDir); err == nil && len(entries) > 0 {
		t.Errorf("%d spill files left behind in %s", len(entries), tmpDir)
	}
}

// TestJoinStatsAccumulate checks the counters are cumulative across
// queries and cheap to snapshot mid-stream.
func TestJoinStatsAccumulate(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.threshold = 256
	db.SetDOP(2)
	loadJoinTables(t, db, 1500, 1200, 100)
	before := engineCounters(db)
	mustExec(t, db, `SELECT payload FROM reads JOIN aligns ON reads.k = aligns.k WHERE aligns.k = 1`)
	delta := engineCounters(db).Sub(before)
	if delta[obs.JoinBuildRows] == 0 || delta[obs.JoinProbeRows] == 0 {
		t.Fatalf("join counters did not advance: %+v", delta)
	}
}
