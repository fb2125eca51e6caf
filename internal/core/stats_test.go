package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// loadSkewedJoinTables fills `big` (n rows, unique v, key k over keySpace)
// and `dim` (m rows, key over keySpace): the reads ⋈ alignments shape
// with a selective filter available on big.v.
func loadSkewedJoinTables(t *testing.T, db *Database, n, m, keySpace int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE big (k BIGINT, v BIGINT, payload VARCHAR(24))`)
	mustExec(t, db, `CREATE TABLE dim (k BIGINT, name VARCHAR(24))`)
	rows := make([]sqltypes.Row, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64((i * 13) % keySpace)),
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("b-%08d", i)),
		})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < m; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(int64((i * 7) % keySpace)),
			sqltypes.NewString(fmt.Sprintf("d-%08d", i)),
		})
	}
	if err := db.InsertRows("dim", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CHECKPOINT")
}

// TestAnalyzeCollectsAndPersists: ANALYZE fills the stats store with
// accurate numbers and the stats survive a clean close/reopen.
func TestAnalyzeCollectsAndPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	loadSkewedJoinTables(t, db, 12_000, 3_000, 4_000)

	res := mustExec(t, db, "ANALYZE")
	if len(res.Rows) != 2 {
		t.Fatalf("ANALYZE result rows = %v", res.Rows)
	}
	ts := db.tableStatistics("big")
	if ts == nil {
		t.Fatal("no stats for big after ANALYZE")
	}
	if ts.RowCount != 12_000 {
		t.Errorf("big RowCount = %d", ts.RowCount)
	}
	if ndv := ts.ColumnNDV("k"); math.Abs(float64(ndv)-4000) > 400 {
		t.Errorf("big.k NDV = %d, want ~4000", ndv)
	}
	if ndv := ts.ColumnNDV("v"); math.Abs(float64(ndv)-12000) > 1200 {
		t.Errorf("big.v NDV = %d, want ~12000", ndv)
	}
	if ts.AvgRowBytes <= 0 {
		t.Errorf("AvgRowBytes = %d", ts.AvgRowBytes)
	}
	if sel, ok := ts.CmpSelectivity("v", "<", sqltypes.NewInt(600)); !ok || math.Abs(sel-0.05) > 0.02 {
		t.Errorf("v < 600 selectivity = %.4f (ok=%v), want ~0.05", sel, ok)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	ts2 := db2.tableStatistics("big")
	if ts2 == nil {
		t.Fatal("stats lost across reopen")
	}
	if ts2.RowCount != ts.RowCount || ts2.ColumnNDV("k") != ts.ColumnNDV("k") {
		t.Errorf("stats changed across reopen: %+v vs %+v", ts2, ts)
	}
	if db2.tableStatistics("dim") == nil {
		t.Error("dim stats lost across reopen")
	}
}

// TestAnalyzeWALRecovery: the RecStats WAL record restores statistics
// when the stats file itself is lost before the next checkpoint.
func TestAnalyzeWALRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a BIGINT, s VARCHAR(10))`)
	rows := make([]sqltypes.Row, 0, 2000)
	for i := 0; i < 2000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i % 100)), sqltypes.NewString("x")})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ANALYZE TABLE t")
	want := db.tableStatistics("t")
	if want == nil {
		t.Fatal("no stats after ANALYZE")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate losing the stats file in a crash: the WAL still holds the
	// ANALYZE image (no checkpoint ran after it).
	if err := os.Remove(filepath.Join(dir, "stats.json")); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got := db2.tableStatistics("t")
	if got == nil {
		t.Fatal("stats not recovered from WAL")
	}
	if got.RowCount != want.RowCount || got.ColumnNDV("a") != want.ColumnNDV("a") {
		t.Errorf("recovered stats differ: %+v vs %+v", got, want)
	}
	// And the recovery re-saved them: they survive another reopen even
	// though the WAL has been truncated since.
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if db3.tableStatistics("t") == nil {
		t.Error("stats lost after recovery re-save")
	}
}

// TestStaleStatsInvalidation: once the table drifts past the staleness
// threshold, the provider stops serving the stale distribution.
func TestStaleStatsInvalidation(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	rows := make([]sqltypes.Row, 0, 1000)
	for i := 0; i < 1000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ANALYZE TABLE t")
	if db.tableStatistics("t") == nil {
		t.Fatal("no stats after ANALYZE")
	}
	// Below the drift limit (max(64, 1000/5) = 200): still served.
	if err := db.InsertRows("t", rows[:150]); err != nil {
		t.Fatal(err)
	}
	if db.tableStatistics("t") == nil {
		t.Fatal("stats invalidated below the drift limit")
	}
	// Past the limit: stale, planner falls back to defaults.
	if err := db.InsertRows("t", rows[:100]); err != nil {
		t.Fatal(err)
	}
	if db.tableStatistics("t") != nil {
		t.Fatal("stale stats still served after 25% growth")
	}
	// Re-ANALYZE restores service.
	mustExec(t, db, "ANALYZE TABLE t")
	if ts := db.tableStatistics("t"); ts == nil || ts.RowCount != 1250 {
		t.Fatalf("re-ANALYZE did not refresh stats: %+v", ts)
	}
}

// TestExplainBuildSideFlipsAfterAnalyze is the acceptance scenario: on a
// skewed join with a selective filter, ANALYZE flips the partitioned
// join's build side (and the row counts stay identical).
func TestExplainBuildSideFlipsAfterAnalyze(t *testing.T) {
	db := openTestDB(t)
	loadSkewedJoinTables(t, db, 12_000, 3_000, 4_000)
	const q = `SELECT COUNT(*) FROM big JOIN dim ON big.k = dim.k WHERE big.v < 50`

	before := mustExec(t, db, "EXPLAIN "+q)
	if !strings.Contains(before.Plan, "Hash Match (Partitioned Inner Join)") {
		t.Fatalf("expected partitioned join:\n%s", before.Plan)
	}
	// Pre-stats: the default range selectivity (1/3) leaves big at ~4000
	// estimated rows > dim's 3000, so dim (the right input) builds.
	if !strings.Contains(before.Plan, "BUILD:right") {
		t.Fatalf("pre-ANALYZE build side should be dim (right):\n%s", before.Plan)
	}
	wantRows := mustExec(t, db, q).Rows

	mustExec(t, db, "ANALYZE")
	after := mustExec(t, db, "EXPLAIN "+q)
	// Post-stats: v < 50 keeps ~50 of 12000 rows, so the filtered big
	// side (left) becomes the build side.
	if !strings.Contains(after.Plan, "BUILD:left") {
		t.Fatalf("post-ANALYZE build side should flip to big (left):\n%s", after.Plan)
	}
	if !strings.Contains(after.Plan, "est=") {
		t.Fatalf("post-ANALYZE plan missing estimates:\n%s", after.Plan)
	}
	gotRows := mustExec(t, db, q).Rows
	if len(gotRows) != 1 || len(wantRows) != 1 || gotRows[0][0].I != wantRows[0][0].I {
		t.Fatalf("flip changed the result: %v vs %v", gotRows, wantRows)
	}
	if gotRows[0][0].I == 0 {
		t.Fatal("test setup: join produced no rows")
	}
}

// TestJoinBloomCountersThroughSQL: the Bloom filter engages on a skewed
// SQL join (build keys are a small subset of probe keys) and its drops
// surface in the engine counters.
func TestJoinBloomCountersThroughSQL(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE probe (k BIGINT, s VARCHAR(16))`)
	mustExec(t, db, `CREATE TABLE build (k BIGINT, s VARCHAR(16))`)
	rows := make([]sqltypes.Row, 0, 6000)
	for i := 0; i < 6000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("p")})
	}
	if err := db.InsertRows("probe", rows); err != nil {
		t.Fatal(err)
	}
	rows = rows[:0]
	for i := 0; i < 3000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i % 300)), sqltypes.NewString("b")})
	}
	if err := db.InsertRows("build", rows); err != nil {
		t.Fatal(err)
	}
	before := engineCounters(db)
	res := mustExec(t, db, `SELECT COUNT(*) FROM probe JOIN build ON probe.k = build.k`)
	if res.Rows[0][0].I != 3000 { // every build row matches exactly one probe row
		t.Fatalf("join count = %v", res.Rows)
	}
	d := engineCounters(db).Sub(before)
	if d[obs.JoinBloomChecks] == 0 || d[obs.JoinBloomDrops] == 0 {
		t.Fatalf("expected bloom activity: checks=%d drops=%d", d[obs.JoinBloomChecks], d[obs.JoinBloomDrops])
	}
}

// TestMergeJoinWherePushdown guards the merge-join predicate fix through
// the full SQL stack: a filtered clustered-key join must honor its WHERE
// (it used to return the unfiltered join). It runs serial and at DOP 4,
// where the join is range-partitioned, over two sides on different key
// spans — dense, and with keys out at ±2^62 — and checks every answer
// against the same join over heap copies, which the hash join takes.
func TestMergeJoinWherePushdown(t *testing.T) {
	spans := []struct {
		name       string
		lfar, rfar []int64 // keys beyond ml's 0..199 and mr's -100..399
	}{
		{name: "dense"},
		{name: "wide", lfar: []int64{1 << 62}, rfar: []int64{-1 << 62, 1 << 62}},
	}
	for _, dop := range []int{1, 4} {
		for _, span := range spans {
			t.Run(fmt.Sprintf("dop%d/%s", dop, span.name), func(t *testing.T) {
				db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: dop})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				db.threshold = 50 // DOP-4 range-partitioned merge joins over 200 rows
				db.SetDOP(dop)
				testMergeJoinWherePushdown(t, db, span.lfar, span.rfar)
			})
		}
	}
}

func testMergeJoinWherePushdown(t *testing.T, db *Database, lfar, rfar []int64) {
	mustExec(t, db, `CREATE TABLE ml (id BIGINT PRIMARY KEY CLUSTERED, lv VARCHAR(16))`)
	mustExec(t, db, `CREATE TABLE mr (id BIGINT PRIMARY KEY CLUSTERED, rv VARCHAR(16))`)
	load := func(table, prefix string, from, to int64, far []int64) {
		var rows []sqltypes.Row
		for i := from; i < to; i++ {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(i), sqltypes.NewString(fmt.Sprintf("%s%d", prefix, i))})
		}
		for _, k := range far {
			rows = append(rows, sqltypes.Row{sqltypes.NewInt(k), sqltypes.NewString(prefix + "far")})
		}
		if err := db.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, fmt.Sprintf(`CREATE TABLE %sh (id BIGINT, %sv VARCHAR(16))`, table, strings.ToLower(prefix)))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO %sh SELECT * FROM %s`, table, table))
	}
	load("ml", "L", 0, 200, lfar)
	load("mr", "R", -100, 400, rfar)

	plan := mustExec(t, db, `EXPLAIN SELECT lv, rv FROM ml JOIN mr ON ml.id = mr.id WHERE ml.id = 17`)
	if !strings.Contains(plan.Plan, "Merge Join") {
		t.Fatalf("expected merge join:\n%s", plan.Plan)
	}
	res := mustExec(t, db, `SELECT lv, rv FROM ml JOIN mr ON ml.id = mr.id WHERE ml.id = 17`)
	if len(res.Rows) != 1 || res.Rows[0][0].S != "L17" || res.Rows[0][1].S != "R17" {
		t.Fatalf("merge join dropped WHERE: %v", res.Rows)
	}
	// Range predicates on both sides.
	res = mustExec(t, db, `SELECT COUNT(*) FROM ml JOIN mr ON ml.id = mr.id WHERE ml.id >= 10 AND mr.id < 20`)
	if res.Rows[0][0].I != 10 {
		t.Fatalf("two-sided WHERE count = %v", res.Rows)
	}

	// Every shape matches the hash join over the heap copies, and the
	// clustered side a WHERE bounds on its key seeks to the bound.
	for _, c := range []struct {
		where        string
		seekL, seekR string // "" = the side shows no SEEK
	}{
		{"", "", ""},
		{"WHERE ml.id = 17", "SEEK:[17..18)", ""},
		{"WHERE ml.id >= 10 AND mr.id < 20", "SEEK:[10..)", "SEEK:[..20)"},
		{"WHERE mr.id >= 150", "", "SEEK:[150..)"},
		{"WHERE ml.id > 190 AND mr.id <= 195", "SEEK:[190..)", "SEEK:[..196)"},
		{"WHERE lv <> 'L5' AND rv <> 'R6'", "", ""},
		{"WHERE ml.id < 120 AND rv <> 'R100'", "SEEK:[..120)", ""},
		{"WHERE ml.id > 300", "SEEK:[300..)", ""},
		{"WHERE mr.id < -50", "", "SEEK:[..-50)"},
	} {
		q := `SELECT ml.id, lv, rv FROM ml JOIN mr ON ml.id = mr.id ` + c.where
		heap := strings.NewReplacer("ml", "mlh", "mr", "mrh").Replace(q)
		if got, want := canonResult(mustExec(t, db, q)), canonResult(mustExec(t, db, heap)); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: merge join %d rows, hash join %d rows", c.where, len(got), len(want))
		}
		explained := mustExec(t, db, "EXPLAIN "+q).Plan
		if !strings.Contains(explained, "Merge Join") {
			t.Errorf("%s: no merge join:\n%s", c.where, explained)
		}
		for _, line := range strings.Split(explained, "\n") {
			seek := ""
			switch {
			case strings.Contains(line, "Clustered Index Scan [ml]"):
				seek = c.seekL
			case strings.Contains(line, "Clustered Index Scan [mr]"):
				seek = c.seekR
			default:
				continue
			}
			if seek == "" && strings.Contains(line, "SEEK:") || !strings.Contains(line, seek) {
				t.Errorf("%s: scan line %q, want %q", c.where, strings.TrimSpace(line), seek)
			}
		}
	}
	if db.dop > 1 {
		if explained := mustExec(t, db, `EXPLAIN SELECT lv, rv FROM ml JOIN mr ON ml.id = mr.id`).Plan; !strings.Contains(explained, "range-partitioned") {
			t.Errorf("DOP %d merge join is not range-partitioned:\n%s", db.dop, explained)
		}
	}
}

// TestAnalyzeConcurrentWithQueries: the collection phase runs under the
// shared lock, so SELECTs proceed while ANALYZE scans (this test mostly
// exists for the -race run).
func TestAnalyzeConcurrentWithQueries(t *testing.T) {
	db := openTestDB(t)
	loadSkewedJoinTables(t, db, 8_000, 2_000, 2_000)
	done := make(chan error, 1)
	go func() {
		var err error
		for i := 0; i < 20; i++ {
			if _, err = db.Exec(`SELECT COUNT(*) FROM big WHERE v < 4000`); err != nil {
				break
			}
		}
		done <- err
	}()
	for i := 0; i < 3; i++ {
		mustExec(t, db, "ANALYZE")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if db.tableStatistics("big") == nil {
		t.Fatal("no stats after concurrent ANALYZE")
	}
}

// TestCorruptStatsFileDoesNotBlockOpen: statistics are advisory, so a
// torn stats.json must be set aside on open rather than failing it.
func TestCorruptStatsFileDoesNotBlockOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (a BIGINT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	mustExec(t, db, "ANALYZE")
	// Truncate the WAL so its RecStats image cannot restore the stats —
	// this test isolates the corrupt-file path.
	mustExec(t, db, "CHECKPOINT")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "stats.json"), []byte(`{"tables": [{tru`), 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatalf("corrupt stats file blocked open: %v", err)
	}
	defer db2.Close()
	if db2.tableStatistics("t") != nil {
		t.Error("corrupt stats served as valid")
	}
	// The engine is fully usable and re-ANALYZE restores stats.
	mustExec(t, db2, "ANALYZE")
	if db2.tableStatistics("t") == nil {
		t.Error("re-ANALYZE after corruption failed to restore stats")
	}
	if _, err := os.Stat(filepath.Join(dir, "stats.json.corrupt")); err != nil {
		t.Errorf("corrupt file not set aside: %v", err)
	}
}
