package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// openJoinDB opens a database tuned so the standard join workload runs
// parallel (DOP 4), spills (tiny join budget) and keeps its Bloom
// filters, then loads the shared reads/aligns tables.
func openJoinDB(t *testing.T, opts Options) *Database {
	t.Helper()
	if opts.DOP == 0 {
		opts.DOP = 4
	}
	if opts.JoinMemoryBudget == 0 {
		opts.JoinMemoryBudget = 4 << 10
	}
	db, err := Open(filepath.Join(t.TempDir(), "db"), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.threshold, db.joinParts = 256, 8
	db.SetDOP(db.dop)
	loadJoinTables(t, db, 3000, 2500, 500)
	return db
}

const spillingJoinSQL = `SELECT payload, tag FROM reads JOIN aligns ON reads.k = aligns.k WHERE aligns.k < 40`

// profiledQuery runs one SELECT through the instrumented path and
// returns the executed plan tree with its accumulated profiles.
func profiledQuery(t *testing.T, db *Database, sql string, timed bool) (*Result, *plan.Node) {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := stmt.(*sqlparse.Select)
	if !ok {
		t.Fatalf("not a SELECT: %q", sql)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	res, node, err := db.runSelectProfiled(sel, snap, timed)
	if err != nil {
		t.Fatal(err)
	}
	return res, node
}

// collectProfiles gathers the distinct profiles of a plan tree.
func collectProfiles(n *plan.Node) []*obs.OpProfile {
	seen := map[*obs.OpProfile]bool{}
	var out []*obs.OpProfile
	var walk func(*plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		if n.Prof != nil && !seen[n.Prof] {
			seen[n.Prof] = true
			out = append(out, n.Prof)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(n)
	return out
}

// TestExplainAnalyzeSpillingJoin is the tentpole acceptance test:
// EXPLAIN ANALYZE on a spilling, Bloom-filtered, DOP-4 partitioned join
// must report per-operator actual row counts, actual-vs-estimate ratios
// on every node, per-operator wall time, and spill/Bloom detail lines.
func TestExplainAnalyzeSpillingJoin(t *testing.T) {
	db := openJoinDB(t, Options{})
	res := mustExec(t, db, "EXPLAIN ANALYZE "+spillingJoinSQL)
	text := res.Plan
	if !strings.Contains(text, "EXPLAIN ANALYZE (total ") {
		t.Fatalf("missing header:\n%s", text)
	}
	if !strings.Contains(text, "Hash Match (Partitioned Inner Join)") {
		t.Fatalf("expected the partitioned join plan:\n%s", text)
	}
	for _, want := range []string{"actual=", "time=", "(self ", "spill: ", "bloom: ", "checked", "dropped"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
	// Every operator line carries an actual-vs-estimate ratio.
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "|--") {
			continue
		}
		if !strings.Contains(line, "off by ") {
			t.Errorf("node line without estimate ratio: %q", line)
		}
	}
	// Spill detail must carry a real byte volume.
	if !strings.Contains(text, "runs") {
		t.Errorf("spill line missing run count:\n%s", text)
	}
	// The rendered rows mirror the plan text.
	if len(res.Rows) != strings.Count(strings.TrimRight(text, "\n"), "\n")+1 {
		t.Errorf("result rows (%d) do not mirror plan lines:\n%s", len(res.Rows), text)
	}

	// The statement actually executed: the join root's profile counted
	// the real result cardinality, and the same query run directly
	// returns that many rows.
	direct := mustExec(t, db, spillingJoinSQL)
	if !strings.Contains(text, fmt.Sprintf("%d rows returned", len(direct.Rows))) {
		t.Errorf("header does not report the executed row count %d:\n%s", len(direct.Rows), text)
	}
}

// TestExplainAnalyzeNonSelect: only SELECT can be analyzed.
func TestExplainAnalyzeNonSelect(t *testing.T) {
	db := openTestDB(t)
	stmt, err := sqlparse.Parse("EXPLAIN ANALYZE SELECT 1")
	if err != nil {
		t.Fatal(err)
	}
	ex := stmt.(*sqlparse.Explain)
	ex.Stmt = &sqlparse.Checkpoint{}
	if _, err := db.ExecStmt(ex); err == nil {
		t.Fatal("EXPLAIN ANALYZE of a non-SELECT succeeded")
	}
}

// assertZeroStruct recursively checks every numeric field of a struct
// is zero, naming offenders by path.
func assertZeroStruct(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			assertZeroStruct(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Int, reflect.Int64, reflect.Uint64, reflect.Float64:
		if v.Convert(reflect.TypeOf(float64(0))).Float() != 0 {
			t.Errorf("field %s = %v, want 0", path, v)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			assertZeroStruct(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	}
}

// TestExecStatsSnapshotSubComplete is the Sub-audit regression test: on
// a database whose counters have all been driven (joins, sorts,
// aggregates, vectorized scans, spills), a snapshot minus itself must
// zero every field — a field Sub copies instead of subtracting shows up
// as nonzero — and a warm-minus-cold delta across a no-op window is
// likewise all zeros.
func TestExecStatsSnapshotSubComplete(t *testing.T) {
	db := openJoinDB(t, Options{
		SortMemoryBudget: 4 << 10,
		AggMemoryBudget:  4 << 10,
	})
	// Drive every operator family, with spills.
	mustExec(t, db, spillingJoinSQL)
	mustExec(t, db, `SELECT payload FROM reads ORDER BY payload`)
	mustExec(t, db, `SELECT k, COUNT(*) FROM reads GROUP BY k`)

	snap := db.ExecStats()
	if snap.Join.SpilledBuildRows == 0 || snap.Sort.SpilledRows == 0 || snap.Agg.SpilledRows == 0 {
		t.Fatalf("workload did not drive spill counters: %+v", snap)
	}
	if snap.Scan.Rows == 0 || snap.Pool.Hits == 0 {
		t.Fatalf("workload did not drive scan/pool counters: %+v", snap)
	}
	assertZeroStruct(t, reflect.ValueOf(snap.Sub(snap)), "self-delta")

	// Sub against a zero snapshot must reproduce the snapshot exactly —
	// a field missing from Sub would read back as zero.
	if got := snap.Sub(ExecStatsSnapshot{}); !reflect.DeepEqual(got, snap) {
		t.Errorf("Sub(zero) altered the snapshot:\n got %+v\nwant %+v", got, snap)
	}

	// Warm-minus-cold across a no-op window.
	a := db.ExecStats()
	b := db.ExecStats()
	assertZeroStruct(t, reflect.ValueOf(b.Sub(a)), "noop-delta")
}

// TestMetricsRegistrySnapshot: the registry exposes the engine counters
// under stable names and tracks the live values.
func TestMetricsRegistrySnapshot(t *testing.T) {
	db := openJoinDB(t, Options{SlowQueryThreshold: time.Nanosecond})
	mustExec(t, db, spillingJoinSQL)
	mustExec(t, db, spillingJoinSQL) // warm pass: pool hits
	m := db.Metrics()
	for _, name := range []string{
		"pool.hits", "pool.misses", "pool.evictions",
		"wal.syncs",
		"exec.join.build_rows", "exec.join.spilled_partitions", "exec.join.bloom_checks",
		"exec.sort.sorts", "exec.agg.spilled_rows",
		"scan.rows", "scan.batches",
		"integrity.pages_verified", "integrity.checksum_failures",
		"checkpoint.count", "vacuum.runs",
		"planner.path_picks.index", "planner.path_picks.zonemap", "planner.path_picks.full",
		"query.count", "query.slow_count",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %q not registered", name)
		}
	}
	if m["exec.join.build_rows"] == 0 || m["scan.rows"] == 0 || m["pool.hits"] == 0 {
		t.Errorf("live counters not reflected: %+v", m)
	}
	if m["query.count"] == 0 {
		t.Error("query history did not count the statement")
	}
	if m["planner.path_picks.full"] == 0 {
		t.Error("planner path picks not counted")
	}
	stats := db.ExecStats()
	if m2 := db.Metrics(); m2["exec.join.build_rows"] != stats.Join.BuildRows {
		t.Errorf("metrics (%d) disagree with ExecStats (%d)", m2["exec.join.build_rows"], stats.Join.BuildRows)
	}
}

// TestQueryHistoryAndSlowLog: the ring records statements newest-first
// with durations and spill volume; statements over the threshold keep
// their full profile in the slow log.
func TestQueryHistoryAndSlowLog(t *testing.T) {
	db := openJoinDB(t, Options{SlowQueryThreshold: time.Nanosecond})
	mustExec(t, db, spillingJoinSQL)
	mustExec(t, db, `SELECT COUNT(*) FROM reads`)

	hist := db.QueryHistory()
	if len(hist) < 2 {
		t.Fatalf("history has %d records", len(hist))
	}
	if hist[0].SQL != `SELECT COUNT(*) FROM reads` {
		t.Errorf("newest-first order violated: %q", hist[0].SQL)
	}
	if hist[0].Rows != 1 || hist[0].Duration <= 0 {
		t.Errorf("record not filled: %+v", hist[0])
	}
	if hist[1].SQL != spillingJoinSQL {
		t.Errorf("missing join statement: %q", hist[1].SQL)
	}
	if hist[1].SpillBytes == 0 {
		t.Errorf("spilling join recorded no spill bytes: %+v", hist[1])
	}
	if hist[1].Profile != "" {
		t.Error("history entries must not retain profiles")
	}

	slow := db.SlowQueries()
	if len(slow) == 0 {
		t.Fatal("nanosecond threshold captured no slow queries")
	}
	last := slow[len(slow)-1]
	if !strings.Contains(last.Profile, "actual=") {
		t.Errorf("slow record missing its profile: %+v", last)
	}

	// History ring respects its capacity.
	for i := 0; i < queryHistorySize+10; i++ {
		mustExec(t, db, `SELECT COUNT(*) FROM aligns`)
	}
	if got := len(db.QueryHistory()); got != queryHistorySize {
		t.Errorf("ring holds %d records, capacity %d", got, queryHistorySize)
	}
}

// TestProfilesReconcileWithExecStats is the satellite-3 reconciliation
// check plus the concurrency soak: N writer sessions and M EXPLAIN
// ANALYZE readers run together (race-detector clean), registry counters
// stay monotonic throughout, and on a quiet database the per-operator
// profile totals of one instrumented query equal the global ExecStats
// deltas it produced.
func TestProfilesReconcileWithExecStats(t *testing.T) {
	db := openJoinDB(t, Options{})

	// Concurrency soak: 3 writers, 2 analyze readers, 1 metrics poller.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 20; i++ {
				if _, err := sess.Exec(fmt.Sprintf(
					`INSERT INTO reads VALUES (%d, 'w%d-%d')`, i%500, w, i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			for i := 0; i < 5; i++ {
				if _, err := sess.Exec("EXPLAIN ANALYZE " + spillingJoinSQL); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		names := []string{"exec.join.build_rows", "pool.hits", "query.count", "wal.syncs"}
		prev := map[string]int64{}
		for {
			m := db.Metrics()
			for _, n := range names {
				if m[n] < prev[n] {
					t.Errorf("metric %s went backwards: %d -> %d", n, prev[n], m[n])
				}
				prev[n] = m[n]
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
	}()
	wg.Wait()
	close(stop)
	pollWG.Wait()

	// Quiet reconciliation: one instrumented query's profiles must sum to
	// exactly the ExecStats movement it caused.
	before := db.ExecStats()
	res, node := profiledQuery(t, db, spillingJoinSQL, true)
	delta := db.ExecStats().Sub(before)

	var rows, spillRows, spillRuns, bloomChecks, bloomDrops int64
	for _, p := range collectProfiles(node) {
		rows += p.Rows.Load()
		spillRows += p.SpillRows.Load()
		spillRuns += p.SpillRuns.Load()
		bloomChecks += p.BloomChecks.Load()
		bloomDrops += p.BloomDrops.Load()
	}
	if rows == 0 {
		t.Fatal("no profile rows recorded")
	}
	if root := node.Prof; root == nil || root.Rows.Load() != int64(len(res.Rows)) {
		t.Errorf("root profile rows != result rows (%d)", len(res.Rows))
	}
	wantSpillRows := delta.Join.SpilledBuildRows + delta.Join.SpilledProbeRows +
		delta.Sort.SpilledRows + delta.Agg.SpilledRows
	if spillRows != wantSpillRows {
		t.Errorf("profile spill rows = %d, ExecStats delta = %d", spillRows, wantSpillRows)
	}
	wantRuns := delta.Join.SpilledPartitions + delta.Sort.Runs + delta.Agg.SpilledPartitions
	if spillRuns != wantRuns {
		t.Errorf("profile spill runs = %d, ExecStats delta = %d", spillRuns, wantRuns)
	}
	if bloomChecks != delta.Join.BloomChecks || bloomDrops != delta.Join.BloomDrops {
		t.Errorf("profile bloom %d/%d, ExecStats delta %d/%d",
			bloomChecks, bloomDrops, delta.Join.BloomChecks, delta.Join.BloomDrops)
	}
	if spillRows == 0 || bloomChecks == 0 {
		t.Errorf("query did not exercise spill (%d) / bloom (%d)", spillRows, bloomChecks)
	}
}
