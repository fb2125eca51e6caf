package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
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
	var node *plan.Node
	res, _, err := db.runPlan(sql, snap, timed, func() (*plan.Node, error) {
		node, err = db.planner.PlanSelect(sel)
		return node, err
	})
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
	if _, err := db.defaultSess.ExecStmt(ex); err == nil {
		t.Fatal("EXPLAIN ANALYZE of a non-SELECT succeeded")
	}
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
	if got, want := db.Metrics()["exec.join.build_rows"], engineCounters(db)[obs.JoinBuildRows]; got != want {
		t.Errorf("metrics (%d) disagree with the engine counters (%d)", got, want)
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

// TestEveryRowStatementIsRecorded: INSERT ... SELECT, INSERT ... VALUES,
// ANALYZE and CREATE INDEX each leave one query-history record with their
// text and duration, INSERT ... VALUES with its rows affected, and a slow
// ANALYZE keeps its plan's profile like a slow SELECT does.
func TestEveryRowStatementIsRecorded(t *testing.T) {
	db := openJoinDB(t, Options{SlowQueryThreshold: time.Nanosecond})
	mustExec(t, db, `CREATE TABLE copies (k BIGINT, payload VARCHAR(40))`)
	stmts := []string{
		`INSERT INTO copies SELECT k, payload FROM reads WHERE k < 100`,
		`ANALYZE TABLE reads`,
		`CREATE INDEX idx_k ON copies(k)`,
		`INSERT INTO copies VALUES (1000, 'a'), (1001, NULL), (1002, 'c')`,
	}
	for _, sql := range stmts {
		mustExec(t, db, sql)
	}
	recorded := map[string]obs.QueryRecord{}
	for _, rec := range db.QueryHistory() {
		if _, twice := recorded[rec.SQL]; twice {
			t.Errorf("two history records for %q", rec.SQL)
		}
		recorded[rec.SQL] = rec
	}
	if rec := recorded[stmts[3]]; rec.Rows != 3 {
		t.Errorf("INSERT ... VALUES recorded %d rows, want 3", rec.Rows)
	}
	for _, sql := range stmts {
		rec, ok := recorded[sql]
		if !ok {
			t.Errorf("no history record for %q", sql)
			continue
		}
		if rec.Duration <= 0 || rec.Err != "" {
			t.Errorf("record for %q not filled: %+v", sql, rec)
		}
	}
	var analyze *obs.QueryRecord
	for _, rec := range db.SlowQueries() {
		if rec.SQL == stmts[1] {
			analyze = &rec
		}
	}
	if analyze == nil || !strings.Contains(analyze.Profile, "actual=") {
		t.Errorf("slow ANALYZE kept no profile: %+v", analyze)
	}
}

// TestMetricsMonotonicUnderLoad is the concurrency soak: N writer sessions
// and M EXPLAIN ANALYZE readers run together (race-detector clean) while a
// poller checks the registry never goes backwards; then one snapshot is
// taken while a DOP-4 spilling join is held mid-probe — the build input
// counted in full, the probe input in part — and must not exceed the final
// reading.
func TestMetricsMonotonicUnderLoad(t *testing.T) {
	db := openJoinDB(t, Options{})

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

	// hold() passes its argument through; its 1500th call, on one of the
	// probe-side scan chains, reports and waits, and so does every call
	// after it until the snapshot is taken.
	var calls atomic.Int64
	reached, release := make(chan struct{}), make(chan struct{})
	db.RegisterScalar("hold", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if n := calls.Add(1); n == 1500 {
			close(reached)
		} else if n < 1500 {
			return args[0], nil
		}
		<-release
		return args[0], nil
	})
	before := db.Metrics()
	done := make(chan error, 1) // the one send must not block if the test has failed
	go func() {
		_, err := db.NewSession().Exec(spillingJoinSQL + ` AND hold(reads.k) >= 0`)
		done <- err
	}()
	<-reached
	mid := db.Metrics()
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	end := db.Metrics()
	moved := func(m map[string]int64, name string) int64 { return m[name] - before[name] }
	// 200 rows of aligns have k < 40; the re-joins of spilled partitions,
	// which build again, come after the probe.
	if got := moved(mid, "exec.join.build_rows"); got != 200 {
		t.Errorf("mid-probe: %d build rows counted, want the build input's 200", got)
	}
	if got, all := moved(mid, "exec.join.probe_rows"), moved(end, "exec.join.probe_rows"); got <= 0 || got >= all {
		t.Errorf("mid-probe: %d of %d probe rows counted, want some and not all", got, all)
	}
	for name, v := range mid {
		if v > end[name] {
			t.Errorf("metric %s read %d mid-probe and %d afterwards", name, v, end[name])
		}
	}
}

// TestProfilesAccountForPoolTraffic: on a quiet database the profiles of a
// statement's plan add up to the buffer-pool traffic it caused — btree
// descents and leaf walks and heap fetches behind an index included — and
// the nodes that did the reading say so in EXPLAIN ANALYZE. Spilled join
// partitions are re-read straight from disk and add no pool traffic.
func TestProfilesAccountForPoolTraffic(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1, JoinMemoryBudget: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.joinParts = 2 // spilled partitions of several pages, re-read around the pool
	db.SetDOP(1)
	loadJoinTables(t, db, 3000, 2500, 500)
	mustExec(t, db, `CREATE TABLE lreads (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, seq VARCHAR(40))`)
	mustExec(t, db, `CREATE TABLE laligns (a_r_id BIGINT NOT NULL, a_id BIGINT NOT NULL, a_pos BIGINT, PRIMARY KEY CLUSTERED (a_r_id, a_id))`)
	mustExec(t, db, `CREATE TABLE hits (h_pos BIGINT, h_tag VARCHAR(20))`)
	const n = 4096
	lreads, laligns, hits := make([]sqltypes.Row, n), make([]sqltypes.Row, n), make([]sqltypes.Row, n)
	for i := range lreads {
		lreads[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString("ACGTACGTACGTACGTACGT")}
		laligns[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 3))}
		hits[i] = sqltypes.Row{sqltypes.NewInt(int64(i * 7919 % n * 3)), sqltypes.NewString(fmt.Sprintf("hit-%d", i))}
	}
	for i, rows := range [][]sqltypes.Row{lreads, laligns, hits} {
		if err := db.InsertRows([]string{"lreads", "laligns", "hits"}[i], rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CHECKPOINT`)
	mustExec(t, db, `CREATE INDEX idx_hpos ON hits(h_pos)`)
	mustExec(t, db, `ANALYZE TABLE hits`)

	for _, c := range []struct {
		sql   string
		nodes []string // plan lines that must carry a pool: detail line
	}{
		{`SELECT COUNT(*) FROM lreads JOIN laligns ON lreads.r_id = laligns.a_r_id`, []string{"Clustered Index Scan"}},
		{`SELECT COUNT(*) FROM hits WHERE h_pos = 3000`, []string{"Index Scan"}},
		{`SELECT payload, tag FROM reads JOIN aligns ON reads.k = aligns.k`, []string{"Table Scan"}},
	} {
		if c.nodes[0] == "Clustered Index Scan" {
			if plan := mustExec(t, db, "EXPLAIN "+c.sql).Plan; !strings.Contains(plan, "Merge Join") {
				t.Fatalf("%s is not a merge join:\n%s", c.sql, plan)
			}
		}
		before := db.Metrics()
		res, node := profiledQuery(t, db, c.sql, false)
		after := db.Metrics()
		var attributed int64
		for _, p := range collectProfiles(node) {
			attributed += p.Get(obs.PoolHits) + p.Get(obs.PoolMisses)
		}
		caused := after["pool.hits"] + after["pool.misses"] - before["pool.hits"] - before["pool.misses"]
		if attributed != caused || caused == 0 {
			t.Errorf("%s: profiles account for %d pool reads, the statement caused %d", c.sql, attributed, caused)
		}
		lines := strings.Split(node.ExplainAnalyze(0, int64(len(res.Rows))), "\n")
		for _, op := range c.nodes {
			found := false
			for i, line := range lines[:len(lines)-1] {
				if strings.Contains(line, "|--"+op) {
					for _, detail := range lines[i+1:] {
						if strings.Contains(detail, "|--") {
							break
						}
						found = found || strings.Contains(detail, "pool: ")
					}
				}
			}
			if !found {
				t.Errorf("%s: no pool: line under %s:\n%s", c.sql, op, strings.Join(lines, "\n"))
			}
		}
	}
}
