package core

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// TestMetricsContract holds the engine's observable counting surface
// across changes to how counters are kept: a fixed script at DOP 1 on a
// quiet database drives every operator family, then (a) every metric name
// the registry had is still there, spelled the same, (b) every counter
// whose value the script determines reads the number recorded when the
// test was written, and (c) the untimed EXPLAIN ANALYZE of the three
// spilling statements prints the same spill and Bloom detail lines.
func TestMetricsContract(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{
		DOP: 1, JoinMemoryBudget: 4 << 10, SortMemoryBudget: 4 << 10, AggMemoryBudget: 4 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })

	loadJoinTables(t, db, 3000, 2500, 500)
	mustExec(t, db, `CREATE TABLE lanes (pos BIGINT, scattered BIGINT, tag VARCHAR(20))`)
	mustExec(t, db, `CREATE TABLE flows (id BIGINT, flow VARCHAR(12), qual INT) WITH (DATA_COMPRESSION = PAGE)`)
	mustExec(t, db, `CREATE TABLE sorted (id BIGINT NOT NULL PRIMARY KEY CLUSTERED, seq VARCHAR(40))`)
	const n = 4096
	lanes, flows, sorted := make([]sqltypes.Row, n), make([]sqltypes.Row, n), make([]sqltypes.Row, n)
	for i := range lanes {
		lanes[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 7919 % n * 3)), sqltypes.NewString(fmt.Sprintf("lane-%d", i%16))}
		flows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("TACG%d", i%5)), sqltypes.NewInt(int64(i % 40))}
		sorted[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString("ACGTACGTACGTACGTACGTACGTACGTACGTACGT")}
	}
	for i, rows := range [][]sqltypes.Row{lanes, flows, sorted} {
		if err := db.InsertRows([]string{"lanes", "flows", "sorted"}[i], rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CHECKPOINT`)
	mustExec(t, db, `CREATE INDEX idx_scattered ON lanes(scattered)`)
	mustExec(t, db, `ANALYZE TABLE lanes`)

	const (
		joinSQL  = spillingJoinSQL
		sortSQL  = `SELECT payload FROM reads ORDER BY payload`
		groupSQL = `SELECT k, COUNT(*) FROM reads GROUP BY k`
	)
	for _, c := range []struct {
		sql, path string
		rows      int
	}{
		{joinSQL, "Hash Match (Partitioned Inner Join)", 1200},
		{sortSQL, "Sort", 3000},
		{groupSQL, "Hash Match (Aggregate)", 500},
		{`SELECT tag FROM lanes WHERE pos >= 1000 AND pos < 1100`, "zonemap-pruned", 100},
		{`SELECT COUNT(*) FROM flows WHERE flow = 'TACG3'`, "Table Scan", 1},
		{`SELECT seq FROM sorted WHERE id >= 100 AND id < 300`, "Clustered Index Scan", 200},
		{`SELECT COUNT(*) FROM lanes WHERE scattered = 3000`, "Index Scan [lanes] idx_scattered", 1},
	} {
		if plan := mustExec(t, db, "EXPLAIN "+c.sql).Plan; !strings.Contains(plan, c.path) {
			t.Fatalf("%s does not plan as %q:\n%s", c.sql, c.path, plan)
		}
		if got := len(mustExec(t, db, c.sql).Rows); got != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.sql, got, c.rows)
		}
	}
	mustExec(t, db, `CHECKPOINT`)

	// (a) The registry's names.
	have := map[string]bool{}
	for _, name := range db.metrics.Names() {
		have[name] = true
	}
	m := db.Metrics()
	for name := range contractCounters {
		if !have[name] {
			t.Errorf("metric %q is gone from MetricNames()", name)
		}
	}
	// (b) Their values. Pool traffic, fsyncs, the statement count and the
	// background vacuum depend on more than the script; they only have to
	// have moved (or, where the script leaves them at zero, to exist).
	for name, want := range contractCounters {
		got, ok := m[name]
		switch {
		case !ok:
			t.Errorf("metric %q is gone from Metrics()", name)
		case want == moved && got <= 0:
			t.Errorf("%s = %d, want it to have moved", name, got)
		case want >= 0 && got != want:
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}

	// (c) The detail lines of the three spilling statements.
	for _, c := range []struct {
		sql   string
		lines []string
	}{
		{joinSQL, []string{"spill: 2.9 KB in 9 runs (264 rows)", "bloom: 3000 checked, 2760 dropped (92.0%)"}},
		{sortSQL, []string{"spill: 30.9 KB in 142 runs (2982 rows)"}},
		{groupSQL, []string{"spill: 16.8 KB in 32 runs (2928 rows)"}},
	} {
		res, node := profiledQuery(t, db, c.sql, false)
		var got []string
		for _, line := range strings.Split(node.ExplainAnalyze(0, int64(len(res.Rows))), "\n") {
			if line = strings.TrimSpace(line); strings.HasPrefix(line, "spill:") || strings.HasPrefix(line, "bloom:") {
				got = append(got, line)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(c.lines) {
			t.Errorf("%s: detail lines\n got %q\nwant %q", c.sql, got, c.lines)
		}
	}
}

// moved and present mark the contract counters whose exact value the
// script does not fix.
const (
	moved   = -1
	present = -2
)

// contractCounters is every metric the registry exposed when the counting
// systems were still separate, with the value the script above leaves in
// it (recorded at commit 31e720e).
var contractCounters = map[string]int64{
	"checkpoint.count":             5,
	"exec.agg.spill_recursions":    32,
	"exec.agg.spilled_bytes":       17243,
	"exec.agg.spilled_partitions":  32,
	"exec.agg.spilled_rows":        2928,
	"exec.join.bloom_checks":       3000,
	"exec.join.bloom_drops":        2760,
	"exec.join.build_rows":         320,
	"exec.join.probe_rows":         3144,
	"exec.join.spill_recursions":   9,
	"exec.join.spilled_build_rows": 120,
	"exec.join.spilled_partitions": 9,
	"exec.join.spilled_probe_rows": 144,
	"exec.sort.merge_rows":         3000,
	"exec.sort.runs":               142,
	"exec.sort.sorts":              2,
	"exec.sort.spilled_bytes":      31692,
	"exec.sort.spilled_rows":       2982,
	"integrity.checksum_failures":  0,
	"integrity.pages_verified":     28,
	"planner.path_picks.full":      8,
	"planner.path_picks.index":     2,
	"planner.path_picks.zonemap":   6,
	"pool.evictions":               present,
	"pool.hits":                    moved,
	"pool.misses":                  moved,
	"query.count":                  moved,
	"query.slow_count":             present,
	"scan.batches":                 42,
	"scan.dict_entries_decoded":    20,
	"scan.rows":                    19943,
	"scan.values_decoded":          29588,
	"scan.zone_skipped_pages":      14,
	"scan.zone_considered_pages":   23, // added with the counter: the lanes range scan's pages and the flows scan's
	"vacuum.runs":                  moved,
	"wal.syncs":                    moved,
}
