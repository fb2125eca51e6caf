package core_test

import (
	"fmt"
	"math/rand"
	"regexp"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

// allocsPerRun measures what one call of f allocates, in objects and
// bytes, as the smallest of several runs (the first fills caches; a
// statement's maps are seeded afresh each run, and their overflow buckets
// come and go by a few allocations).
func allocsPerRun(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	objects, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 64; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestAggregationAllocationFloors holds the batch-fed aggregates' cost
// without a clock, per input row of the statement: the benchmark's Query 3
// (clustered scan, stream aggregate, AssembleConsensus over 10 000
// alignments in 8 groups) and a hash aggregate counting the groups of an
// INT key. Fed a row at a time the consensus statement made 6.8
// allocations and about 1.6 KB a row. What is left is, per row, one copy of
// the stored row (the lazy columns keep it), the two 36-byte strings with
// their headers, and the consensus growing by doubling. Under 64 KB
// operator budgets a hash aggregate over ~8 700 groups freezes partitions
// and a 10 000-row hash join spills; those two are held, in the
// TestSortAllocationFloors idiom, to what they allocated at the commit
// before the join and the aggregate shared one hash table (Go 1.24,
// linux/amd64), as the smallest of 64 runs.
func TestAggregationAllocationFloors(t *testing.T) {
	const rows = 10_000
	rng := rand.New(rand.NewSource(15))
	sorted, heap := make([]sqltypes.Row, rows), make([]sqltypes.Row, rows)
	positions := map[int64]bool{}
	for i := range sorted {
		read := make([]byte, 36)
		for j := range read {
			read[j] = "ACGT"[rng.Intn(4)]
		}
		g, pos := int64(i%8+1), int64(i/8*20+rng.Intn(20))
		positions[pos] = true
		sorted[i] = sqltypes.Row{
			sqltypes.NewInt(g), sqltypes.NewInt(pos), sqltypes.NewInt(int64(i)),
			sqltypes.NewString(string(read)), sqltypes.NewString("IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"),
		}
		heap[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i % 50)), sqltypes.NewInt(pos)}
	}
	open := func(opts core.Options) (*core.Database, func(string) *core.Result) {
		db, err := core.Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		udf.RegisterAll(db)
		exec := func(sql string) *core.Result {
			t.Helper()
			res, err := db.Exec(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return res
		}
		exec(`CREATE TABLE AlignmentSorted (a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
		    seq VARCHAR(300), quals VARCHAR(300), PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
		exec(`CREATE TABLE AlignHeap (a_r_id BIGINT, a_g_id INT, a_pos BIGINT)`)
		if err := db.InsertRows("AlignmentSorted", sorted); err != nil {
			t.Fatal(err)
		}
		if err := db.InsertRows("AlignHeap", heap); err != nil {
			t.Fatal(err)
		}
		exec(`CHECKPOINT`)
		return db, exec
	}
	_, exec := open(core.Options{DOP: 1})

	for _, c := range []struct {
		sql               string
		groups            int
		objects, bytesRow float64 // allowed per input row
	}{
		{`SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM AlignmentSorted GROUP BY a_g_id`, 8, 0.1, 384},
		{`SELECT a_g_id, COUNT(*) FROM AlignHeap GROUP BY a_g_id`, 50, 0.05, 64},
	} {
		var got int
		objects, bytes := allocsPerRun(func() { got = len(exec(c.sql).Rows) })
		if got != c.groups {
			t.Fatalf("%s: %d groups, want %d", c.sql, got, c.groups)
		}
		perRow, bytesRow := float64(objects)/rows, float64(bytes)/rows
		t.Logf("%s: %.3f allocations and %.0f bytes per input row", c.sql, perRow, bytesRow)
		if perRow > c.objects || bytesRow > c.bytesRow {
			t.Errorf("%s: %.3f allocations and %.0f bytes per input row, want at most %v and %v",
				c.sql, perRow, bytesRow, c.objects, c.bytesRow)
		}
	}
	// Both lines of Query 3's plan work on batches, and EXPLAIN says so.
	plan := exec(`EXPLAIN SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM AlignmentSorted GROUP BY a_g_id`).Plan
	for _, op := range []string{"Stream Aggregate", "Clustered Index Scan"} {
		if !regexp.MustCompile(regexp.QuoteMeta(op) + `.* vectorized\n`).MatchString(plan) {
			t.Errorf("EXPLAIN does not mark %s vectorized:\n%s", op, plan)
		}
	}

	for _, c := range []struct {
		sql, op, spilled string
		out              int
		floor            uint64 // allocations a statement
	}{
		{`SELECT a_pos, COUNT(*) FROM AlignHeap GROUP BY a_pos`, "Hash Match (Aggregate)", "exec.agg.spilled_partitions",
			len(positions), spillingGroupByAllocs},
		{`SELECT COUNT(*) FROM AlignHeap h JOIN AlignmentSorted s ON h.a_r_id = s.a_id`, "Hash Match (Partitioned Inner Join)",
			"exec.join.spilled_partitions", 1, spillingJoinAllocs},
	} {
		// A database each: what one statement left behind does not count
		// against the other.
		spillDB, spillExec := open(core.Options{DOP: 1, AggMemoryBudget: 64 << 10, JoinMemoryBudget: 64 << 10})
		if plan := spillExec("EXPLAIN " + c.sql).Plan; !regexp.MustCompile(regexp.QuoteMeta(c.op)).MatchString(plan) {
			t.Fatalf("%s does not plan as %q:\n%s", c.sql, c.op, plan)
		}
		before := spillDB.Metrics()[c.spilled]
		var res *core.Result
		objects, bytes := allocsPerRun(func() { res = spillExec(c.sql) })
		if len(res.Rows) != c.out {
			t.Fatalf("%s: %d rows, want %d", c.sql, len(res.Rows), c.out)
		}
		if c.out == 1 && res.Rows[0][0].I != rows {
			t.Fatalf("%s: %v, want %d", c.sql, res.Rows[0], rows)
		}
		if spillDB.Metrics()[c.spilled] == before {
			t.Fatalf("%s: %s did not move under a 64 KB budget", c.sql, c.spilled)
		}
		t.Logf("budget 64 KB, %s: %d allocations; %.3f and %.0f bytes per input row",
			c.sql, objects, float64(objects)/rows, float64(bytes)/rows)
		if objects > c.floor && !raceBuild {
			t.Errorf("budget 64 KB, %s: %.3f allocations per input row, want at most %.3f",
				c.sql, float64(objects)/rows, float64(c.floor)/rows)
		}
	}
}

// Allocations of the two spilling statements of
// TestAggregationAllocationFloors at the commit before the hash join and
// the hash aggregate shared one hash table (Go 1.24, linux/amd64), as the
// smallest of 64 runs; the largest such reading of five, since the
// smallest of 64 still moves by a few allocations from run to run.
const (
	spillingGroupByAllocs = 22318
	spillingJoinAllocs    = 22034
)

// TestPointLookupAllocationFloors holds the two statements that are all
// per-statement overhead — the benchmark's pk_lookup (a seek on a clustered
// key) and idx_lookup (COUNT(*) through a secondary index, the pushed
// predicate re-checked on the one fetched row) — to the allocations they
// made when rows still flowed between operators, parse and plan included.
func TestPointLookupAllocationFloors(t *testing.T) {
	const rows = 4096
	db, err := core.Open(t.TempDir(), core.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	exec := func(sql string) *core.Result {
		t.Helper()
		res, err := db.Exec(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return res
	}
	exec(`CREATE TABLE ReseqRead (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, short_read_seq VARCHAR(300), quals VARCHAR(300))`)
	exec(`CREATE TABLE AlignHeap (a_r_id BIGINT, a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`)
	reads, aligns := make([]sqltypes.Row, rows), make([]sqltypes.Row, rows)
	for i := range reads {
		reads[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString("ACGTACGTACGTACGTACGTACGTACGTACGTACGT"),
			sqltypes.NewString("IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII")}
		aligns[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(int64(i % 8)), sqltypes.NewInt(int64(i * 7919 % rows * 3)), // scattered: no zone map helps
			sqltypes.NewBool(i%2 == 0), sqltypes.NewInt(int64(i % 60))}
	}
	if err := db.InsertRows("ReseqRead", reads); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("AlignHeap", aligns); err != nil {
		t.Fatal(err)
	}
	exec(`CHECKPOINT`)
	exec(`CREATE INDEX idx_apos ON AlignHeap(a_pos)`)
	exec(`ANALYZE`)

	for _, c := range []struct {
		sql, path string
		objects   uint64 // allowed per statement: what the parent commit made
	}{
		{`SELECT short_read_seq FROM ReseqRead WHERE r_id = 2049`, "SEEK:[2049..2050)", pkLookupAllocs},
		{`SELECT COUNT(*) FROM AlignHeap WHERE a_pos = 3000`, "Index Scan [AlignHeap] idx_apos", idxLookupAllocs},
	} {
		if plan := exec("EXPLAIN " + c.sql).Plan; !regexp.MustCompile(regexp.QuoteMeta(c.path)).MatchString(plan) {
			t.Fatalf("%s does not take the path %q:\n%s", c.sql, c.path, plan)
		}
		var got int
		objects, bytes := allocsPerRun(func() { got = len(exec(c.sql).Rows) })
		if got != 1 {
			t.Fatalf("%s: %d rows, want 1", c.sql, got)
		}
		t.Logf("%s: %d allocations, %d bytes", c.sql, objects, bytes)
		if objects > c.objects && !raceBuild {
			t.Errorf("%s: %d allocations a statement, want at most %d", c.sql, objects, c.objects)
		}
	}
}

// TestSortAllocationFloors holds the sort family's cost without a clock, per
// input row, at DOP 1: ORDER BY, the paper's Query 1 (ROW_NUMBER over COUNT(*)
// of a GROUP BY) and TOP n ORDER BY, on a database whose sorts stay in memory
// and on one whose 64 KB sort budget makes the first two spill runs. The
// floors are what each statement allocated at the commit before ROW_NUMBER
// became a counter over a Sort (Go 1.24, linux/amd64), as the smallest of 64
// runs; ORDER BY's were recorded again (24 943 and 41 457 before) when sort
// keys became columns and the sort stopped keeping a key row per input row.
func TestSortAllocationFloors(t *testing.T) {
	const rows = 8192
	rng := rand.New(rand.NewSource(21))
	reads := make([]sqltypes.Row, rows)
	groups := map[string]bool{}
	for i := range reads {
		seq := fmt.Sprintf("ACGTACGT%06d", rng.Intn(2048))
		groups[seq] = true
		reads[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(seq), sqltypes.NewInt(int64(rng.Intn(1000)))}
	}
	const (
		orderBy = `SELECT r_id, seq FROM reads ORDER BY seq, r_id`
		query1  = `SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, COUNT(*) AS freq, seq FROM reads GROUP BY seq`
		topN    = `SELECT TOP 10 r_id, seq FROM reads ORDER BY qual DESC`
	)
	for _, db := range []struct {
		budget int64
		floors [3]uint64 // orderBy, query1, topN
	}{
		{0, [3]uint64{16900, 4730, 652}},
		{64 << 10, [3]uint64{33080, 8620, 652}},
	} {
		d, err := core.Open(t.TempDir(), core.Options{DOP: 1, SortMemoryBudget: db.budget})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if _, err := d.Exec(`CREATE TABLE reads (r_id BIGINT, seq VARCHAR(40), qual INT)`); err != nil {
			t.Fatal(err)
		}
		if err := d.InsertRows("reads", reads); err != nil {
			t.Fatal(err)
		}
		for i, c := range []struct {
			sql   string
			out   int
			spill bool // under the 64 KB budget
		}{{orderBy, rows, true}, {query1, len(groups), true}, {topN, 10, false}} {
			before := d.Metrics()["exec.sort.runs"]
			var got int
			objects, bytes := allocsPerRun(func() {
				res, err := d.Exec(c.sql)
				if err != nil {
					t.Fatalf("%s: %v", c.sql, err)
				}
				got = len(res.Rows)
			})
			if got != c.out {
				t.Fatalf("%s: %d rows, want %d", c.sql, got, c.out)
			}
			if spilled := d.Metrics()["exec.sort.runs"] > before; spilled != (c.spill && db.budget > 0) {
				t.Fatalf("budget %d, %s: spilled = %v", db.budget, c.sql, spilled)
			}
			t.Logf("budget %d, %s: %d allocations; %.3f and %.0f bytes per input row",
				db.budget, c.sql, objects, float64(objects)/rows, float64(bytes)/rows)
			if floor := db.floors[i]; objects > floor && !raceBuild {
				t.Errorf("budget %d, %s: %.3f allocations per input row, want at most %.3f",
					db.budget, c.sql, float64(objects)/rows, float64(floor)/rows)
			}
		}
	}
}

// Allocations of one point lookup at the commit before operators exchanged
// only batches (Go 1.24, linux/amd64), as the smallest of 64 runs.
const (
	pkLookupAllocs  = 116
	idxLookupAllocs = 481
)

// raceBuild is set under -race (floors_race_test.go).
var raceBuild bool
