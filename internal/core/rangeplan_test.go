package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sqltypes"
)

// Genomic-window lookups: a re-sequencing lane's alignments in a heap with
// a secondary index on the position, loaded in read order, so the
// positions on a page are scattered and zone maps keep nearly every page
// for any window. The planner must price a window's two bounds as one
// interval and the index by the pages and rows it reads, so a narrow
// window takes the index and a wide one the scan. No clock is read.

const (
	alignRows   = 10_000
	alignMaxPos = 25_000 // a_pos spans [0, alignMaxPos) on each of 4 chromosomes
)

// openAlignHeap builds the AlignHeap-shaped table, checkpointed, indexed
// and analyzed, serial as the benchmark runs on 2 vCPUs, and returns the
// sorted positions it holds.
func openAlignHeap(t testing.TB) (*Database, []int64) {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	mustExec(t, db, `CREATE TABLE AlignHeap (a_r_id BIGINT, a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`)
	rng := rand.New(rand.NewSource(42))
	rows := make([]sqltypes.Row, alignRows)
	pos := make([]int64, alignRows)
	for i := range rows {
		pos[i] = rng.Int63n(alignMaxPos)
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(int64(1 + rng.Intn(4))), sqltypes.NewInt(pos[i]),
			sqltypes.NewBool(rng.Intn(2) == 0), sqltypes.NewInt(int64(rng.Intn(60))),
		}
	}
	if err := db.InsertRows("AlignHeap", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	mustExec(t, db, `CREATE INDEX idx_apos ON AlignHeap(a_pos)`)
	mustExec(t, db, `ANALYZE`)
	slices.Sort(pos)
	return db, pos
}

// scanEstActual reads the base-table scan line of an EXPLAIN ANALYZE.
var scanEstActual = regexp.MustCompile(`Scan \[AlignHeap\].*\(est=(\d+) rows, actual=(\d+) rows`)

// TestGenomicWindowTakesIndex: a 200-bp window plans an Index Scan whose
// estimate lands within 2x of the rows it returns; a bound that keeps
// every row and a 30 % window stay on the Table Scan.
func TestGenomicWindowTakesIndex(t *testing.T) {
	db, pos := openAlignHeap(t)
	count := func(lo, hi int64) int {
		n := 0
		for _, p := range pos {
			if p >= lo && p <= hi {
				n++
			}
		}
		return n
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		lo := pos[rng.Intn(len(pos))]
		hi := lo + 200
		q := fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos >= %d AND a_pos <= %d", lo, hi)
		plan := mustExec(t, db, "EXPLAIN "+q).Plan
		if want := fmt.Sprintf("Index Scan [AlignHeap] idx_apos (%d..%d)", lo, hi); !strings.Contains(plan, want) {
			t.Fatalf("window %d..%d does not take the index:\n%s", lo, hi, plan)
		}
		res := mustExec(t, db, "EXPLAIN ANALYZE "+q)
		m := scanEstActual.FindStringSubmatch(res.Plan)
		if m == nil {
			t.Fatalf("no estimate on the index scan line:\n%s", res.Plan)
		}
		est, _ := strconv.Atoi(m[1])
		actual, _ := strconv.Atoi(m[2])
		if want := count(lo, hi); actual != want {
			t.Fatalf("window %d..%d: index scan returned %d rows, want %d", lo, hi, actual, want)
		}
		if est > 2*actual || actual > 2*est {
			t.Errorf("window %d..%d: est=%d, actual=%d: off by more than 2x\n%s", lo, hi, est, actual, res.Plan)
		}
	}
	for _, q := range []string{
		fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos < %d", alignMaxPos),
		fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos >= %d AND a_pos <= %d", alignMaxPos/3, alignMaxPos/3+alignMaxPos*3/10),
	} {
		plan := mustExec(t, db, "EXPLAIN "+q).Plan
		if strings.Contains(plan, "Index Scan") || !strings.Contains(plan, "Table Scan [AlignHeap]") {
			t.Errorf("%s should scan the table:\n%s", q, plan)
		}
	}
}

// indexScanTraffic reads the Index Scan line of an EXPLAIN ANALYZE: the
// rows it returned, its batches, and its pool hits and misses.
var indexScanTraffic = regexp.MustCompile(`Index Scan \[AlignHeap\].* actual=(\d+) rows.* batches=(\d+) .*\n\s*pool: (\d+) hits, (\d+) misses`)

// TestCoveredWindowReadsOnlyTheIndex: COUNT(*) over a 200-bp window reads
// nothing but the index's key column, so the scan answers it from the
// entries: one batch, and the pool gets of the descent and the leaves the
// window spans (fetching its 72 rows took 69 batches and 72 gets).
// SUM(a_mapq) over the same window reads a column outside the key and
// still fetches a page for nearly every row. No clock is read.
func TestCoveredWindowReadsOnlyTheIndex(t *testing.T) {
	db, pos := openAlignHeap(t)
	const lo, hi = 12000, 12200
	want := 0
	for _, p := range pos {
		if p >= lo && p <= hi {
			want++
		}
	}
	for _, c := range []struct {
		agg     string
		covered bool
	}{{"COUNT(*)", true}, {"SUM(a_mapq)", false}} {
		plan := mustExec(t, db, fmt.Sprintf("EXPLAIN ANALYZE SELECT %s FROM AlignHeap WHERE a_pos >= %d AND a_pos <= %d", c.agg, lo, hi)).Plan
		m := indexScanTraffic.FindStringSubmatch(plan)
		if m == nil {
			t.Fatalf("%s: no Index Scan line with batches and pool traffic:\n%s", c.agg, plan)
		}
		n := make([]int, 4)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+1])
		}
		rows, batches, gets := n[0], n[1], n[2]+n[3]
		if rows != want {
			t.Fatalf("%s: the index scan returned %d rows, want %d", c.agg, rows, want)
		}
		if c.covered && (batches != 1 || gets > 4) {
			t.Errorf("%s: %d batches and %d pool gets; an index-only window is one batch and at most 4 gets\n%s", c.agg, batches, gets, plan)
		}
		if !c.covered && gets <= 4 {
			t.Errorf("%s reads a_mapq, outside the index, yet the scan made %d pool gets: it did not fetch\n%s", c.agg, gets, plan)
		}
	}
}

// TestPointLookupPlanUnchanged pins the EXPLAIN of an equality on the
// indexed position, as the planner printed it when each conjunct was
// priced on its own: an equality keeps its single estimate, and its plan.
func TestPointLookupPlanUnchanged(t *testing.T) {
	db, pos := openAlignHeap(t)
	p := pos[len(pos)/2]
	got := mustExec(t, db, fmt.Sprintf("EXPLAIN SELECT COUNT(*) FROM AlignHeap WHERE a_pos = %d", p)).Plan
	want := fmt.Sprintf(`|--Compute Scalar DEFINE:[COUNT(...)] (est=1 rows) vectorized
   |--Hash Match (Aggregate) GROUP BY:[] AGG:[COUNT(*)] (est=1 rows) vectorized
      |--Index Scan [AlignHeap] idx_apos (%[1]d..%[1]d) WHERE:((a_pos = %[1]d)) (est=1 rows) vectorized
`, p)
	if got != want {
		t.Errorf("a_pos = %d:\n%s\nwant\n%s", p, got, want)
	}
}

// TestParallelTopNTiesInTableOrder: a parallel TOP n keeps the rows that
// tie at the n-th key in table order, as the serial plan does, so every
// run returns the same rows.
func TestParallelTopNTiesInTableOrder(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE reads (id BIGINT, seq VARCHAR(20), q INT)`)
	rng := rand.New(rand.NewSource(38))
	rows := make([]sqltypes.Row, 6000)
	for i := range rows {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("r%d", i)), sqltypes.NewInt(int64(rng.Intn(40))),
		}
	}
	if err := db.InsertRows("reads", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	const q = `SELECT TOP 5 id, seq FROM reads ORDER BY q DESC`
	db.threshold = 64
	db.SetDOP(1)
	want := canonRows(mustExec(t, db, q))
	db.SetDOP(4)
	if plan := mustExec(t, db, "EXPLAIN "+q).Plan; !strings.Contains(plan, "Top N Sort (per-partition)") || !strings.Contains(plan, "DOP 4") {
		t.Fatalf("not a DOP-4 parallel TOP n:\n%s", plan)
	}
	for run := 0; run < 10; run++ {
		if got := canonRows(mustExec(t, db, q)); got != want {
			t.Fatalf("run %d: %s, serial plan: %s", run, got, want)
		}
	}
}

// canonRows renders a result's rows in their order.
func canonRows(res *Result) string {
	var sb strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&sb, "%v;", r)
	}
	return sb.String()
}

// selfTime reads the scan line's self time from an EXPLAIN ANALYZE.
var selfTime = regexp.MustCompile(`Scan \[AlignHeap\].* \(self ([0-9.]+)(ms|s)\)`)

// BenchmarkWindowAccessPaths measures what access.go's cost constants
// are derived from: the EXPLAIN ANALYZE self time of the AlignHeap scan
// unfiltered and under a 200-bp window (COUNT(*)), and of the fetching
// index scan under windows of 200 and 1 000 bp (SUM(a_mapq), which reads
// a column outside the index), warm and serial. index-only-200bp is
// COUNT(*) through the index, which reads the entries alone. Each reports
// its mean self time as self-ms; run with -benchtime 3000x for the
// header's figures.
func BenchmarkWindowAccessPaths(b *testing.B) {
	db, _ := openAlignHeap(b)
	for _, c := range []struct{ name, path, agg, where string }{
		{"scan-unfiltered", "full", "COUNT(*)", ""},
		{"scan-200bp", "full", "COUNT(*)", " WHERE a_pos >= 12000 AND a_pos <= 12200"},
		{"index-200bp", "index", "SUM(a_mapq)", " WHERE a_pos >= 12000 AND a_pos <= 12200"},
		{"index-1000bp", "index", "SUM(a_mapq)", " WHERE a_pos >= 12000 AND a_pos <= 13000"},
		{"index-only-200bp", "index", "COUNT(*)", " WHERE a_pos >= 12000 AND a_pos <= 12200"},
	} {
		b.Run(c.name, func(b *testing.B) {
			db.planner.ForcePath = c.path
			defer func() { db.planner.ForcePath = "" }()
			total := 0.0
			for i := 0; i < b.N; i++ {
				res, err := db.Exec("EXPLAIN ANALYZE SELECT " + c.agg + " FROM AlignHeap" + c.where)
				if err != nil {
					b.Fatal(err)
				}
				m := selfTime.FindStringSubmatch(res.Plan)
				if m == nil {
					b.Fatalf("no self time:\n%s", res.Plan)
				}
				ms, _ := strconv.ParseFloat(m[1], 64)
				if m[2] == "s" {
					ms *= 1000
				}
				total += ms
			}
			b.ReportMetric(total/float64(b.N), "self-ms")
		})
	}
}
