package plan

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// fakeProvider serves two in-memory tables: a heap "t" and a clustered
// pair "left"/"right" keyed by their first column.
type fakeProvider struct {
	scalars *expr.Registry
	tables  map[string]*catalog.Table
	rows    map[string][]sqltypes.Row
	// tstats are per-table statistics served by Stats (nil = no ANALYZE);
	// rowCounts overrides RowCountEstimate for tables whose in-memory row
	// slice stands in for a much larger table.
	tstats    map[string]*stats.TableStats
	rowCounts map[string]int64
	// pageStats, when set, answers HeapPageStats; nil = (0, 0) ("no
	// information", the planner's cardinality fallback).
	pageStats func(t *catalog.Table, filters []storage.ZoneFilter) (kept, total int64)
	// prunedCalls counts ScanPartitionsPruned invocations that carried
	// zone filters (observability for access-path tests).
	prunedCalls int
}

func newFakeProvider() *fakeProvider {
	intT, _ := catalog.ParseType("BIGINT")
	strT, _ := catalog.ParseType("VARCHAR(50)")
	p := &fakeProvider{
		scalars:   expr.NewRegistry(),
		tables:    map[string]*catalog.Table{},
		rows:      map[string][]sqltypes.Row{},
		tstats:    map[string]*stats.TableStats{},
		rowCounts: map[string]int64{},
	}
	p.tables["t"] = &catalog.Table{
		ID: 1, Name: "t",
		Columns: []catalog.Column{{Name: "a", Type: intT}, {Name: "s", Type: strT}},
	}
	p.tables["u"] = &catalog.Table{
		ID: 4, Name: "u",
		Columns: []catalog.Column{{Name: "b", Type: intT}, {Name: "v", Type: strT}},
	}
	p.tables["left"] = &catalog.Table{
		ID: 2, Name: "left_t",
		Columns:    []catalog.Column{{Name: "id", Type: intT}, {Name: "lv", Type: strT}},
		PrimaryKey: []int{0}, Clustered: true,
	}
	p.tables["right_t"] = &catalog.Table{
		ID: 3, Name: "right_t",
		Columns:    []catalog.Column{{Name: "rid", Type: intT}, {Name: "rv", Type: strT}},
		PrimaryKey: []int{0}, Clustered: true,
	}
	for i := 0; i < 10; i++ {
		p.rows["t"] = append(p.rows["t"], sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("s%d", i%3)),
		})
		if i < 4 {
			p.rows["u"] = append(p.rows["u"], sqltypes.Row{
				sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("U%d", i)),
			})
		}
		p.rows["left_t"] = append(p.rows["left_t"], sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("L%d", i)),
		})
		if i%2 == 0 {
			p.rows["right_t"] = append(p.rows["right_t"], sqltypes.Row{
				sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("R%d", i)),
			})
		}
	}
	return p
}

func (p *fakeProvider) Table(name string) *catalog.Table {
	if t, ok := p.tables[strings.ToLower(name)]; ok {
		return t
	}
	return nil
}
func (p *fakeProvider) Scalar(name string) (expr.Func, bool) { return p.scalars.Lookup(name) }
func (p *fakeProvider) Agg(name string) (exec.AggFactory, bool) {
	if f := exec.BuiltinAggregate(name); f != nil {
		return f, true
	}
	return nil, false
}
func (p *fakeProvider) TVF(name string) (TVF, bool) {
	if strings.EqualFold(name, "series") {
		return seriesTVF{}, true
	}
	return nil, false
}

// seriesTVF is series(n): a one-column table-valued function the planner
// can place (its Schema); the plan tests never run it.
type seriesTVF struct{}

func (seriesTVF) Schema([]sqltypes.Value) ([]catalog.Column, error) {
	return []catalog.Column{{Name: "n", Type: catalog.ColumnType{Name: catalog.TypeInt}}}, nil
}

func (seriesTVF) Open(*exec.Context, []*vec.Vector, []int, []bool) (exec.TableIterator, error) {
	return nil, fmt.Errorf("series: not runnable in plan tests")
}
func (p *fakeProvider) ScanPartitionsPruned(t *catalog.Table, parts int, filters []storage.ZoneFilter) ([]exec.Operator, error) {
	if len(filters) > 0 {
		p.prunedCalls++
	}
	rows := p.rows[strings.ToLower(t.Name)]
	if parts < 1 {
		parts = 1
	}
	var ops []exec.Operator
	for i := 0; i < parts; i++ {
		lo, hi := len(rows)*i/parts, len(rows)*(i+1)/parts
		ops = append(ops, values(rows[lo:hi]))
	}
	return ops, nil
}
func (p *fakeProvider) HeapPageStats(t *catalog.Table, filters []storage.ZoneFilter) (int64, int64) {
	if p.pageStats == nil {
		return 0, 0
	}
	return p.pageStats(t, filters)
}

// IndexScan serves rows whose first-index-column value falls in the
// bounds, sorted by that column — the same contract as the engine's
// B-tree-backed scan (NULLs never match a bound).
func (p *fakeProvider) IndexScan(t *catalog.Table, name string, lo, hi *sqltypes.Value, loInc, hiInc bool) (exec.Operator, error) {
	ix := t.IndexByName(name)
	if ix == nil {
		return nil, fmt.Errorf("fake: no index %q on %s", name, t.Name)
	}
	col := ix.Columns[0]
	var out []sqltypes.Row
	for _, r := range p.rows[strings.ToLower(t.Name)] {
		v := r[col]
		if v.IsNull() {
			continue
		}
		if lo != nil {
			if c := sqltypes.Compare(v, *lo); c < 0 || (c == 0 && !loInc) {
				continue
			}
		}
		if hi != nil {
			if c := sqltypes.Compare(v, *hi); c > 0 || (c == 0 && !hiInc) {
				continue
			}
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(i, j int) bool {
		return sqltypes.Compare(out[i][col], out[j][col]) < 0
	})
	return values(out), nil
}

func (p *fakeProvider) OrderedScanRange(t *catalog.Table, lo, hi *sqltypes.Value) (exec.Operator, error) {
	var out []sqltypes.Row
	for _, r := range p.rows[strings.ToLower(t.Name)] {
		if lo != nil && sqltypes.Compare(r[0], *lo) < 0 {
			continue
		}
		if hi != nil && sqltypes.Compare(r[0], *hi) >= 0 {
			continue
		}
		out = append(out, r)
	}
	return values(out), nil
}
func (p *fakeProvider) KeyRanges(t *catalog.Table, parts int) ([][2]*sqltypes.Value, error) {
	mid := sqltypes.NewInt(5)
	if parts <= 1 {
		return [][2]*sqltypes.Value{{nil, nil}}, nil
	}
	return [][2]*sqltypes.Value{{nil, &mid}, {&mid, nil}}, nil
}
func (p *fakeProvider) RowCountEstimate(t *catalog.Table) int64 {
	if n, ok := p.rowCounts[strings.ToLower(t.Name)]; ok {
		return n
	}
	return int64(len(p.rows[strings.ToLower(t.Name)]))
}

func (p *fakeProvider) Stats(t *catalog.Table) *stats.TableStats {
	return p.tstats[strings.ToLower(t.Name)]
}

// values is a re-openable leaf over the given rows.
func values(rows []sqltypes.Row) exec.Operator {
	return &exec.Source{Factory: func(*exec.Context) (exec.RowIterator, error) { return &exec.SliceIterator{Rows: rows}, nil }}
}

// memSpillStore is an in-memory exec.SpillStore for planner tests.
type memSpillStore struct{}

type memSpillFile struct {
	mu     sync.Mutex
	rows   []sqltypes.Row
	size   int64
	sealed int64 // rows in sealed runs
}

func (memSpillStore) Create() (exec.SpillFile, error) { return &memSpillFile{}, nil }

func (f *memSpillFile) Append(r sqltypes.Row) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rows = append(f.rows, r.Clone())
	f.size += int64(len(r)) * 16
	return nil
}
func (f *memSpillFile) Rows() int64  { f.mu.Lock(); defer f.mu.Unlock(); return int64(len(f.rows)) }
func (f *memSpillFile) Bytes() int64 { f.mu.Lock(); defer f.mu.Unlock(); return f.size }
func (f *memSpillFile) Iter() (exec.RowIterator, error) {
	return &exec.SliceIterator{Rows: f.rows}, nil
}

// SealRun and IterRun keep a run as a range of rows.
func (f *memSpillFile) SealRun() (exec.RunSpan, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	span := exec.RunSpan{Start: f.sealed, End: int64(len(f.rows)), Rows: int64(len(f.rows)) - f.sealed}
	f.sealed = span.End
	return span, nil
}
func (f *memSpillFile) IterRun(s exec.RunSpan) (exec.RowIterator, error) {
	return &exec.SliceIterator{Rows: f.rows[s.Start:s.End]}, nil
}
func (f *memSpillFile) Release() error { return nil }

func (p *fakeProvider) SpillStore() exec.SpillStore { return memSpillStore{} }

func planQuery(t *testing.T, pl *Planner, sql string) *Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	node, err := pl.PlanSelect(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func runPlan(t *testing.T, node *Node) []sqltypes.Row {
	t.Helper()
	op, err := node.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := exec.Run(&exec.Context{DOP: 2}, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestPlanSimpleSelect(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT a, s FROM t WHERE a >= 7")
	rows := runPlan(t, node)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if node.Cols[0].Name != "a" || node.Cols[1].Name != "s" {
		t.Errorf("cols = %v", node.Cols)
	}
}

func TestPlanPushdownShowsInScan(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT a FROM t WHERE a = 1")
	text := node.Explain()
	if !strings.Contains(text, "Table Scan") || !strings.Contains(text, "WHERE:") {
		t.Errorf("predicate not pushed into scan:\n%s", text)
	}
	if strings.Contains(text, "|--Filter") {
		t.Errorf("stray filter node above pushed scan:\n%s", text)
	}
}

func TestPlanParallelDecision(t *testing.T) {
	p := newFakeProvider()
	pl := NewPlanner(p, 2)
	pl.ParallelThreshold = 5 // our fake table has 10 rows
	node := planQuery(t, pl, "SELECT COUNT(*) FROM t")
	if !strings.Contains(node.Explain(), "Parallelism (Gather Streams)") {
		t.Errorf("expected parallel plan:\n%s", node.Explain())
	}
	rows := runPlan(t, node)
	if rows[0][0].I != 10 {
		t.Errorf("count = %v", rows)
	}
	// Small tables stay serial.
	pl.ParallelThreshold = 1000
	node2 := planQuery(t, pl, "SELECT COUNT(*) FROM t")
	if strings.Contains(node2.Explain(), "Parallelism") {
		t.Errorf("small table got a parallel plan:\n%s", node2.Explain())
	}
}

func TestPlanMergeJoinSelection(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT lv, rv FROM left JOIN right_t ON id = rid")
	text := node.Explain()
	if !strings.Contains(text, "Merge Join") {
		t.Fatalf("clustered join did not choose merge join:\n%s", text)
	}
	rows := runPlan(t, node)
	if len(rows) != 5 {
		t.Errorf("join rows = %v", rows)
	}
}

func TestPlanHashJoinFallback(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	// Heap table on one side: no merge join possible.
	node := planQuery(t, pl, "SELECT s, rv FROM t JOIN right_t ON a = rid")
	text := node.Explain()
	if !strings.Contains(text, "Hash Match (Partitioned Inner Join)") {
		t.Fatalf("expected hash join:\n%s", text)
	}
	rows := runPlan(t, node)
	if len(rows) != 5 {
		t.Errorf("join rows = %v", rows)
	}
}

func TestPlanParallelMergeJoinRanges(t *testing.T) {
	p := newFakeProvider()
	pl := NewPlanner(p, 2)
	pl.ParallelThreshold = 5
	node := planQuery(t, pl, "SELECT COUNT(*) FROM left JOIN right_t ON id = rid")
	text := node.Explain()
	// The aggregate absorbs the merge-join partitions: each worker runs
	// its own range's merge join and the partials merge.
	if !strings.Contains(text, "Merge Join") || !strings.Contains(text, "Partial Aggregate") {
		t.Fatalf("expected parallel aggregate over merge-join partitions:\n%s", text)
	}
	// Without aggregation the ordered gather shows its partitioning.
	plain := planQuery(t, pl, "SELECT lv, rv FROM left JOIN right_t ON id = rid")
	if !strings.Contains(plain.Explain(), "range-partitioned") {
		t.Fatalf("expected range-partitioned gather:\n%s", plain.Explain())
	}
	rows := runPlan(t, node)
	if rows[0][0].I != 5 {
		t.Errorf("count = %v", rows)
	}
}

func TestPlanStreamAggregateOverClusteredOrder(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT id, COUNT(*) FROM left GROUP BY id")
	if !strings.Contains(node.Explain(), "Stream Aggregate") {
		t.Errorf("group-by on clustered key should stream aggregate:\n%s", node.Explain())
	}
	// Grouping a heap column hashes instead.
	node2 := planQuery(t, pl, "SELECT s, COUNT(*) FROM t GROUP BY s")
	if !strings.Contains(node2.Explain(), "Hash Match (Aggregate)") {
		t.Errorf("heap group-by should hash aggregate:\n%s", node2.Explain())
	}
}

func TestPlanErrors(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	cases := []string{
		"SELECT nope FROM t",
		"SELECT a FROM missing",
		"SELECT t.a FROM t JOIN right_t ON a < rid", // no equi conjunct
		"SELECT UNKNOWNFN(a) FROM t",
		"SELECT a FROM t HAVING COUNT(*) > 1 ORDER BY a", // HAVING w/o group: collected agg makes it grouped; 'a' unresolvable
		"SELECT * FROM t GROUP BY a",
		"SELECT COUNT(*) FROM t WHERE COUNT(*) > 1", // aggregate in WHERE
	}
	for _, sql := range cases {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		if _, err := pl.PlanSelect(stmt.(*sqlparse.Select)); err == nil {
			t.Errorf("PlanSelect(%q) succeeded", sql)
		}
	}
}

func TestPlanAmbiguousColumn(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	stmt, _ := sqlparse.Parse("SELECT id FROM left l1 JOIN left l2 ON l1.id = l2.id")
	if _, err := pl.PlanSelect(stmt.(*sqlparse.Select)); err == nil ||
		!strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column error missing, got %v", err)
	}
}

func TestPlanOrderByAlias(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT a * 2 AS dbl FROM t ORDER BY dbl DESC")
	rows := runPlan(t, node)
	if rows[0][0].I != 18 || rows[len(rows)-1][0].I != 0 {
		t.Errorf("alias order-by rows = %v", rows)
	}
}

func TestExplainTreeShape(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT s, COUNT(*) FROM t GROUP BY s ORDER BY s")
	text := node.Explain()
	// Indentation encodes the tree.
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 3 {
		t.Fatalf("explain too shallow:\n%s", text)
	}
	if !strings.HasPrefix(lines[0], "|--") {
		t.Errorf("root line = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "|--") {
			t.Errorf("line missing branch marker: %q", l)
		}
	}
}

// TestPlanPartitionedJoin verifies the planner emits the parallel
// partitioned hash join once either input passes the parallel threshold,
// picks the smaller estimated side as the build side, and that the plan
// executes to the same rows as the serial hash join.
func TestPlanPartitionedJoin(t *testing.T) {
	serial := NewPlanner(newFakeProvider(), 1)
	want := runPlan(t, planQuery(t, serial, "SELECT b, s FROM u JOIN t ON u.b = t.a"))

	par := NewPlanner(newFakeProvider(), 4)
	par.ParallelThreshold = 4 // t has 10 rows, u has 4
	node := planQuery(t, par, "SELECT b, s FROM u JOIN t ON u.b = t.a")
	text := node.Explain()
	if !strings.Contains(text, "Hash Match (Partitioned Inner Join)") {
		t.Fatalf("expected partitioned join plan:\n%s", text)
	}
	// u (4 rows) is smaller than t (10): it becomes the build side.
	if !strings.Contains(text, "BUILD:left") {
		t.Errorf("expected BUILD:left in plan:\n%s", text)
	}
	if !strings.Contains(text, "Parallelism (Gather Streams)") {
		t.Errorf("expected gather exchange in plan:\n%s", text)
	}
	got := runPlan(t, node)
	canon := func(rows []sqltypes.Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		sort.Strings(out)
		return out
	}
	if gs, ws := canon(got), canon(want); !reflect.DeepEqual(gs, ws) {
		t.Errorf("partitioned join rows %v, serial %v", gs, ws)
	}
}

// TestExplainVectorizedAnnotation: one rule, by the operator a node shows.
// Nodes that compute on typed vectors carry "vectorized" — filter, compute
// scalar, TOP, the exchanges, the hash and merge joins, the aggregates,
// every base-table leaf (an index scan too), a table-valued function, the
// constant row of SELECT 1 and the cross apply; the row-internal ones do
// not — the sort family.
func TestExplainVectorizedAnnotation(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(p, 4)
	marked := map[string]bool{
		"Compute Scalar": true, "Filter": true, "Top": true, "Parallelism (Gather Streams)": true,
		"Parallelism (Gather Streams, ordered)": true, "Hash Match (Partitioned Inner Join)": true,
		"Hash Match (Aggregate)": true, "Stream Aggregate": true,
		"Hash Match (Final Aggregate, merge partials)": true, "Hash Match (Partial Aggregate, spillable)": true,
		"Sort": false, "Parallelism (Merge Gather, ordered)": false, "Sequence Project (ROW_NUMBER)": true,
		"Top N Sort": false, "Top N Sort (per-partition)": false, "Merge Join (Inner Join)": true,
		"Index Scan": true, "Constant Scan": true, "Table Scan": true, "Clustered Index Scan": true,
		"Table-valued Function": true, "Nested Loops (Cross Apply)": true,
	}
	seen := map[string]bool{}
	check := func(sql string) {
		t.Helper()
		text := planQuery(t, pl, sql).Explain()
		for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
			line = strings.TrimLeft(line, " |-")
			op := ""
			for name := range marked {
				if strings.HasPrefix(line, name+" ") || line == name {
					if len(name) > len(op) {
						op = name
					}
				}
			}
			want, known := marked[op]
			if !known {
				t.Fatalf("%s: no expectation for node %q", sql, line)
			}
			seen[op] = true
			if strings.HasSuffix(line, " vectorized") != want {
				t.Errorf("%s: %q: vectorized=%v, want %v\n%s", sql, line, !want, want, text)
			}
		}
	}
	check("SELECT TOP 3 s FROM t WHERE a > 2")
	check("SELECT s, COUNT(*) FROM t GROUP BY s HAVING COUNT(*) > 1")
	check("SELECT s FROM t ORDER BY a")
	check("SELECT TOP 2 s FROM t ORDER BY a")
	check("SELECT s, ROW_NUMBER() OVER (ORDER BY a) FROM t")
	check("SELECT a FROM t WHERE a = 3")
	check("SELECT s, v FROM t JOIN u ON a = b")
	check("SELECT lv, rv FROM left JOIN right_t ON id = rid")
	check("SELECT id, COUNT(*) FROM left GROUP BY id")
	check("SELECT 1")
	check("SELECT n FROM series(3) WHERE n > 1")
	check("SELECT s, n FROM t CROSS APPLY series(a) x")
	pl.ParallelThreshold = 5
	p.rowCounts["t"] = 0
	p.tables["t"].Indexes = nil
	check("SELECT s, COUNT(*) FROM t GROUP BY s")
	check("SELECT TOP 2 s FROM t ORDER BY a")
	check("SELECT s FROM t ORDER BY a")
	check("SELECT lv, rv FROM left JOIN right_t ON id = rid")
	for op := range marked {
		if !seen[op] {
			t.Errorf("no plan showed a %q node", op)
		}
	}
}

// TestComputedSortKeysComputeBelowTheSort: an ORDER BY term that is not a
// column is computed by a Compute Scalar right under the sort that orders
// on it — a serial Sort or Top N Sort, each sort under a merge, each
// per-partition Top N Sort — and a column term adds no projection.
func TestComputedSortKeysComputeBelowTheSort(t *testing.T) {
	for _, dop := range []int{1, 4} {
		pl := NewPlanner(newFakeProvider(), dop)
		pl.ParallelThreshold = 5
		for _, c := range []struct{ sql, sort string }{
			{"SELECT s FROM t ORDER BY a % 3, s", "Sort "},
			{"SELECT TOP 2 s FROM t ORDER BY a % 3 DESC", "Top N Sort "},
			{"SELECT s, ROW_NUMBER() OVER (ORDER BY a % 3) FROM t", "Sort "},
		} {
			text := planQuery(t, pl, c.sql).Explain()
			if dop > 1 && !strings.Contains(text, "Parallelism") {
				t.Fatalf("%s at DOP %d: no parallel plan:\n%s", c.sql, dop, text)
			}
			lines := strings.Split(text, "\n")
			at := -1 // the lowest sort
			for i, l := range lines {
				if strings.HasPrefix(strings.TrimLeft(l, " |-"), c.sort) {
					at = i
				}
			}
			if at < 0 || !strings.Contains(lines[at+1], "Compute Scalar DEFINE:") || !strings.Contains(lines[at+1], "(a % 3)]") {
				t.Errorf("%s at DOP %d: the key is not computed right under the sort:\n%s", c.sql, dop, text)
			}
		}
		if text := planQuery(t, pl, "SELECT s FROM t ORDER BY a").Explain(); strings.Count(text, "Compute Scalar") != 1 {
			t.Errorf("a column key at DOP %d added a projection:\n%s", dop, text)
		}
	}
}

// TestPlanPartitionedJoinBelowThreshold: a join of a few rows runs the
// same vectorized operator as a large one, without an exchange (its
// inputs are not partitioned, so the probe runs inline).
func TestPlanPartitionedJoinBelowThreshold(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 4) // default threshold 2048 >> 10 rows
	node := planQuery(t, pl, "SELECT b, s FROM u JOIN t ON u.b = t.a")
	text := node.Explain()
	if !strings.Contains(text, "Hash Match (Partitioned Inner Join)") || strings.Contains(text, "Parallelism") {
		t.Errorf("expected the hash join without an exchange below the threshold:\n%s", text)
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "Hash Match") && !strings.HasSuffix(line, "vectorized") {
			t.Errorf("join not marked vectorized: %s", line)
		}
	}
	if rows := runPlan(t, node); len(rows) == 0 {
		t.Error("join returned no rows")
	}
}

// uniformIntStats hand-builds table statistics for an integer column
// uniformly distributed over [0, max): NDV = max, a 10-bucket equi-depth
// histogram, exact min/max.
func uniformIntStats(tableID uint32, table, col string, rows, max int64) *stats.TableStats {
	ts := &stats.TableStats{
		TableID: tableID, Table: table,
		RowCount: rows, AvgRowBytes: 64,
		Columns: []stats.ColumnStats{{Name: col, NDV: max, HistRows: rows}},
	}
	mn, mx := sqltypes.NewInt(0), sqltypes.NewInt(max-1)
	c := &ts.Columns[0]
	c.Min, c.Max = &mn, &mx
	const buckets = 10
	for b := int64(1); b <= buckets; b++ {
		c.Histogram = append(c.Histogram, stats.Bucket{
			Upper: sqltypes.NewInt(max*b/buckets - 1),
			Rows:  rows / buckets,
			NDV:   max / buckets,
		})
	}
	return ts
}

// TestPlanPostFilterPartitionCount: scan parallelism follows the pages a
// scan actually reads, not the post-filter output estimate. A selective
// point query over a large indexed table avoids DOP exchange workers by
// taking the index (serial); the same predicate without a usable index
// keeps the parallel scan, because it still reads every page.
func TestPlanPostFilterPartitionCount(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	pl := NewPlanner(p, 4) // default threshold 2048

	// Without statistics the default equality selectivity (0.1) leaves
	// 10k estimated index rows — costlier than the ~1.6k-page full scan,
	// so the parallel heap scan stays.
	node := planQuery(t, pl, "SELECT s FROM t WHERE a = 1")
	if !strings.Contains(node.Explain(), "Parallelism (Gather Streams)") {
		t.Fatalf("pre-stats point query should stay a parallel scan:\n%s", node.Explain())
	}

	// With NDV statistics the estimate collapses to ~2 rows: the index
	// point lookup wins and runs serial.
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	node = planQuery(t, pl, "SELECT s FROM t WHERE a = 1")
	text := node.Explain()
	if !strings.Contains(text, "Index Scan") || strings.Contains(text, "Parallelism") {
		t.Fatalf("post-stats point query should be a serial index scan:\n%s", text)
	}
	// The unfiltered scan stays parallel.
	node = planQuery(t, pl, "SELECT s FROM t")
	if !strings.Contains(node.Explain(), "Parallelism (Gather Streams)") {
		t.Fatalf("unfiltered scan lost parallelism:\n%s", node.Explain())
	}
}

// TestPlanAccessPathCostRegression is the satellite-1 regression: the
// same selective predicate picks the index on a large table but stays on
// the full scan for a tiny one, because page I/O — not output rows — is
// the cost basis.
func TestPlanAccessPathCostRegression(t *testing.T) {
	large := newFakeProvider()
	large.rowCounts["t"] = 100_000
	large.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	large.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(large, 4)
	text := planQuery(t, pl, "SELECT s FROM t WHERE a = 1").Explain()
	if !strings.Contains(text, "Index Scan") || !strings.Contains(text, "idx_a") {
		t.Fatalf("selective predicate on large table should take the index:\n%s", text)
	}

	tiny := newFakeProvider() // 10 rows
	tiny.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	tiny.tstats["t"] = uniformIntStats(1, "t", "a", 10, 10)
	pl = NewPlanner(tiny, 4)
	text = planQuery(t, pl, "SELECT s FROM t WHERE a = 1").Explain()
	if strings.Contains(text, "Index Scan") {
		t.Fatalf("tiny table should stay on the full scan:\n%s", text)
	}
	if !strings.Contains(text, "full scan") {
		t.Fatalf("losing index candidate should annotate the full scan:\n%s", text)
	}
	// The chosen plans execute to the same rows.
	if rows := runPlan(t, planQuery(t, pl, "SELECT s FROM t WHERE a = 1")); len(rows) != 1 {
		t.Fatalf("full-scan rows = %v", rows)
	}
	pl.ForcePath = "index"
	if rows := runPlan(t, planQuery(t, pl, "SELECT s FROM t WHERE a = 1")); len(rows) != 1 {
		t.Fatalf("forced index rows = %v", rows)
	}
}

// TestPlanZoneMapPruning: zone-map page statistics show up in the scan
// annotation, shrink the parallelism basis, and route the filters into
// ScanPartitionsPruned.
func TestPlanZoneMapPruning(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.pageStats = func(_ *catalog.Table, filters []storage.ZoneFilter) (int64, int64) {
		if len(filters) > 0 {
			return 100, 1600 // the range predicate prunes ieq 94% of pages
		}
		return 1600, 1600
	}
	pl := NewPlanner(p, 4)
	node := planQuery(t, pl, "SELECT s FROM t WHERE a >= 7 AND a <= 8")
	text := node.Explain()
	if !strings.Contains(text, "zonemap-pruned(100/1600 pages)") {
		t.Fatalf("zone pruning not annotated:\n%s", text)
	}
	// 100k rows * 100/1600 pages = 6250 scan basis -> parallel but narrow
	// (6250/2048 = 3 partitions, not the full DOP... still parallel).
	if !strings.Contains(text, "Parallelism (Gather Streams)") {
		t.Fatalf("pruned scan of 6k rows should stay parallel:\n%s", text)
	}
	runPlan(t, node)
	if p.prunedCalls == 0 {
		t.Fatal("zone filters never reached ScanPartitionsPruned")
	}
}

// TestPlanExplainAccessPathFlip: EXPLAIN flips from full scan to index
// scan as the predicate tightens from a wide range to a point.
func TestPlanExplainAccessPathFlip(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(p, 4)

	wide := planQuery(t, pl, "SELECT s FROM t WHERE a >= 0").Explain()
	if strings.Contains(wide, "Index Scan") || !strings.Contains(wide, "Table Scan") {
		t.Fatalf("wide range should full-scan:\n%s", wide)
	}
	point := planQuery(t, pl, "SELECT s FROM t WHERE a = 123").Explain()
	if !strings.Contains(point, "Index Scan") || !strings.Contains(point, "idx_a (123..123)") {
		t.Fatalf("point predicate should flip to the index with bounds shown:\n%s", point)
	}
	narrow := planQuery(t, pl, "SELECT s FROM t WHERE a > 100 AND a <= 140").Explain()
	if !strings.Contains(narrow, "Index Scan") || !strings.Contains(narrow, "(100..140)") {
		t.Fatalf("narrow range should flip to the index:\n%s", narrow)
	}
}

// TestPlanIndexOrderFeedsConsumers: index-provided order elides ORDER BY
// sorts, streams ROW_NUMBER, and feeds a merge join when both sides
// arrive index-ordered.
func TestPlanIndexOrderFeedsConsumers(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(p, 4)

	// ORDER BY on the index column above an index scan: no Sort node.
	node := planQuery(t, pl, "SELECT a FROM t WHERE a = 3 ORDER BY a")
	if text := node.Explain(); strings.Contains(text, "Sort") || !strings.Contains(text, "Index Scan") {
		t.Fatalf("index order should elide the sort:\n%s", text)
	}
	if rows := runPlan(t, node); len(rows) != 1 || rows[0][0].I != 3 {
		t.Fatalf("sort-elided rows = %v", rows)
	}

	// ROW_NUMBER over the index order streams without buffering.
	node = planQuery(t, pl, "SELECT a, ROW_NUMBER() OVER (ORDER BY a) FROM t WHERE a >= 7 AND a <= 8")
	if text := node.Explain(); !strings.Contains(text, "(input ordered)") {
		t.Fatalf("ROW_NUMBER should ride the index order:\n%s", text)
	}
	rows := runPlan(t, node)
	if len(rows) != 2 || rows[0][1].I != 1 || rows[1][1].I != 2 {
		t.Fatalf("windowed rows = %v", rows)
	}

	// Both sides index-ordered on the join key: merge join, no hash.
	p.rowCounts["u"] = 100_000
	p.tables["u"].Indexes = []catalog.Index{{Name: "idx_b", Columns: []int{0}}}
	p.tstats["u"] = uniformIntStats(4, "u", "b", 100_000, 50_000)
	node = planQuery(t, pl, "SELECT s, v FROM t JOIN u ON a = b WHERE a >= 1 AND a <= 3 AND b >= 1 AND b <= 3")
	text := node.Explain()
	if !strings.Contains(text, "Merge Join") || !strings.Contains(text, "interesting order") {
		t.Fatalf("index-ordered join sides should merge join:\n%s", text)
	}
	if rows := runPlan(t, node); len(rows) != 3 {
		t.Fatalf("merge join rows = %v", rows)
	}
}

// TestPlanEstimateAnnotations: EXPLAIN must carry est=N rows on scans,
// joins and aggregates so estimate quality is visible.
func TestPlanEstimateAnnotations(t *testing.T) {
	p := newFakeProvider()
	pl := NewPlanner(p, 1)
	text := planQuery(t, pl, "SELECT a FROM t").Explain()
	if !strings.Contains(text, "(est=10 rows)") {
		t.Errorf("scan estimate missing:\n%s", text)
	}
	text = planQuery(t, pl, "SELECT b, s FROM u JOIN t ON u.b = t.a").Explain()
	if !strings.Contains(text, "est=") {
		t.Errorf("join estimate missing:\n%s", text)
	}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 10, 10)
	text = planQuery(t, pl, "SELECT a, COUNT(*) FROM t GROUP BY a").Explain()
	if !strings.Contains(text, "Hash Match (Aggregate)") || !strings.Contains(text, "(est=10 rows)") {
		t.Errorf("aggregate group estimate missing:\n%s", text)
	}
}

// TestPlanStatsBuildSideFlip: the same skewed join must flip its build
// side once statistics reveal the filtered side is tiny.
func TestPlanStatsBuildSideFlip(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 10_000
	p.rowCounts["u"] = 3_000
	pl := NewPlanner(p, 4)
	sql := "SELECT b, s FROM u JOIN t ON u.b = t.a WHERE t.a < 5"

	// Pre-stats: default range selectivity (1/3) keeps t's estimate at
	// ~3333 > u's 3000, so the build side is u (the left input).
	text := planQuery(t, pl, sql).Explain()
	if !strings.Contains(text, "Hash Match (Partitioned Inner Join)") {
		t.Fatalf("expected partitioned join:\n%s", text)
	}
	if !strings.Contains(text, "BUILD:left") {
		t.Fatalf("pre-stats build side should be left (u):\n%s", text)
	}

	// Post-ANALYZE: the histogram knows a < 5 keeps ~5 of 10000 rows, so
	// the filtered t becomes the build side (the right input).
	p.tstats["t"] = uniformIntStats(1, "t", "a", 10_000, 10_000)
	node := planQuery(t, pl, sql)
	text = node.Explain()
	if !strings.Contains(text, "BUILD:right") {
		t.Fatalf("post-stats build side should flip to right (filtered t):\n%s", text)
	}
	// The flipped plan still executes correctly over the backing rows.
	rows := runPlan(t, node)
	if len(rows) != 4 { // u.b in 0..3 joins t.a in 0..4
		t.Errorf("flipped join rows = %v", rows)
	}
}

// TestPlanJoinBloomDecision: the Bloom filter stays on by default and is
// dropped when statistics say nearly every probe row matches.
func TestPlanJoinBloomDecision(t *testing.T) {
	sql := "SELECT b, s FROM u JOIN t ON u.b = t.a"
	p := newFakeProvider()
	p.rowCounts["t"] = 10_000
	p.rowCounts["u"] = 3_000
	pl := NewPlanner(p, 4)
	if text := planQuery(t, pl, sql).Explain(); !strings.Contains(text, "BLOOM") {
		t.Fatalf("bloom should default on without stats:\n%s", text)
	}

	// Build side u has 3000 distinct keys, probe t has 10000: only ~30%
	// of probe rows can match — bloom stays on.
	p.tstats["t"] = uniformIntStats(1, "t", "a", 10_000, 10_000)
	p.tstats["u"] = uniformIntStats(4, "u", "b", 3_000, 3_000)
	if text := planQuery(t, pl, sql).Explain(); !strings.Contains(text, "BLOOM") {
		t.Fatalf("selective bloom should stay on:\n%s", text)
	}

	// Probe keys drawn from the same tiny domain as the build keys: the
	// filter would pass ~every row, so the planner drops it.
	p.tstats["t"] = uniformIntStats(1, "t", "a", 10_000, 2_000)
	p.tstats["u"] = uniformIntStats(4, "u", "b", 3_000, 2_000)
	if text := planQuery(t, pl, sql).Explain(); strings.Contains(text, "BLOOM") {
		t.Fatalf("bloom should auto-disable at ~1 selectivity:\n%s", text)
	}
}

// TestPlanJoinPrePartition: when the estimated build footprint exceeds
// the join budget, the plan pre-spills partitions (and widens the
// fan-out) instead of relying on mid-build eviction.
func TestPlanJoinPrePartition(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 200_000
	p.rowCounts["u"] = 100_000
	// u is the build side: 100k rows * 64 B/row = 6.4 MB >> 256 KB budget.
	p.tstats["u"] = uniformIntStats(4, "u", "b", 100_000, 50_000)
	pl := NewPlanner(p, 4)
	pl.JoinMemoryBudget = 256 << 10
	text := planQuery(t, pl, "SELECT b, s FROM u JOIN t ON u.b = t.a").Explain()
	if !strings.Contains(text, "PRESPILL:") {
		t.Fatalf("expected spill pre-partitioning in plan:\n%s", text)
	}
	// 6.4 MB / (128 KB per partition) ≈ 50 -> widened to the next power
	// of two above the default 32.
	if !strings.Contains(text, "PARTITIONS:64") {
		t.Fatalf("expected widened fan-out for the over-budget build:\n%s", text)
	}
}

// TestPlanInExpression: IN plans as an OR of equalities, executes, and
// narrows the estimate via the column's NDV.
func TestPlanInExpression(t *testing.T) {
	p := newFakeProvider()
	pl := NewPlanner(p, 1)
	node := planQuery(t, pl, "SELECT a FROM t WHERE a IN (1, 3, 7)")
	rows := runPlan(t, node)
	if len(rows) != 3 {
		t.Fatalf("IN rows = %v", rows)
	}
	node = planQuery(t, pl, "SELECT a FROM t WHERE a NOT IN (1, 3)")
	if rows := runPlan(t, node); len(rows) != 8 {
		t.Fatalf("NOT IN rows = %v", rows)
	}

	// Estimate: 100k rows, NDV 50k, 3-value IN -> ~6 rows.
	p.rowCounts["t"] = 100_000
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	node = planQuery(t, pl, "SELECT a FROM t WHERE a IN (1, 3, 7)")
	if text := node.Explain(); !strings.Contains(text, "(est=6 rows)") {
		t.Errorf("IN estimate should use NDV (want ~6 rows):\n%s", text)
	}
}

// TestPlanMergeJoinKeepsPushedPredicates is the regression test for a
// dropped-WHERE bug, from when the clustered merge join planned its scans
// a second time: the merge join runs over the scans planFrom built, with
// the single-table conjuncts they consumed still filtering them.
func TestPlanMergeJoinKeepsPushedPredicates(t *testing.T) {
	pl := NewPlanner(newFakeProvider(), 1)
	node := planQuery(t, pl, "SELECT lv, rv FROM left JOIN right_t ON id = rid WHERE id = 4")
	text := node.Explain()
	if !strings.Contains(text, "Merge Join") {
		t.Fatalf("expected merge join:\n%s", text)
	}
	if !strings.Contains(text, "WHERE:") {
		t.Fatalf("pushed predicate missing from merge-join scans:\n%s", text)
	}
	rows := runPlan(t, node)
	if len(rows) != 1 || rows[0][0].S != "L4" || rows[0][1].S != "R4" {
		t.Fatalf("WHERE dropped by merge join: rows = %v", rows)
	}
	// Predicates on both sides, plus one the join must keep as residual.
	node = planQuery(t, pl, "SELECT lv, rv FROM left JOIN right_t ON id = rid WHERE id >= 2 AND rid <= 6 AND lv <> rv")
	rows = runPlan(t, node)
	if len(rows) != 3 { // ids 2, 4, 6
		t.Fatalf("two-sided pushdown rows = %v", rows)
	}
}

// TestPlanNotOfUnknownPredicate: NOT over a predicate the estimator
// cannot price must stay unknown (selectivity 1.0), not invert to zero
// and collapse the estimate to one row.
func TestPlanNotOfUnknownPredicate(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	pl := NewPlanner(p, 4)
	for _, sql := range []string{
		"SELECT s FROM t WHERE NOT (a = a)",          // column-to-column: unknown
		"SELECT s FROM t WHERE NOT (a = a) OR a = a", // OR with unknown branch
	} {
		node := planQuery(t, pl, sql)
		text := node.Explain()
		if !strings.Contains(text, "(est=100000 rows)") {
			t.Errorf("%s: unknown predicate changed the estimate:\n%s", sql, text)
		}
		if !strings.Contains(text, "Parallelism (Gather Streams)") {
			t.Errorf("%s: unknown predicate killed parallelism:\n%s", sql, text)
		}
	}
	// A NOT over an estimable predicate still inverts.
	node := planQuery(t, pl, "SELECT s FROM t WHERE NOT a = 1")
	if text := node.Explain(); !strings.Contains(text, "(est=90000 rows)") {
		t.Errorf("NOT of estimable predicate not inverted:\n%s", text)
	}
}

// TestPlanNotOfPartiallyUnknownAnd: an AND with one unestimable branch
// is only an upper bound, so NOT over it must stay unknown rather than
// inverting to ~zero selectivity.
func TestPlanNotOfPartiallyUnknownAnd(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(p, 4)
	node := planQuery(t, pl, "SELECT s FROM t WHERE NOT (a >= 0 AND a = a)")
	text := node.Explain()
	if !strings.Contains(text, "(est=100000 rows)") || strings.Contains(text, "est=1 rows") {
		t.Errorf("NOT over partially-unknown AND collapsed the estimate:\n%s", text)
	}
}

// scanEst plans sql and returns the estimate on its base-table scan line.
func scanEst(t *testing.T, pl *Planner, sql string) int64 {
	t.Helper()
	text := planQuery(t, pl, sql).Explain()
	for _, l := range strings.Split(text, "\n") {
		if i := strings.Index(l, "Scan [t]"); i >= 0 {
			var est int64
			if j := strings.LastIndex(l, "(est="); j >= 0 {
				fmt.Sscanf(l[j:], "(est=%d rows)", &est)
				return est
			}
		}
	}
	t.Fatalf("no scan estimate:\n%s", text)
	return 0
}

// TestPlanWindowEstimates: a column's sargable conjuncts are one window,
// priced once: two bounds are an interval, not two independent events;
// two bounds on one side are the tighter; an equality inside a range is
// the equality; contradictory bounds keep one row; other conjuncts still
// multiply in.
func TestPlanWindowEstimates(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	pl := NewPlanner(p, 4)
	est := func(sql string) int64 { return scanEst(t, pl, "SELECT s FROM t WHERE "+sql) }

	if got := est("a >= 100 AND a <= 199"); got != 200 {
		t.Errorf("a 100-value window: est=%d, want 200 (2 rows a value)", got)
	}
	if got := est("a >= 100 AND a < 200"); got != 200 {
		t.Errorf("[100, 200): est=%d, want 200", got)
	}
	if got, want := est("a > 5 AND a > 7"), est("a > 7"); got != want {
		t.Errorf("a > 5 AND a > 7: est=%d, a > 7 est=%d", got, want)
	}
	if got, want := est("5 < a AND a <= 9000 AND a <= 300"), est("a > 5 AND a <= 300"); got != want {
		t.Errorf("tightened window est=%d, want %d", got, want)
	}
	if got, want := est("a = 5 AND a > 3"), est("a = 5"); got != want {
		t.Errorf("a = 5 AND a > 3: est=%d, a = 5 est=%d", got, want)
	}
	for _, empty := range []string{"a = 5 AND a > 7", "a > 7 AND a < 3", "a > 7 AND a <= 7"} {
		if got := est(empty); got != 1 {
			t.Errorf("%s: est=%d, want 1 (no row passes, one kept)", empty, got)
		}
	}
	// An unestimable conjunct leaves the window's estimate alone; an
	// estimable one on another column multiplies in.
	if got := est("a >= 100 AND a <= 199 AND s = s"); got != 200 {
		t.Errorf("window plus unknown conjunct: est=%d, want 200", got)
	}
	if got := est("a >= 100 AND a <= 199 AND s LIKE 'x%'"); got != 50 {
		t.Errorf("window plus LIKE: est=%d, want 50", got)
	}
	// Without statistics the bounds still form one window.
	delete(p.tstats, "t")
	if got, want := est("a > 7 AND a < 3"), int64(1); got != want {
		t.Errorf("contradictory bounds without stats: est=%d, want %d", got, want)
	}
	if got, want := est("a >= 100 AND a <= 199"), int64(100_000/9); got != want {
		t.Errorf("window without stats: est=%d, want %d", got, want)
	}
}

// TestPlanIndexCostModel: an index scan is priced by the distinct heap
// pages its fetches touch plus a cost a fetch, the heap scan by its pages
// plus a cost a filtered row: a narrow window on a table whose zone maps
// prune nothing takes the index, a wide one the scan, and the scan of a
// table the zone maps prune to a few pages beats an index that would
// fetch as many rows as those pages hold.
func TestPlanIndexCostModel(t *testing.T) {
	if got := pagesTouched(85, 33); got < 29 || got > 31 {
		t.Errorf("85 fetches over 33 pages touch %.1f pages, want ~30", got)
	}
	if got := pagesTouched(3, 1000); got > 3 {
		t.Errorf("3 fetches touch %.2f pages, more than 3", got)
	}
	if got := pagesTouched(5000, 32); got > 32 {
		t.Errorf("5000 fetches touch %.2f pages, more than the 32 there are", got)
	}
	// An alignment heap: 10 000 rows on 32 pages, positions scattered.
	if idx, heap := indexScanCost(85, 10_000, 30, 32), heapScanCost(10_000, 30, 32); idx >= heap {
		t.Errorf("85-row window: index %.1f >= heap %.1f", idx, heap)
	}
	if idx, heap := indexScanCost(3000, 10_000, 32, 32), heapScanCost(10_000, 32, 32); idx <= heap {
		t.Errorf("3000-row window: index %.1f <= heap %.1f", idx, heap)
	}
	// Zone maps keep 2 of 32 pages: the scan reads ~600 rows.
	if idx, heap := indexScanCost(300, 10_000, 2, 32), heapScanCost(10_000, 2, 32); idx <= heap {
		t.Errorf("pruned to 2 pages: index %.1f <= heap %.1f", idx, heap)
	}
}

// planBenchProvider is the fake provider over a 10 000-row "t" with an
// index on a, analyzed by the Collector into a 64-bucket histogram plus
// MCVs: positions uniform over [0, 25 000), a few of them heavy.
func planBenchProvider() *fakeProvider {
	p := newFakeProvider()
	p.rowCounts["t"] = 10_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	c := stats.NewCollector([]string{"a", "s"}, 0, 1)
	for i := int64(0); i < 10_000; i++ {
		a := i * 7919 % 25_000
		if i%50 == 0 {
			a = i % 8 // eight heavy positions: the MCVs
		}
		c.Add(sqltypes.Row{sqltypes.NewInt(a), sqltypes.NewString("s")})
	}
	p.tstats["t"] = c.Finalize(1, "t", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs)
	p.pageStats = func(_ *catalog.Table, filters []storage.ZoneFilter) (int64, int64) { return 30, 32 }
	return p
}

func benchPlan(b *testing.B, sql string, want string) {
	pl := NewPlanner(planBenchProvider(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			b.Fatal(err)
		}
		node, err := pl.PlanSelect(stmt.(*sqlparse.Select))
		if err != nil {
			b.Fatal(err)
		}
		if text := node.Explain(); i == 0 && !strings.Contains(text, want) {
			b.Fatalf("%s plans\n%s", sql, text)
		}
	}
}

// BenchmarkPlanPointLookup times parsing, planning and rendering the
// EXPLAIN of an equality on the indexed column.
func BenchmarkPlanPointLookup(b *testing.B) {
	benchPlan(b, "SELECT COUNT(*) FROM t WHERE a = 12345", "Index Scan [t] idx_a (12345..12345)")
}

// BenchmarkPlanRange times the same for a 200-wide window.
func BenchmarkPlanRange(b *testing.B) {
	benchPlan(b, "SELECT COUNT(*) FROM t WHERE a >= 12000 AND a <= 12200", "Index Scan [t] idx_a (12000..12200)")
}
