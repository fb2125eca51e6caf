package plan

import (
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

type sliceIter struct {
	rows []sqltypes.Row
	i    int
}

func (s *sliceIter) Next() (sqltypes.Row, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	s.i++
	return s.rows[s.i-1], true, nil
}

func (s *sliceIter) Close() error { return nil }

func intRows(n int) []sqltypes.Row {
	out := make([]sqltypes.Row, n)
	for i := range out {
		out[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
	}
	return out
}

// slowClose is an operator whose Close takes a while, as an exchange
// draining its producers does.
type slowClose struct{ exec.Operator }

func (s slowClose) Close() error {
	time.Sleep(2 * time.Millisecond)
	return s.Operator.Close()
}

// TestInstrumentWalk: the walk gives every buildable node a fresh
// profile, the one wrapper counts the operator's batches and their
// selected rows into it and, timed, the wall time of Close as well as of
// Open and NextBatch; display-only nodes (no Build, no OwnProf) stay
// profile-less.
func TestInstrumentWalk(t *testing.T) {
	display := &Node{Op: "Partial Thing", Est: 10}
	root := &Node{
		Op: "Scan", Est: 5, Children: []*Node{display},
		Build: func() (exec.Operator, error) {
			return slowClose{&exec.Source{Factory: func(*exec.Context) (exec.RowIterator, error) {
				return &sliceIter{rows: intRows(40)}, nil
			}}}, nil
		},
	}
	root.Instrument(false)
	if root.Prof == nil {
		t.Fatal("buildable node got no profile")
	}
	if root.Prof.Timed {
		t.Fatal("untimed instrumentation flagged Timed")
	}
	if display.Prof != nil {
		t.Fatal("display-only node got a profile")
	}
	op, err := root.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := op.(*exec.Instrument); !ok {
		t.Fatalf("built operator is %T, want instrumented", op)
	}
	rows, err := exec.Run(&exec.Context{DOP: 1}, op)
	if err != nil {
		t.Fatal(err)
	}
	if got := root.Prof.Rows.Load(); got != int64(len(rows)) || got != 40 || root.Prof.Batches.Load() != 1 {
		t.Fatalf("profile = %d rows in %d batches, want 40 in 1", got, root.Prof.Batches.Load())
	}
	if root.Prof.WallNS.Load() != 0 {
		t.Fatal("untimed instrumentation read the clock")
	}
	root.Instrument(true)
	if op, err = root.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := exec.Run(&exec.Context{DOP: 1}, op); err != nil {
		t.Fatal(err)
	}
	if wall := time.Duration(root.Prof.WallNS.Load()); wall < 2*time.Millisecond {
		t.Fatalf("timed profile holds %v: the 2ms Close is attributed to nobody", wall)
	}

	// OwnProf forces a profile even without Build (planner closures wrap
	// partition chains against such nodes themselves).
	own := &Node{Op: "Merge Join", OwnProf: true}
	own.Instrument(true)
	if own.Prof == nil || !own.Prof.Timed {
		t.Fatalf("OwnProf node profile = %+v", own.Prof)
	}
}

// TestExplainAnalyzeRender: actual counts render with ratios on every
// profiled node, a display-only node prints its estimate alone, owners
// print detail lines, and self time subtracts child profiles.
func TestExplainAnalyzeRender(t *testing.T) {
	child := &Node{Op: "Table Scan", Detail: "on reads", Est: 100, OwnProf: true}
	mid := &Node{Op: "Gather Streams", Est: 100, Children: []*Node{child}} // display-only
	root := &Node{Op: "Sort", Est: 10, OwnProf: true, Children: []*Node{mid}}
	root.Instrument(true)

	child.Prof.AddRows(400)
	child.Prof.WallNS.Add(int64(30 * time.Millisecond))
	scan := obs.Sink{Prof: child.Prof}
	scan.Add(obs.PoolHits, 7)
	scan.Add(obs.PoolMisses, 3)
	scan.Add(obs.ScanZoneConsidered, 16)
	scan.Add(obs.ScanZoneSkippedPages, 6)
	root.Prof.AddRows(10)
	root.Prof.WallNS.Add(int64(50 * time.Millisecond))
	sort := obs.Sink{Prof: root.Prof}
	sort.Add(obs.SortSpilledBytes, 2048)
	sort.Add(obs.SortRuns, 2)
	sort.Add(obs.SortSpilledRows, 400)

	text := root.ExplainAnalyze(60*time.Millisecond, 10)
	if !strings.HasPrefix(text, "EXPLAIN ANALYZE (total 60.0ms, 10 rows returned)") {
		t.Fatalf("header:\n%s", text)
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var sortLine, gatherLine, scanLine string
	for _, l := range lines {
		switch {
		case strings.Contains(l, "Sort"):
			sortLine = l
		case strings.Contains(l, "Gather Streams"):
			gatherLine = l
		case strings.Contains(l, "Table Scan"):
			scanLine = l
		}
	}
	if !strings.Contains(sortLine, "(est=10 rows, actual=10 rows, off by 1.0x)") {
		t.Errorf("sort line: %q", sortLine)
	}
	// Self time: 50ms cumulative minus the child profile's 30ms.
	if !strings.Contains(sortLine, "time=50.0ms (self 20.0ms)") {
		t.Errorf("sort self time: %q", sortLine)
	}
	// The gather counts nothing of its own: it prints its estimate, as
	// EXPLAIN does, and no count, timing or detail borrowed from another
	// node.
	if !strings.Contains(gatherLine, "|--Gather Streams (est=100 rows)") || strings.Contains(gatherLine, "actual=") || strings.Contains(gatherLine, "time=") {
		t.Errorf("gather line: %q", gatherLine)
	}
	if !strings.Contains(scanLine, "on reads") || !strings.Contains(scanLine, "actual=400") {
		t.Errorf("scan line: %q", scanLine)
	}
	if !strings.Contains(text, "spill: 2.0 KB in 2 runs (400 rows)") {
		t.Errorf("spill detail:\n%s", text)
	}
	if !strings.Contains(text, "pool: 7 hits, 3 misses") {
		t.Errorf("pool detail:\n%s", text)
	}
	if !strings.Contains(text, "zone: 6/16 pages skipped") {
		t.Errorf("zone detail:\n%s", text)
	}
}

func TestEstRatio(t *testing.T) {
	cases := []struct {
		est, actual int64
		want        string
	}{
		{10, 10, "1.0x"},
		{10, 40, "4.0x under"},
		{40, 10, "4.0x over"},
		{0, 5, "5.0x under"}, // zero estimate clamps, stays finite
		{5, 0, "5.0x over"},
		{0, 0, "1.0x"},
	}
	for _, c := range cases {
		if got := estRatio(c.est, c.actual); got != c.want {
			t.Errorf("estRatio(%d, %d) = %q, want %q", c.est, c.actual, got, c.want)
		}
	}
}

func TestSpillBytesSum(t *testing.T) {
	a := &Node{OwnProf: true}
	b := &Node{OwnProf: true}
	root := &Node{OwnProf: true, Children: []*Node{a, b}}
	root.Instrument(false)
	obs.Sink{Prof: a.Prof}.Add(obs.JoinSpilledBytes, 100)
	obs.Sink{Prof: b.Prof}.Add(obs.AggSpilledBytes, 200)
	if got := root.SpillBytes(); got != 300 {
		t.Fatalf("SpillBytes = %d, want 300", got)
	}
	var nilNode *Node
	if nilNode.SpillBytes() != 0 {
		t.Fatal("nil node spill")
	}
}

// TestInstrumentOpIdempotent: wrapping for the same profile is the
// identity (partition chains are wrapped inside parts closures AND by
// the walk's Build replacement), while a different profile stacks.
func TestInstrumentOpIdempotent(t *testing.T) {
	p1 := &obs.OpProfile{}
	p2 := &obs.OpProfile{}
	base := &exec.Source{Factory: func(*exec.Context) (exec.RowIterator, error) {
		return &sliceIter{}, nil
	}}
	w1 := exec.InstrumentOp(base, p1)
	if exec.InstrumentOp(w1, p1) != w1 {
		t.Fatal("re-wrapping for the same profile must be identity")
	}
	if exec.InstrumentOp(w1, p2) == w1 {
		t.Fatal("a different profile must wrap again")
	}
}

// analyzeLines plans, instruments and runs sql, and returns its EXPLAIN
// ANALYZE lines with the timings cut off.
func analyzeLines(t *testing.T, pl *Planner, sql string) []string {
	t.Helper()
	node := planQuery(t, pl, sql)
	node.Instrument(true)
	rows := runPlan(t, node)
	var out []string
	for _, l := range strings.Split(strings.TrimRight(node.ExplainAnalyze(0, int64(len(rows))), "\n"), "\n")[1:] {
		if i := strings.Index(l, " time="); i >= 0 {
			l = l[:i]
		}
		out = append(out, l)
	}
	return out
}

// TestExplainAnalyzeParallelTopN pins the parallel TOP n plan: the final
// Top N Sort and the scan count their own rows; the exchange and the
// per-partition Top N Sort run inside the final node's operator, so they
// print an estimate and no count.
func TestExplainAnalyzeParallelTopN(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 10_000
	got := analyzeLines(t, NewPlanner(p, 4), "SELECT TOP 5 a, s FROM t ORDER BY a DESC")
	want := []string{
		"|--Compute Scalar DEFINE:[a, s] (est=5 rows, actual=5 rows, off by 1.0x) batches=1 vectorized",
		"   |--Top N Sort TOP 5 ORDER BY:[a DESC] (merge partials) (est=5 rows, actual=5 rows, off by 1.0x) batches=1",
		"      |--Parallelism (Gather Streams) DOP 4 vectorized",
		"         |--Top N Sort (per-partition) TOP 5 ORDER BY:[a DESC] (est=5 rows)",
		"            |--Table Scan [t] (est=10000 rows, actual=10 rows, off by 1000.0x over) batches=4 vectorized",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestExplainAnalyzeIndexScanCounts: a window on an indexed column plans
// an Index Scan whose line carries its own count — the line the
// benchmark's range q-error is read from.
func TestExplainAnalyzeIndexScanCounts(t *testing.T) {
	p := newFakeProvider()
	p.rowCounts["t"] = 100_000
	p.tables["t"].Indexes = []catalog.Index{{Name: "idx_a", Columns: []int{0}}}
	p.tstats["t"] = uniformIntStats(1, "t", "a", 100_000, 50_000)
	got := analyzeLines(t, NewPlanner(p, 4), "SELECT COUNT(*) FROM t WHERE a >= 3 AND a <= 6")
	want := "|--Index Scan [t] idx_a (3..6) WHERE:(((a >= 3) AND (a <= 6))) (est=8 rows, actual=4 rows, off by 2.0x over) batches=1 vectorized"
	if last := strings.TrimSpace(got[len(got)-1]); last != want {
		t.Errorf("scan line\n%s\nwant\n%s", last, want)
	}
}
