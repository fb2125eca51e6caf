package exec

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/vec"
)

// randomSortInput builds rows of (key INT or NULL, tag STRING, seq INT)
// where seq records input position so tests can check stability.
func randomSortInput(rng *rand.Rand, n, keySpace int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		key := sqltypes.NewInt(int64(rng.Intn(keySpace)))
		if rng.Intn(20) == 0 {
			key = sqltypes.Null
		}
		rows[i] = sqltypes.Row{key, str(fmt.Sprintf("tag-%06d", rng.Intn(1000))), i64(int64(i))}
	}
	return rows
}

// splitSpans cuts rows into n contiguous spans — the shape of heap
// page-range partitions, whose order the MergeSorted child-index
// tie-break relies on (splitRows deals round-robin, which models a join
// exchange, not a partitioned scan).
func splitSpans(rows []sqltypes.Row, n int) []Operator {
	ops := make([]Operator, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := len(rows)*i/n, len(rows)*(i+1)/n
		ops = append(ops, NewValues(rows[lo:hi]))
	}
	return ops
}

func runStats(t *testing.T, op Operator, stats *obs.Counters) []sqltypes.Row {
	t.Helper()
	rows, err := Run(&Context{DOP: 4, Sink: obs.Sink{Engine: stats}}, op)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestExternalSortSpillEquivalence: a sort whose input far exceeds the
// budget must spill runs and produce the exact sequence (including
// equal-key order) of the in-memory sort.
func TestExternalSortSpillEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	input := randomSortInput(rng, 5000, 40)
	keys := []SortKey{{Col: 0}, {Col: 1, Desc: true}}

	inMem := runStats(t, &Sort{Keys: keys, Child: NewValues(input)}, new(obs.Counters))

	stats := new(obs.Counters)
	spilled := runStats(t, &Sort{
		Keys: keys, Child: NewValues(input),
		MemoryBudget: 16 << 10, Spill: newTestSpillStore(t),
	}, stats)
	if stats.Get(obs.SortRuns) == 0 {
		t.Fatal("16 KB budget over ~5000 rows did not spill any runs")
	}
	if stats.Get(obs.SortSpilledRows) == 0 || stats.Get(obs.SortSpilledBytes) == 0 {
		t.Fatalf("spill counters did not advance: %+v", stats.Snapshot())
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatalf("spilled sort differs from in-memory (%d vs %d rows)", len(spilled), len(inMem))
	}
	// Stability: among equal (key, tag) pairs, input sequence must ascend.
	for i := 1; i < len(spilled); i++ {
		if sqltypes.Compare(spilled[i-1][0], spilled[i][0]) == 0 &&
			sqltypes.Compare(spilled[i-1][1], spilled[i][1]) == 0 &&
			spilled[i-1][2].I >= spilled[i][2].I {
			t.Fatalf("row %d: equal keys out of input order (%v then %v)", i, spilled[i-1], spilled[i])
		}
	}
}

// TestMergeSortedParallelEquivalence: per-partition sorts merged by
// MergeSorted must equal the serial sort, including tie order (children
// are contiguous input spans, ties break by child index).
func TestMergeSortedParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	input := randomSortInput(rng, 3000, 25)
	keys := []SortKey{{Col: 0}}
	want := runStats(t, &Sort{Keys: keys, Child: NewValues(input)}, new(obs.Counters))

	for _, budget := range []int64{0, 8 << 10} {
		chains := splitSpans(input, 4)
		sorts := make([]*Sort, len(chains))
		var spill SpillStore
		if budget > 0 {
			spill = newTestSpillStore(t)
		}
		for i, ch := range chains {
			sorts[i] = &Sort{Keys: keys, Child: ch, MemoryBudget: budget, Spill: spill}
		}
		stats := new(obs.Counters)
		got := runStats(t, &MergeSorted{Keys: keys, Children: sorts}, stats)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("budget %d: parallel merge sort differs from serial (%d vs %d rows)",
				budget, len(got), len(want))
		}
		if budget > 0 && stats.Get(obs.SortRuns) == 0 {
			t.Fatalf("budget %d: expected spilled runs", budget)
		}
	}
}

// TestExternalSortEmptyAndSingleRun covers the edge shapes: empty input,
// and an input that spills everything leaving an empty in-memory tail.
func TestExternalSortEmptyAndSingleRun(t *testing.T) {
	keys := []SortKey{{Col: 0}}
	rows := runStats(t, &Sort{Keys: keys, Child: NewValues(nil)}, new(obs.Counters))
	if len(rows) != 0 {
		t.Fatalf("empty input sorted to %d rows", len(rows))
	}
	// One run exactly: budget of 1 byte spills after every row.
	input := rowsOf(
		[]sqltypes.Value{i64(3)}, []sqltypes.Value{i64(1)}, []sqltypes.Value{i64(2)},
	)
	stats := new(obs.Counters)
	rows = runStats(t, &Sort{
		Keys: keys, Child: NewValues(input),
		MemoryBudget: 1, Spill: newTestSpillStore(t),
	}, stats)
	want := []int64{1, 2, 3}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, w := range want {
		if rows[i][0].I != w {
			t.Fatalf("rows = %v", rows)
		}
	}
	if stats.Get(obs.SortRuns) == 0 {
		t.Fatal("1-byte budget did not spill")
	}
}

// TestSortBudgetWithoutStore: exceeding the budget with no spill store
// must fail cleanly rather than buffer unboundedly.
func TestSortBudgetWithoutStore(t *testing.T) {
	input := randomSortInput(rand.New(rand.NewSource(3)), 500, 10)
	s := &Sort{Keys: []SortKey{{Col: 0}}, Child: NewValues(input), MemoryBudget: 128}
	if err := s.Open(&Context{DOP: 1}); err == nil {
		s.Close()
		t.Fatal("expected budget-without-store error")
	}
	s.Close()
}

// TestRowNumberSpillEquivalence: ROW_NUMBER over a spilled sort must
// number the same rows in the same order as over the in-memory sort, and
// over a merge of per-partition sorts too.
func TestRowNumberSpillEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	input := randomSortInput(rng, 2000, 30)
	keys := []SortKey{{Col: 0, Desc: true}}

	inMem := runStats(t, &RowNumber{Child: &Sort{Keys: keys, Child: NewValues(input)}}, new(obs.Counters))
	stats := new(obs.Counters)
	spilled := runStats(t, &RowNumber{Child: &Sort{
		Keys: keys, Child: NewValues(input),
		MemoryBudget: 8 << 10, Spill: newTestSpillStore(t),
	}}, stats)
	if stats.Get(obs.SortRuns) == 0 {
		t.Fatal("row-number sort did not spill")
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatal("spilled ROW_NUMBER differs from in-memory")
	}

	chains := splitSpans(input, 3)
	sorts := make([]*Sort, len(chains))
	for i, ch := range chains {
		sorts[i] = &Sort{Keys: keys, Child: ch}
	}
	streamed := runStats(t, &RowNumber{Child: &MergeSorted{Keys: keys, Children: sorts}}, new(obs.Counters))
	if !reflect.DeepEqual(inMem, streamed) {
		t.Fatal("streaming ROW_NUMBER over MergeSorted differs from in-memory")
	}
}

// failOnOpen errors if the tree ever opens it.
type failOnOpen struct{}

func (f *failOnOpen) Open(*Context) error { return fmt.Errorf("must not open") }
func (f *failOnOpen) NextBatch() (*vec.Batch, error) {
	return nil, fmt.Errorf("must not pull")
}
func (f *failOnOpen) PruneColumns([]bool) {}
func (f *failOnOpen) Close() error        { return nil }

// TestTopNZeroShortCircuits: TOP 0 can produce no rows, so it must not
// open (let alone drain) its child.
func TestTopNZeroShortCircuits(t *testing.T) {
	op := &TopN{N: 0, Keys: []SortKey{{Col: 0}}, Child: &failOnOpen{}}
	rows, err := Run(&Context{DOP: 1}, op)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("TOP 0 returned %d rows", len(rows))
	}
}

// TestTopNStillTrims guards the lazy-trim bound: far more input than N
// must never buffer more than 2N rows.
func TestTopNStillTrims(t *testing.T) {
	var input []sqltypes.Row
	for i := 0; i < 1000; i++ {
		input = append(input, sqltypes.Row{i64(int64(1000 - i))})
	}
	op := &TopN{N: 5, Keys: []SortKey{{Col: 0}}, Child: NewValues(input)}
	if err := op.Open(&Context{DOP: 1}); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if len(op.kept.rows) != 5 {
		t.Fatalf("kept %d rows, want 5", len(op.kept.rows))
	}
	row, ok, err := op.rest.Next()
	if err != nil || !ok || row[0].I != 1 {
		t.Fatalf("first = %v ok=%v err=%v", row, ok, err)
	}
}

// failAfter yields n rows then errors — exercises the Open error path
// after runs have spilled.
type failAfter struct {
	n    int
	seen int
}

func (f *failAfter) Next() (sqltypes.Row, bool, error) {
	if f.seen >= f.n {
		return nil, false, fmt.Errorf("synthetic mid-drain failure")
	}
	f.seen++
	return sqltypes.Row{i64(int64(f.n - f.seen))}, true, nil
}
func (f *failAfter) Close() error { return nil }

// TestSortOpenErrorReleasesRuns: a child error after runs spilled must
// release the temp files even though callers never Close a failed Open.
func TestSortOpenErrorReleasesRuns(t *testing.T) {
	dir := t.TempDir()
	store := storageSpillStore{storage.NewSpillManager(dir, nil)}
	s := &Sort{
		Keys:  []SortKey{{Col: 0}},
		Child: &Source{Factory: func(*Context) (RowIterator, error) { return &failAfter{n: 500}, nil }},
		// ~1 KB budget: plenty of runs spill before the failure.
		MemoryBudget: 1 << 10,
		Spill:        store,
	}
	err := s.Open(&Context{DOP: 1})
	if err == nil {
		s.Close()
		t.Fatal("expected mid-drain failure")
	}
	entries, derr := os.ReadDir(dir)
	if derr != nil {
		t.Fatal(derr)
	}
	if len(entries) != 0 {
		t.Fatalf("%d spill files leaked after failed Open", len(entries))
	}
}
