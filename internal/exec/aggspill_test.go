package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// randomAggInput builds rows of (group INT or NULL, val INT, pad STRING)
// with heavy duplication inside keySpace.
func randomAggInput(rng *rand.Rand, n, keySpace int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		g := sqltypes.NewInt(int64(rng.Intn(keySpace)))
		if rng.Intn(25) == 0 {
			g = sqltypes.Null
		}
		rows[i] = sqltypes.Row{g, i64(int64(rng.Intn(1000))), str(fmt.Sprintf("pad-%04d", i%97))}
	}
	return rows
}

func testAggSpecs(t *testing.T) []AggSpec {
	t.Helper()
	specs := []AggSpec{
		{Name: "COUNT", Factory: BuiltinAggregate("count")},
		{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(1)}},
		{Name: "MIN", Factory: BuiltinAggregate("min"), Args: []expr.Expr{col(2)}},
		{Name: "AVG", Factory: BuiltinAggregate("avg"), Args: []expr.Expr{col(1)}},
	}
	return specs
}

// TestSpillableAggregateMatchesHashAggregate: the new operator must
// reproduce HashAggregate exactly — in memory, under a forced-spill
// budget, and with parallel partial inputs — including NULL group keys.
func TestSpillableAggregateMatchesHashAggregate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	input := randomAggInput(rng, 6000, 800)
	groupBy := []expr.Expr{col(0)}

	want := canonRows(run(t, &HashAggregate{GroupBy: groupBy, Aggs: testAggSpecs(t), Child: NewValues(input)}))

	cases := []struct {
		name      string
		budget    int64
		chains    int
		wantSpill bool
	}{
		{"serial in-memory", 0, 0, false},
		{"serial forced spill", 8 << 10, 0, true},
		{"parallel in-memory", 0, 4, false},
		{"parallel forced spill", 16 << 10, 4, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := &SpillableAggregate{
				GroupBy:      groupBy,
				Aggs:         testAggSpecs(t),
				Partitions:   8,
				MemoryBudget: tc.budget,
			}
			if tc.budget > 0 {
				a.Spill = newTestSpillStore(t)
			}
			if tc.chains > 0 {
				a.Parts = splitRows(input, tc.chains)
			} else {
				a.Child = NewValues(input)
			}
			stats := new(obs.Counters)
			rows, err := Run(&Context{DOP: 4, Sink: obs.Sink{Engine: stats}}, a)
			if err != nil {
				t.Fatal(err)
			}
			if got := canonRows(rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("result differs from HashAggregate: %d vs %d groups", len(got), len(want))
			}
			spilledParts := stats.Get(obs.AggSpilledPartitions)
			if tc.wantSpill && spilledParts == 0 {
				t.Fatalf("budget %d did not spill any partitions", tc.budget)
			}
			if !tc.wantSpill && spilledParts != 0 {
				t.Fatalf("unlimited budget spilled %d partitions", spilledParts)
			}
			if tc.wantSpill && (stats.Get(obs.AggSpilledRows) == 0 || stats.Get(obs.AggSpillRecursions) == 0) {
				t.Fatalf("spill counters did not advance: %+v", stats.Snapshot())
			}
		})
	}
}

// TestSpillableAggregateSkewDepthCap: one giant duplicate group key
// cannot be subdivided by any hash level; the recursion must hit the
// depth cap and finish in memory with the correct totals.
func TestSpillableAggregateSkewDepthCap(t *testing.T) {
	var input []sqltypes.Row
	for i := 0; i < 3000; i++ {
		input = append(input, sqltypes.Row{i64(7), i64(1), str("x")})
	}
	// A handful of other keys so freezing has something to choose from.
	for i := 0; i < 50; i++ {
		input = append(input, sqltypes.Row{i64(int64(100 + i)), i64(1), str("y")})
	}
	stats := new(obs.Counters)
	a := &SpillableAggregate{
		GroupBy:      []expr.Expr{col(0)},
		Aggs:         []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child:        NewValues(input),
		Partitions:   4,
		MemoryBudget: 1, // freeze immediately: everything spills
		Spill:        newTestSpillStore(t),
	}
	rows, err := Run(&Context{DOP: 1, Sink: obs.Sink{Engine: stats}}, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 51 {
		t.Fatalf("got %d groups, want 51", len(rows))
	}
	for _, r := range rows {
		if r[0].I == 7 && r[1].I != 3000 {
			t.Fatalf("hot key count = %d, want 3000", r[1].I)
		}
	}
	if stats.Get(obs.AggSpillRecursions) == 0 {
		t.Fatalf("expected recursive re-aggregation, got %+v", stats.Snapshot())
	}
}

// TestSpillableAggregateEmptyInput: grouped empty input yields no rows;
// a global aggregate yields its single row, serial and parallel.
func TestSpillableAggregateEmptyInput(t *testing.T) {
	grouped := run(t, &SpillableAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child:   NewValues(nil),
	})
	if len(grouped) != 0 {
		t.Fatalf("grouped empty input produced %d rows", len(grouped))
	}
	for _, parallel := range []bool{false, true} {
		a := &SpillableAggregate{
			Aggs: []AggSpec{
				{Name: "COUNT", Factory: BuiltinAggregate("count")},
				{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(0)}},
			},
		}
		if parallel {
			a.Parts = []Operator{NewValues(nil), NewValues(nil)}
		} else {
			a.Child = NewValues(nil)
		}
		rows := run(t, a)
		if len(rows) != 1 {
			t.Fatalf("parallel=%v: global aggregate over empty input produced %d rows", parallel, len(rows))
		}
		if rows[0][0].I != 0 || !rows[0][1].IsNull() {
			t.Fatalf("parallel=%v: global row = %v, want [0 NULL]", parallel, rows[0])
		}
	}
}

// TestSpillableAggregateBudgetWithoutStore: exceeding the budget with no
// spill store must fail cleanly.
func TestSpillableAggregateBudgetWithoutStore(t *testing.T) {
	input := randomAggInput(rand.New(rand.NewSource(5)), 2000, 2000)
	a := &SpillableAggregate{
		GroupBy:      []expr.Expr{col(0)},
		Aggs:         []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child:        NewValues(input),
		MemoryBudget: 256,
	}
	if err := a.Open(&Context{DOP: 1}); err == nil {
		a.Close()
		t.Fatal("expected budget-without-store error")
	}
	a.Close()
}

// countingSpillStore records every file an operator creates.
type countingSpillStore struct {
	SpillStore
	files []SpillFile
}

func (s *countingSpillStore) Create() (SpillFile, error) {
	f, err := s.SpillStore.Create()
	if err == nil {
		s.files = append(s.files, f)
	}
	return f, err
}

// TestFrozenPartitionOpensItsFileAtItsFirstRow: a frozen partition opens
// its spill file when the first row spills to it, so a partition no row
// comes to after it froze has none. The budget here runs out with the last
// ten of 1 000 distinct keys, which freeze ten partitions; 40 repeated keys
// follow, and only the frozen partitions they route to get a file.
func TestFrozenPartitionOpensItsFileAtItsFirstRow(t *testing.T) {
	const keys = 1000
	input := make([]sqltypes.Row, keys+40)
	for i := range input {
		input[i] = sqltypes.Row{i64(int64(i % keys))}
	}
	stats := new(obs.Counters)
	store := &countingSpillStore{SpillStore: memSpillStore{}}
	a := &SpillableAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child:   NewValues(input),
		// A group of one INT key and one COUNT is charged 100 bytes.
		MemoryBudget: (keys - 10) * 100,
		Spill:        store,
	}
	rows, err := Run(&Context{DOP: 1, Sink: obs.Sink{Engine: stats}}, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != keys {
		t.Fatalf("%d groups, want %d", len(rows), keys)
	}
	var spilled int64
	for _, f := range store.files {
		if f.Rows() == 0 {
			t.Errorf("a spill file was created for a partition no row spilled to")
		}
		spilled += f.Rows()
	}
	if want := stats.Get(obs.AggSpilledRows); spilled != want {
		t.Errorf("the files hold %d rows, %d spilled", spilled, want)
	}
	frozen := stats.Get(obs.AggSpilledPartitions)
	if int64(len(store.files)) >= frozen || stats.Get(obs.AggSpillRecursions) != frozen {
		t.Errorf("%d files, %d partitions frozen, %d re-aggregated: want fewer files than frozen partitions, each frozen partition re-aggregated",
			len(store.files), frozen, stats.Get(obs.AggSpillRecursions))
	}
}
