package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/vec"
)

// storageSpillStore adapts storage's spill manager to the exec interface
// (the same shape core uses in production).
type storageSpillStore struct{ m *storage.SpillManager }

type storageSpillFile struct{ *storage.SpillFile }

func (s storageSpillStore) Create() (SpillFile, error) {
	f, err := s.m.Create()
	if err != nil {
		return nil, err
	}
	return storageSpillFile{f}, nil
}

func (f storageSpillFile) Iter() (RowIterator, error) { return f.NewIterator(), nil }

func (f storageSpillFile) SealRun() (RunSpan, error) {
	start, end, rows, bytes, err := f.SpillFile.SealRun()
	return RunSpan{Start: start, End: end, Rows: rows, Bytes: bytes}, err
}

func (f storageSpillFile) IterRun(span RunSpan) (RowIterator, error) {
	return f.NewRunIterator(span.Start, span.End, span.Rows), nil
}

func newTestSpillStore(t testing.TB) SpillStore {
	t.Helper()
	return storageSpillStore{storage.NewSpillManager(t.TempDir(), nil)}
}

// nestedLoopJoin is the trivially-correct reference: every left row against
// every right row, SQL NULL semantics on the keys.
func nestedLoopJoin(t *testing.T, left, right []sqltypes.Row, lk, rk []expr.Expr) []sqltypes.Row {
	t.Helper()
	evalKey := func(keys []expr.Expr, row sqltypes.Row) (sqltypes.Row, bool) {
		out := make(sqltypes.Row, len(keys))
		for i, e := range keys {
			v, err := e.Eval(row)
			if err != nil {
				t.Fatal(err)
			}
			if v.IsNull() {
				return nil, false
			}
			out[i] = v
		}
		return out, true
	}
	var out []sqltypes.Row
	for _, l := range left {
		lkey, ok := evalKey(lk, l)
		if !ok {
			continue
		}
		for _, r := range right {
			rkey, ok := evalKey(rk, r)
			if !ok {
				continue
			}
			if sqltypes.CompareRows(lkey, rkey) != 0 {
				continue
			}
			combined := append(append(sqltypes.Row{}, l...), r...)
			out = append(out, combined)
		}
	}
	return out
}

func canonRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// splitRows deals rows into n chains round-robin.
func splitRows(rows []sqltypes.Row, n int) []Operator {
	parts := make([][]sqltypes.Row, n)
	for i, r := range rows {
		parts[i%n] = append(parts[i%n], r)
	}
	ops := make([]Operator, n)
	for i := range ops {
		ops[i] = NewValues(parts[i])
	}
	return ops
}

func randomJoinInput(rng *rand.Rand, n, keySpace int, side string) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		var key sqltypes.Value
		switch rng.Intn(10) {
		case 0:
			key = sqltypes.Null // NULL keys never join
		case 1:
			key = sqltypes.NewString(fmt.Sprintf("k%d", rng.Intn(keySpace)))
		default:
			key = i64(int64(rng.Intn(keySpace)))
		}
		rows[i] = sqltypes.Row{key, str(fmt.Sprintf("%s%d", side, i))}
	}
	return rows
}

// TestPartitionedJoinEquivalence fuzzes the partitioned join against the
// nested-loop reference. Row sources first — boxed key columns that mix
// INT and VARCHAR values, so every comparison takes the encoded-key path:
// duplicate keys, NULL keys, with and without forced spill, serial and
// DOP-4 partitioned inputs — then batch sources in every typed form
// (joinbatch_test.go).
func TestPartitionedJoinEquivalence(t *testing.T) {
	t.Run("batches", testTypedJoinEquivalence)
	rng := rand.New(rand.NewSource(1234))
	configs := []struct {
		name   string
		budget int64
		parts  int
		dop    int
		chains int
	}{
		{"inmem-serial", 0, 8, 1, 1},
		{"inmem-dop4", 0, 8, 4, 4},
		{"spill-serial", 4 << 10, 4, 1, 1},
		{"spill-dop4", 4 << 10, 4, 4, 4},
		{"spill-tiny-budget", 1, 4, 4, 4}, // every partition spills
	}
	for trial := 0; trial < 4; trial++ {
		nl := 100 + rng.Intn(400)
		nr := 100 + rng.Intn(400)
		keySpace := 1 + rng.Intn(60) // heavy duplication
		left := randomJoinInput(rng, nl, keySpace, "l")
		right := randomJoinInput(rng, nr, keySpace, "r")
		lk := []expr.Expr{col(0)}
		rk := []expr.Expr{col(0)}
		want := canonRows(nestedLoopJoin(t, left, right, lk, rk))
		for _, cfg := range configs {
			for _, buildLeft := range []bool{false, true} {
				name := fmt.Sprintf("trial%d/%s/buildLeft=%v", trial, cfg.name, buildLeft)
				stats := new(obs.Counters)
				j := &PartitionedHashJoin{
					LeftKeys: lk, RightKeys: rk,
					BuildLeft:    buildLeft,
					Partitions:   cfg.parts,
					MemoryBudget: cfg.budget,
					Spill:        newTestSpillStore(t),
				}
				if cfg.chains > 1 {
					j.LeftParts = splitRows(left, cfg.chains)
					j.RightParts = splitRows(right, cfg.chains)
				} else {
					j.Left = NewValues(left)
					j.Right = NewValues(right)
				}
				rows, err := Run(&Context{DOP: cfg.dop, Sink: obs.Sink{Engine: stats}}, j)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := canonRows(rows)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d rows, reference %d rows", name, len(got), len(want))
				}
				if cfg.budget > 0 && cfg.budget < 1024 && stats.Get(obs.JoinSpilledPartitions) == 0 && len(left) > 0 {
					t.Errorf("%s: tiny budget but nothing spilled", name)
				}
			}
		}
	}
}

// TestPartitionedJoinSpillMatchesInMemory is the acceptance check: a join
// whose build side exceeds the budget completes, spills, and returns
// exactly the in-memory result.
func TestPartitionedJoinSpillMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var left, right []sqltypes.Row
	for i := 0; i < 4000; i++ {
		left = append(left, sqltypes.Row{i64(int64(rng.Intn(500))), str(fmt.Sprintf("payload-left-%d", i))})
	}
	for i := 0; i < 3000; i++ {
		right = append(right, sqltypes.Row{i64(int64(rng.Intn(500))), str(fmt.Sprintf("payload-right-%d", i))})
	}
	runJoin := func(budget int64, stats *obs.Counters) []string {
		j := &PartitionedHashJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
			LeftParts: splitRows(left, 4), RightParts: splitRows(right, 4),
			Partitions: 8, MemoryBudget: budget, Spill: newTestSpillStore(t),
		}
		rows, err := Run(&Context{DOP: 4, Sink: obs.Sink{Engine: stats}}, j)
		if err != nil {
			t.Fatal(err)
		}
		return canonRows(rows)
	}
	inMem := runJoin(0, new(obs.Counters))
	spillStats := new(obs.Counters)
	spilled := runJoin(16<<10, spillStats) // ~16 KB budget << build side
	if spillStats.Get(obs.JoinSpilledPartitions) == 0 {
		t.Fatal("expected spilled partitions with a 16 KB budget")
	}
	if spillStats.Get(obs.JoinSpilledBuildRows) == 0 || spillStats.Get(obs.JoinSpilledProbeRows) == 0 {
		t.Fatalf("expected spilled rows on both sides, got %+v", spillStats.Snapshot())
	}
	if !reflect.DeepEqual(inMem, spilled) {
		t.Fatalf("spilled join differs from in-memory: %d vs %d rows", len(spilled), len(inMem))
	}
}

// TestPartitionedJoinBudgetWithoutStore verifies the operator fails
// cleanly (rather than OOMing or hanging) when a budget is set but no
// spill store was configured.
func TestPartitionedJoinBudgetWithoutStore(t *testing.T) {
	var rows []sqltypes.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, sqltypes.Row{i64(int64(i)), str("x")})
	}
	j := &PartitionedHashJoin{
		LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
		Left: NewValues(rows), Right: NewValues(rows),
		Partitions: 4, MemoryBudget: 64,
	}
	if _, err := Run(&Context{DOP: 2}, j); err == nil {
		t.Fatal("expected budget-without-spill-store error")
	}
}

// --- Open/Close pairing audit ---

// trackedOp wraps an operator, recording whether it is open and optionally
// failing on demand.
type trackedOp struct {
	Operator
	openErr error
	nextErr error
	failAt  int // fail NextBatch after this many batches when nextErr set

	mu       sync.Mutex
	open     bool
	opens    int
	stray    int // Close calls before any successful Open
	returned int
}

func (o *trackedOp) Open(ctx *Context) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.openErr != nil {
		return o.openErr
	}
	o.open = true
	o.opens++
	return o.Operator.Open(ctx)
}

func (o *trackedOp) NextBatch() (*vec.Batch, error) {
	o.mu.Lock()
	if o.nextErr != nil && o.returned >= o.failAt {
		err := o.nextErr
		o.mu.Unlock()
		return nil, err
	}
	o.returned++
	o.mu.Unlock()
	return o.Operator.NextBatch()
}

// Close may come more than once after an Open (a pass-through parent closed
// twice forwards both), never before one.
func (o *trackedOp) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.opens == 0 {
		o.stray++
	}
	o.open = false
	return o.Operator.Close()
}

func someRows(n int) []sqltypes.Row {
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{i64(int64(i % 7)), str(fmt.Sprintf("v%d", i))}
	}
	return rows
}

// TestOperatorsCloseChildrenOnError walks every operator type through one
// table: whatever a child does — open, fail to open, fail mid-stream —
// every child the operator opened is closed again (a failed Open leaves
// nothing open and is not followed by a Close), no child is closed that was
// never opened, and a second Close is harmless.
func TestOperatorsCloseChildrenOnError(t *testing.T) {
	boom := fmt.Errorf("boom")
	keys := []expr.Expr{col(0)}
	order := []SortKey{{Col: 0}}
	count := []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}}
	cases := []struct {
		name  string
		build func(l, r Operator) Operator
	}{
		{"Filter", func(l, r Operator) Operator {
			return &Filter{Pred: &expr.Cmp{Op: expr.CmpGt, L: col(0), R: lit(i64(2))}, Child: l}
		}},
		{"Project", func(l, r Operator) Operator { return &Project{Exprs: []expr.Expr{col(1)}, Child: l} }},
		{"Limit", func(l, r Operator) Operator { return &Limit{N: 20, Child: l} }},
		{"TopN", func(l, r Operator) Operator { return &TopN{N: 5, Keys: order, Child: l} }},
		{"Gather", func(l, r Operator) Operator { return &Gather{Children: []Operator{l, r}} }},
		{"Gather/ordered", func(l, r Operator) Operator { return &Gather{Children: []Operator{l, r}, Ordered: true} }},
		{"Instrument", func(l, r Operator) Operator { return InstrumentOp(l, &obs.OpProfile{Timed: true}) }},
		{"Sort", func(l, r Operator) Operator { return &Sort{Keys: order, Child: l} }},
		{"RowNumber", func(l, r Operator) Operator { return &RowNumber{Child: &Sort{Keys: order, Child: l}} }},
		{"RowNumber/streaming", func(l, r Operator) Operator { return &RowNumber{Child: l} }},
		{"MergeSorted", func(l, r Operator) Operator {
			return &MergeSorted{Keys: order, Children: []*Sort{{Keys: order, Child: l}, {Keys: order, Child: r}}}
		}},
		{"MergeJoin", func(l, r Operator) Operator {
			return &MergeJoin{LeftKeys: keys, RightKeys: keys, Left: l, Right: r}
		}},
		{"PartitionedHashJoin", func(l, r Operator) Operator {
			return &PartitionedHashJoin{LeftKeys: keys, RightKeys: keys, Left: l, Right: r, Partitions: 4, Spill: newTestSpillStore(t)}
		}},
		{"PartitionedHashJoin/parts", func(l, r Operator) Operator {
			return &PartitionedHashJoin{LeftKeys: keys, RightKeys: keys,
				LeftParts: []Operator{l, NewValues(someRows(9))}, RightParts: []Operator{r, NewValues(someRows(9))}}
		}},
		{"Apply", func(l, r Operator) Operator {
			return &Apply{Child: l, Args: keys, OuterWidth: 2, Func: &rowFunc{width: 2, expand: func(sqltypes.Row) ([]sqltypes.Row, error) {
				return someRows(2), nil
			}}}
		}},
		{"StreamAggregate", func(l, r Operator) Operator { return &StreamAggregate{GroupBy: keys, Aggs: count, Child: l} }},
		{"SpillableAggregate", func(l, r Operator) Operator { return &SpillableAggregate{GroupBy: keys, Aggs: count, Child: l} }},
		{"SpillableAggregate/parts", func(l, r Operator) Operator {
			return &SpillableAggregate{GroupBy: keys, Aggs: count, Parts: []Operator{l, r}}
		}},
	}
	scenarios := []struct {
		name string
		mut  func(l, r *trackedOp)
	}{
		{"happy", func(l, r *trackedOp) {}},
		{"left-open-fails", func(l, r *trackedOp) { l.openErr = boom }},
		{"right-open-fails", func(l, r *trackedOp) { r.openErr = boom }},
		{"left-next-fails", func(l, r *trackedOp) { l.nextErr = boom; l.failAt = 3 }},
		{"right-next-fails", func(l, r *trackedOp) { r.nextErr = boom; r.failAt = 3 }},
		{"both-next-fail-immediately", func(l, r *trackedOp) { l.nextErr = boom; r.nextErr = boom }},
	}
	forms := []colForm{formFlat, formFlat}
	for _, c := range cases {
		for _, sc := range scenarios {
			t.Run(c.name+"/"+sc.name, func(t *testing.T) {
				// Seven and eight batches a side: mid-stream is mid-stream.
				l := &trackedOp{Operator: batchSources(t, batchesOf(t, someRows(50), forms, 8), 1)[0]}
				r := &trackedOp{Operator: batchSources(t, batchesOf(t, someRows(60), forms, 8), 1)[0]}
				sc.mut(l, r)
				op := c.build(l, r)
				if err := op.Open(&Context{DOP: 2}); err == nil {
					_, _ = Drain(op) // the scenario's error, or none
					for i := 0; i < 2; i++ {
						if cerr := op.Close(); cerr != nil {
							t.Errorf("Close %d: %v", i+1, cerr)
						}
					}
				}
				for side, child := range map[string]*trackedOp{"left": l, "right": r} {
					if child.open || child.stray > 0 {
						t.Errorf("%s child: open=%v after %d opens, %d closes before any open", side, child.open, child.opens, child.stray)
					}
				}
			})
		}
	}
}
