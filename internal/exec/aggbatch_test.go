package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// sumSqState is a user-defined aggregate that knows only the portable
// contract: SUM(x*x) and a row count, through Add.
type sumSqState struct{ sum, n int64 }

func (s *sumSqState) Add(args []sqltypes.Value) error {
	if args[0].IsNull() {
		return nil
	}
	s.sum += args[0].I * args[0].I
	s.n++
	return nil
}
func (s *sumSqState) Merge(o AggState) error {
	s.sum += o.(*sumSqState).sum
	s.n += o.(*sumSqState).n
	return nil
}
func (s *sumSqState) Result() (sqltypes.Value, error) {
	return str(fmt.Sprintf("%d/%d", s.sum, s.n)), nil
}

// spanState is a user-defined aggregate with the vector contract too: per
// group, the weighted sum of (x, tag length) pairs. Its Add and AddBatch
// count their calls, so a test can tell which one fed it.
type spanState struct {
	sum          int64
	adds, vector *atomic.Int64
}

func (s *spanState) Add(args []sqltypes.Value) error {
	s.adds.Add(1)
	if !args[0].IsNull() && !args[1].IsNull() {
		s.sum += args[0].I * int64(len(args[1].S)+1)
	}
	return nil
}

func (s *spanState) AddBatch(args []*vec.Vector, rows []int) error {
	s.vector.Add(int64(len(rows)))
	for _, r := range rows {
		x, err := args[0].Value(r)
		if err != nil {
			return err
		}
		tag, err := args[1].Value(r)
		if err != nil {
			return err
		}
		if !x.IsNull() && !tag.IsNull() {
			s.sum += x.I * int64(len(tag.S)+1)
		}
	}
	return nil
}
func (s *spanState) Merge(o AggState) error          { s.sum += o.(*spanState).sum; return nil }
func (s *spanState) Result() (sqltypes.Value, error) { return i64(s.sum), nil }

// aggFuzzRows builds rows of (k INT, tag STRING, x INT, f FLOAT, pad
// STRING) with NULLs in every column but pad. Floats are multiples of a
// quarter, so sums are exact in any order.
func aggFuzzRows(rng *rand.Rand, n, keySpace int) []sqltypes.Row {
	null := func(v sqltypes.Value, one int) sqltypes.Value {
		if rng.Intn(one) == 0 {
			return sqltypes.Null
		}
		return v
	}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{
			null(i64(int64(rng.Intn(keySpace))-2), 17),
			null(str(fmt.Sprintf("t%d", rng.Intn(5))), 13),
			null(i64(int64(rng.Intn(400))-50), 11),
			null(sqltypes.NewFloat(float64(rng.Intn(64))/4), 9),
			str(fmt.Sprintf("pad-%03d", rng.Intn(300))),
		}
	}
	return rows
}

// TestAggregationMatchesOracle runs the three batch-fed aggregations —
// hash, stream and global — against HashAggregate, the row-at-a-time
// reference: group keys of one and two columns with NULLs, every built-in
// and user-defined aggregates with and without AddBatch, inputs in every
// vector form (and as rows, packed at the boundary), in memory and under a
// budget that freezes every partition, at DOP 1 and 4. Where the old
// operators promised first-seen group order (one input, nothing spilled;
// any stream aggregate) the order is checked too.
func TestAggregationMatchesOracle(t *testing.T) {
	var adds, vector atomic.Int64
	specs := func() []AggSpec {
		return []AggSpec{
			{Name: "COUNT", Factory: BuiltinAggregate("count")},
			{Name: "COUNT", Factory: BuiltinAggregate("count"), Args: []expr.Expr{col(2)}},
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(2)}},
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{col(3)}},
			{Name: "MIN", Factory: BuiltinAggregate("min"), Args: []expr.Expr{col(4)}},
			{Name: "MAX", Factory: BuiltinAggregate("max"), Args: []expr.Expr{col(2)}},
			{Name: "AVG", Factory: BuiltinAggregate("avg"), Args: []expr.Expr{col(3)}},
			{Name: "SUM", Factory: BuiltinAggregate("sum"), Args: []expr.Expr{
				&expr.Arith{Op: expr.OpAdd, L: col(2), R: lit(i64(1))}}}, // a computed argument
			{Name: "SUMSQ", Factory: func() AggState { return &sumSqState{} }, Args: []expr.Expr{col(2)}},
			{Name: "SPAN", Factory: func() AggState { return &spanState{adds: &adds, vector: &vector} },
				Args: []expr.Expr{col(2), col(1)}},
		}
	}
	keys := map[string][]expr.Expr{
		"int":    {col(0)},
		"string": {col(1)},
		"two":    {col(0), col(1)},
		"global": nil,
	}
	forms := map[string][]colForm{
		"flat":    {formFlat, formFlat, formFlat, formFlat, formFlat},
		"dict":    {formDict, formDict, formDict, formFlat, formDict},
		"lazy":    {formLazy, formLazy, formLazy, formLazy, formLazy},
		"generic": {formGeneric, formGeneric, formGeneric, formGeneric, formGeneric},
		"mixed":   {formDict, formGeneric, formLazy, formFlat, formFlat},
	}
	rng := rand.New(rand.NewSource(20260926))
	rows := aggFuzzRows(rng, 5000, 60)

	for keyName, groupBy := range keys {
		sorted := append([]sqltypes.Row(nil), rows...)
		groupOf := func(r sqltypes.Row) string {
			var sb strings.Builder
			for _, e := range groupBy {
				v, _ := e.Eval(r)
				fmt.Fprintf(&sb, "%d:%v|", v.K, v)
			}
			return sb.String()
		}
		sort.SliceStable(sorted, func(i, j int) bool { return groupOf(sorted[i]) < groupOf(sorted[j]) })
		oracle := func(in []sqltypes.Row) []sqltypes.Row {
			return run(t, &HashAggregate{GroupBy: groupBy, Aggs: specs(), Child: NewValues(in)})
		}
		want, wantSorted := oracle(rows), oracle(sorted)

		for formName, form := range forms {
			// Batches alternate between the form under test and flat, so a
			// table's key columns meet a second form after the first.
			batches := func(in []sqltypes.Row) []*vec.Batch {
				var out []*vec.Batch
				for from, k := 0, 0; from < len(in); from, k = from+300, k+1 {
					f := form
					if k%3 == 2 {
						f = forms["flat"]
					}
					out = append(out, batchesOf(t, in[from:min(from+300, len(in))], f, 300)...)
				}
				return out
			}
			t.Run(keyName+"/"+formName, func(t *testing.T) {
				check := func(name string, op Operator, want []sqltypes.Row, ordered bool, dop int) *obs.Counters {
					t.Helper()
					stats := new(obs.Counters)
					got, err := Run(&Context{DOP: dop, Sink: obs.Sink{Engine: stats}}, op)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if ordered && !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: groups or their order differ from the reference (%d vs %d groups)", name, len(got), len(want))
					}
					if !reflect.DeepEqual(canonRows(got), canonRows(want)) {
						t.Fatalf("%s: result differs from the reference (%d vs %d groups)", name, len(got), len(want))
					}
					return stats
				}
				for _, dop := range []int{1, 4} {
					for _, budget := range []int64{0, 1} {
						name := fmt.Sprintf("hash/dop%d/budget%d", dop, budget)
						a := &SpillableAggregate{
							GroupBy: groupBy, Aggs: specs(), Partitions: 4,
							MemoryBudget: budget, Spill: memSpillStore{},
						}
						if dop == 1 {
							a.Child = batchSources(t, batches(rows), 1)[0]
						} else {
							a.Parts = batchSources(t, batches(rows), dop)
						}
						adds.Store(0)
						vector.Store(0)
						stats := check(name, a, want, dop == 1 && budget == 0, dop)
						grouped := len(groupBy) > 0
						// One byte of budget freezes all 4 partitions of every
						// worker's table, and more at the levels below.
						if spilled := stats.Get(obs.AggSpilledPartitions); grouped && budget > 0 && spilled < int64(4*dop) {
							t.Errorf("%s: %d partitions frozen, want at least all %d of the first level", name, spilled, 4*dop)
						} else if (!grouped || budget == 0) && spilled != 0 {
							t.Errorf("%s: %d partitions frozen without a budget to exceed", name, spilled)
						}
						if budget == 0 && (adds.Load() != 0 || vector.Load() != int64(len(rows))) {
							t.Errorf("%s: the vector UDA took %d rows through AddBatch and %d through Add, want all %d through AddBatch",
								name, vector.Load(), adds.Load(), len(rows))
						}
					}
				}
				check("stream", &StreamAggregate{GroupBy: groupBy, Aggs: specs(), Child: batchSources(t, batches(sorted), 1)[0]},
					wantSorted, true, 1)
			})
		}
		t.Run(keyName+"/rows", func(t *testing.T) {
			// Row-only children: packed into generic batches at the boundary.
			for _, dop := range []int{1, 4} {
				a := &SpillableAggregate{GroupBy: groupBy, Aggs: specs(), Partitions: 4, MemoryBudget: int64(dop - 1), Spill: memSpillStore{}}
				if dop == 1 {
					a.Child = NewValues(rows)
				} else {
					a.Parts = splitRows(rows, dop)
				}
				got, err := Run(&Context{DOP: dop}, a)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(canonRows(got), canonRows(want)) {
					t.Fatalf("DOP %d over rows: result differs from the reference", dop)
				}
			}
			got := run(t, &StreamAggregate{GroupBy: groupBy, Aggs: specs(), Child: NewValues(sorted)})
			if !reflect.DeepEqual(got, wantSorted) {
				t.Fatal("stream aggregate over rows differs from the reference")
			}
		})
	}
}

// TestAggregateNamesTheGroupOfAStateError: when a user-defined state
// refuses a row, the error says which group it was feeding.
func TestAggregateNamesTheGroupOfAStateError(t *testing.T) {
	rows := rowsOf(
		[]sqltypes.Value{i64(7), i64(1)},
		[]sqltypes.Value{i64(8), i64(2)},
		[]sqltypes.Value{i64(8), i64(-1)},
	)
	specs := []AggSpec{{Name: "PICKY", Factory: func() AggState { return &pickyState{} }, Args: []expr.Expr{col(1)}}}
	for name, op := range map[string]Operator{
		"hash":   &SpillableAggregate{GroupBy: []expr.Expr{col(0)}, Aggs: specs, Child: NewValues(rows)},
		"stream": &StreamAggregate{GroupBy: []expr.Expr{col(0)}, Aggs: specs, Child: NewValues(rows)},
	} {
		_, err := Run(&Context{DOP: 1}, op)
		if err == nil || !strings.Contains(err.Error(), "negative") || !strings.Contains(err.Error(), "PICKY over group [8]") {
			t.Errorf("%s: error %v does not name group 8", name, err)
		}
	}
}

type pickyState struct{ countState }

func (p *pickyState) Add(args []sqltypes.Value) error {
	if args[0].I < 0 {
		return fmt.Errorf("picky: negative value %d", args[0].I)
	}
	return nil
}

// TestGroupedCountAllocsPerRow holds the hash aggregate's cost without a
// clock: COUNT(*) grouped by an INT key allocates per batch and per new
// group, not per row.
func TestGroupedCountAllocsPerRow(t *testing.T) {
	const n = 20_000
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{i64(int64(i % 97)), str("x")}
	}
	batches := batchesOf(t, rows, []colForm{formFlat, formFlat}, 1024)
	var groups int
	allocs := testing.AllocsPerRun(5, func() {
		a := &SpillableAggregate{
			GroupBy: []expr.Expr{col(0)},
			Aggs:    []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
			Child:   batchSources(t, batches, 1)[0],
		}
		out, err := Run(&Context{DOP: 1}, a)
		if err != nil {
			t.Fatal(err)
		}
		groups = len(out)
	})
	if groups != 97 {
		t.Fatalf("%d groups, want 97", groups)
	}
	if perRow := allocs / n; perRow > 0.05 {
		t.Errorf("%.0f allocations for %d rows: %.3f a row, want at most 0.05", allocs, n, perRow)
	}
}

// TestCallCmpMaskMatchesFilter: the predicate kernel for fn(column) <op>
// literal selects the rows per-row Eval selects, and fails where it fails,
// over every form a column arrives in.
func TestCallCmpMaskMatchesFilter(t *testing.T) {
	reg := expr.NewRegistry()
	charindex, ok1 := reg.Lookup("charindex")
	length, ok2 := reg.Lookup("len")
	if !ok1 || !ok2 {
		t.Fatal("built-ins missing")
	}
	noGs := expr.Func{Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if strings.Contains(args[0].AsString(), "GGG") {
			return sqltypes.Null, fmt.Errorf("nogs: %q", args[0].AsString())
		}
		return i64(int64(len(args[0].AsString()))), nil
	}}
	rng := rand.New(rand.NewSource(77))
	mk := func(withGGG bool) []sqltypes.Row {
		rows := make([]sqltypes.Row, 700)
		for i := range rows {
			b := make([]byte, 3+rng.Intn(9))
			for j := range b {
				b[j] = "ACGTN"[rng.Intn(5)]
			}
			v := str(string(b))
			if rng.Intn(10) == 0 {
				v = sqltypes.Null
			}
			if withGGG && i == 650 {
				v = str("ACGGGT")
			}
			rows[i] = sqltypes.Row{i64(int64(i)), v}
		}
		return rows
	}
	call := func(name string, fn expr.Func, args ...expr.Expr) expr.Expr {
		return &expr.Call{Name: name, Fn: fn, Args: args}
	}
	preds := map[string]expr.Expr{
		"charindex=0": &expr.Cmp{Op: expr.CmpEq, L: call("CHARINDEX", charindex, lit(str("N")), col(1)), R: lit(i64(0))},
		"2<charindex": &expr.Cmp{Op: expr.CmpLt, L: lit(i64(2)), R: call("CHARINDEX", charindex, lit(str("N")), col(1))},
		"len>=7":      &expr.Cmp{Op: expr.CmpGe, L: call("LEN", length, col(1)), R: lit(i64(7))},
		"len=null":    &expr.Cmp{Op: expr.CmpEq, L: call("LEN", length, col(1)), R: lit(sqltypes.Null)},
		"not":         &expr.Not{X: &expr.Cmp{Op: expr.CmpNe, L: call("CHARINDEX", charindex, lit(str("GT")), col(1), lit(i64(2))), R: lit(i64(0))}},
		"nogs":        &expr.Cmp{Op: expr.CmpGt, L: call("NOGS", noGs, col(1)), R: lit(i64(4))},
	}
	for _, withGGG := range []bool{false, true} {
		rows := mk(withGGG)
		for name, pred := range preds {
			var want []sqltypes.Row
			var wantErr error
			for _, row := range rows {
				v, err := pred.Eval(row)
				if err != nil {
					want, wantErr = nil, err
					break
				}
				if expr.Truthy(v) {
					want = append(want, row)
				}
			}
			for formName, form := range map[string]colForm{
				"flat": formFlat, "dict": formDict, "lazy": formLazy, "generic": formGeneric,
				"packed": formPacked, "packed-dict": formPackedDict,
			} {
				src := batchSources(t, batchesOf(t, rows, []colForm{formFlat, form}, 256), 1)[0]
				got, err := Run(&Context{}, &Filter{Pred: pred, Child: src})
				label := fmt.Sprintf("%s/%s/ggg=%v", name, formName, withGGG)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s: error %v, Eval's %v", label, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: %d rows, Eval keeps %d", label, len(got), len(want))
				}
			}
		}
	}
}
