package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// colForm is the physical form a test batch holds a column in.
type colForm int

const (
	formGeneric    colForm = iota // boxed values, as a row source packs them
	formFlat                      // the kind's typed array
	formDict                      // codes into a per-batch dictionary
	formPacked                    // 2-bit packed sequences (flat BYTES, Packed)
	formPackedDict                // packed sequences behind a dictionary
	formLazy                      // the typed array, not decoded until first read
)

// lazyOf is a typed flat column that decodes on demand, as a scanned row
// page's columns do.
type lazyOf struct{ flat *vec.Vector }

func (l lazyOf) Len() int { return l.flat.Len() }
func (l lazyOf) Fill(v *vec.Vector) error {
	v.ShareArrays(l.flat)
	return nil
}

// formVector renders one column of rows[from:to] in the given form. Row 0
// of the vector is a decoy the selection vector leaves out: a copy of the
// first value, which would join if a kernel ignored Sel.
func formVector(t testing.TB, rows []sqltypes.Row, c int, form colForm) *vec.Vector {
	t.Helper()
	vals := make([]sqltypes.Value, 0, len(rows)+1)
	vals = append(vals, rows[0][c])
	kind := sqltypes.KindNull
	for _, r := range rows {
		vals = append(vals, r[c])
		if !r[c].IsNull() {
			kind = r[c].K
		}
	}
	pack := func(v sqltypes.Value) sqltypes.Value {
		p, err := seq.Pack(v.S)
		if err != nil {
			t.Fatal(err)
		}
		return sqltypes.NewBytes(p.Encode())
	}
	switch form {
	case formGeneric:
		v := vec.NewVector(sqltypes.KindNull, len(vals))
		for _, val := range vals {
			v.Append(val)
		}
		return v
	case formFlat:
		v := vec.NewVector(kind, len(vals))
		for _, val := range vals {
			v.Append(val)
		}
		return v
	case formLazy:
		flat := formVector(t, rows, c, formFlat)
		if flat.Vals != nil {
			return flat // a column of NULLs has no typed array to defer
		}
		return &vec.Vector{Kind: flat.Kind, Nulls: flat.Nulls, Lazy: lazyOf{flat}}
	case formPacked:
		v := vec.NewVector(sqltypes.KindBytes, len(vals))
		v.Packed = true
		for _, val := range vals {
			if !val.IsNull() {
				val = pack(val)
			}
			v.Append(val)
		}
		return v
	}
	v := &vec.Vector{Kind: kind, Codes: make([]int32, len(vals))}
	if form == formPackedDict {
		v.Kind, v.Packed = sqltypes.KindBytes, true
	}
	v.Dict = vec.NewVector(v.Kind, 0)
	codes := map[string]int32{}
	for i, val := range vals {
		if val.IsNull() {
			v.SetNull(i)
			continue
		}
		key := fmt.Sprint(val.K, val)
		code, ok := codes[key]
		if !ok {
			code = int32(v.Dict.Len())
			codes[key] = code
			if form == formPackedDict {
				val = pack(val)
			}
			v.Dict.Append(val)
		}
		v.Codes[i] = code
	}
	return v
}

// batchSlice serves pre-built batches, as a native scan would.
type batchSlice struct {
	batches []*vec.Batch
	pos     int
}

func (s *batchSlice) NextBatch() (*vec.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	// Batches belong to the caller, who may shrink Sel in place and decode
	// lazy columns: it gets its own selection and its own vector headers.
	cols := make([]*vec.Vector, len(b.Cols))
	for i, c := range b.Cols {
		cp := *c
		cols[i] = &cp
	}
	return &vec.Batch{Cols: cols, Sel: append([]int(nil), b.Sel...)}, nil
}

func (s *batchSlice) Close() error { return nil }

// batchesOf cuts rows into batches of size rows with each column in its
// form.
func batchesOf(t testing.TB, rows []sqltypes.Row, forms []colForm, size int) []*vec.Batch {
	t.Helper()
	var out []*vec.Batch
	for from := 0; from < len(rows); from += size {
		part := rows[from:min(from+size, len(rows))]
		cols := make([]*vec.Vector, len(forms))
		for c, f := range forms {
			cols[c] = formVector(t, part, c, f)
		}
		b := vec.NewBatch(cols, len(part)+1)
		b.Sel = b.Sel[1:] // all but the decoy
		out = append(out, b)
	}
	return out
}

// batchSources deals the batches round-robin onto n re-openable sources.
func batchSources(t testing.TB, batches []*vec.Batch, n int) []Operator {
	ops := make([]Operator, n)
	for i := range ops {
		var mine []*vec.Batch
		for k := i; k < len(batches); k += n {
			mine = append(mine, batches[k])
		}
		ops[i] = &Scan{Factory: func(*Context, []bool) (BatchIterator, error) {
			return &batchSlice{batches: mine}, nil
		}}
	}
	return ops
}

// memSpillStore keeps spilled rows in memory: the sweep below re-joins
// tens of thousands of partitions, and the file format is not what it
// tests (the row-source half of the test spills to real files).
type memSpillStore struct{}

type memSpillFile struct {
	mu     sync.Mutex
	rows   []sqltypes.Row
	sealed int64 // rows in sealed runs
}

func (memSpillStore) Create() (SpillFile, error) { return &memSpillFile{}, nil }

func (f *memSpillFile) Append(row sqltypes.Row) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rows = append(f.rows, row.Clone())
	return nil
}

func (f *memSpillFile) Rows() int64                { return int64(len(f.rows)) }
func (f *memSpillFile) Bytes() int64               { return int64(len(f.rows)) }
func (f *memSpillFile) Iter() (RowIterator, error) { return &SliceIterator{Rows: f.rows}, nil }
func (f *memSpillFile) Release() error             { return nil }

// SealRun and IterRun keep a run as a range of rows.
func (f *memSpillFile) SealRun() (RunSpan, error) {
	span := RunSpan{Start: f.sealed, End: int64(len(f.rows)), Rows: int64(len(f.rows)) - f.sealed}
	f.sealed = span.End
	return span, nil
}
func (f *memSpillFile) IterRun(s RunSpan) (RowIterator, error) {
	return &SliceIterator{Rows: f.rows[s.Start:s.End]}, nil
}

// joinCase is one shape of typed join input.
type joinCase struct {
	name        string
	left, right []sqltypes.Row
	lf, rf      []colForm
	lk, rk      []expr.Expr
}

func typedJoinCases(rng *rand.Rand) []joinCase {
	mer := func(i int) string {
		return fmt.Sprintf("ACGT%s", [...]string{"AAAC", "CCGT", "GGTA", "TTAC", "ACGN", "NNNN"}[i%6])
	}
	maybeNull := func(v sqltypes.Value) sqltypes.Value {
		if rng.Intn(9) == 0 {
			return sqltypes.Null
		}
		return v
	}
	gen := func(n int, key func(i int) []sqltypes.Value, side string) []sqltypes.Row {
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = append(sqltypes.Row(key(i)), str(fmt.Sprintf("%s%d", side, i)))
		}
		return rows
	}
	ints := func(space int) func(int) []sqltypes.Value {
		return func(int) []sqltypes.Value { return []sqltypes.Value{maybeNull(i64(int64(rng.Intn(space)) - 3))} }
	}
	strs := func(space int) func(int) []sqltypes.Value {
		return func(int) []sqltypes.Value {
			return []sqltypes.Value{maybeNull(str(fmt.Sprintf("key-%d", rng.Intn(space))))}
		}
	}
	mers := func(int) []sqltypes.Value { return []sqltypes.Value{maybeNull(str(mer(rng.Intn(6))))} }
	two := func(int) []sqltypes.Value {
		return []sqltypes.Value{maybeNull(i64(int64(rng.Intn(6)))), maybeNull(str(fmt.Sprintf("k%d", rng.Intn(4))))}
	}
	k1, k2 := []expr.Expr{col(0)}, []expr.Expr{col(0), col(1)}
	// 45 x 45 rows of one key expand to 2025 pairs: two batch boundaries.
	dup := func(n int) func(int) []sqltypes.Value {
		return func(i int) []sqltypes.Value {
			if i < n {
				return []sqltypes.Value{i64(7)}
			}
			return []sqltypes.Value{i64(int64(rng.Intn(20)))}
		}
	}
	return []joinCase{
		{"int-flat", gen(180, ints(40), "l"), gen(150, ints(40), "r"), []colForm{formFlat, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"varchar-flat", gen(160, strs(30), "l"), gen(170, strs(30), "r"), []colForm{formFlat, formFlat}, []colForm{formFlat, formDict}, k1, k1},
		{"dict-str-left", gen(160, strs(25), "l"), gen(140, strs(25), "r"), []colForm{formDict, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"dict-int-right", gen(150, ints(30), "l"), gen(160, ints(30), "r"), []colForm{formFlat, formGeneric}, []colForm{formDict, formFlat}, k1, k1},
		{"int-generic-vs-flat", gen(150, ints(30), "l"), gen(160, ints(30), "r"), []colForm{formGeneric, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"packed-left", gen(120, mers, "l"), gen(130, mers, "r"), []colForm{formPacked, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"packed-both", gen(120, mers, "l"), gen(130, mers, "r"), []colForm{formPackedDict, formFlat}, []colForm{formPacked, formFlat}, k1, k1},
		{"two-column", gen(200, two, "l"), gen(180, two, "r"), []colForm{formFlat, formDict, formFlat}, []colForm{formGeneric, formFlat, formFlat}, k2, k2},
		{"dup-expansion", gen(120, dup(45), "l"), gen(110, dup(45), "r"), []colForm{formFlat, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"empty-left", nil, gen(50, ints(10), "r"), []colForm{formFlat, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
		{"empty-right", gen(50, ints(10), "l"), nil, []colForm{formFlat, formFlat}, []colForm{formFlat, formFlat}, k1, k1},
	}
}

// maskRows blanks the columns a pruned consumer promised not to read.
func maskRows(rows []sqltypes.Row, needed []bool) []sqltypes.Row {
	out := make([]sqltypes.Row, len(rows))
	for i, r := range rows {
		out[i] = r.Clone()
		for c := range out[i] {
			if !needed[c] {
				out[i][c] = sqltypes.Null
			}
		}
	}
	return out
}

// testTypedJoinEquivalence is the batch half of
// TestPartitionedJoinEquivalence: typed, dictionary-coded, packed and
// boxed key columns on either side, one- and two-column keys, NULL keys,
// duplicate keys whose expansion crosses output batches, an empty side —
// each under every subset of needed output columns, with either side as
// the build side, at DOP 1 and 4, in memory, with some partitions spilled
// and with every partition spilled at every level (recursion to the depth
// cap). The sources fail the test if a row is pulled from them.
func testTypedJoinEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	configs := []struct {
		name   string
		budget int64
		parts  int
		chains int
	}{
		{"inmem-dop1", 0, 4, 1},
		{"inmem-dop4", 0, 4, 4},
		{"spill-dop1", 2 << 10, 4, 1},
		{"spill-dop4", 2 << 10, 4, 4},
		// Fan-out 2 keeps the full-depth recursion to 2+4+8 re-joins a run.
		{"recursion-dop1", 1, 2, 1},
		{"recursion-dop4", 1, 2, 4},
	}
	for _, c := range typedJoinCases(rng) {
		t.Run(c.name, func(t *testing.T) {
			spill := memSpillStore{}
			lw, rw := len(c.lf), len(c.rf)
			full := nestedLoopJoin(t, c.left, c.right, c.lk, c.rk)
			lb, rb := batchesOf(t, c.left, c.lf, 64), batchesOf(t, c.right, c.rf, 64)
			for subset := 0; subset < 1<<(lw+rw); subset++ {
				needed := make([]bool, lw+rw)
				for i := range needed {
					needed[i] = subset&(1<<i) != 0
				}
				want := canonRows(maskRows(full, needed))
				for ci, cfg := range configs {
					// Either build side under all and under no columns needed;
					// in between the side alternates.
					sides := []bool{(subset+ci)%2 == 0}
					if subset == 0 || subset == 1<<(lw+rw)-1 {
						sides = []bool{false, true}
					}
					for _, buildLeft := range sides {
						name := fmt.Sprintf("needed=%v/%s/buildLeft=%v", needed, cfg.name, buildLeft)
						stats := new(obs.Counters)
						j := &PartitionedHashJoin{
							LeftKeys: c.lk, RightKeys: c.rk, LeftWidth: lw,
							LeftParts:  batchSources(t, lb, cfg.chains),
							RightParts: batchSources(t, rb, cfg.chains),
							BuildLeft:  buildLeft, Partitions: cfg.parts,
							MemoryBudget: cfg.budget, Spill: spill, Bloom: subset%2 == 0, BuildRowsEstimate: 256,
						}
						j.PruneColumns(needed)
						rows, err := Run(&Context{DOP: cfg.chains, Sink: obs.Sink{Engine: stats}}, j)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if got := canonRows(maskRows(rows, needed)); !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %d rows, reference %d rows", name, len(got), len(want))
						}
						build := c.right
						if buildLeft {
							build = c.left
						}
						if cfg.budget > 0 && len(build) > 60 && stats.Get(obs.JoinSpilledPartitions) == 0 {
							t.Errorf("%s: budget %d but nothing spilled", name, cfg.budget)
						}
						if cfg.budget == 1 && len(full) > 0 && stats.Get(obs.JoinSpillRecursions) < 2 {
							t.Errorf("%s: %d spill recursions", name, stats.Get(obs.JoinSpillRecursions))
						}
					}
				}
			}
		})
	}
}

// TestCountOverJoinBuildsNoRow: COUNT(*) over a join — the hash join at
// DOP 1 and 4, the merge join — folds batches into the count. Neither the
// join nor its inputs have a row interface to be asked through; what the
// aggregate's pruning leaves of the join's output is the selection alone —
// every column is the shared NullColumn.
func TestCountOverJoinBuildsNoRow(t *testing.T) {
	left := benchJoinRows(5000, 700, 1, "l")
	right := benchJoinRows(4000, 700, 2, "r")
	want := int64(len(nestedLoopJoin(t, left, right, []expr.Expr{col(0)}, []expr.Expr{col(0)})))
	forms := []colForm{formFlat, formFlat}
	keys := []expr.Expr{col(0)}
	joins := map[string]Operator{
		// The merge join takes the same rows in key order.
		"merge join": &MergeJoin{LeftKeys: keys, RightKeys: keys, LeftWidth: 2,
			Left:  batchSources(t, batchesOf(t, sortedOnKey(left), forms, 1000), 1)[0],
			Right: batchSources(t, batchesOf(t, sortedOnKey(right), forms, 1000), 1)[0],
		},
	}
	for _, dop := range []int{1, 4} {
		joins[fmt.Sprintf("hash join at DOP %d", dop)] = &PartitionedHashJoin{
			LeftKeys: keys, RightKeys: keys, LeftWidth: 2,
			LeftParts:  batchSources(t, batchesOf(t, left, forms, 1000), dop),
			RightParts: batchSources(t, batchesOf(t, right, forms, 1000), dop),
		}
	}
	for name, j := range joins {
		j.PruneColumns(make([]bool, 4))
		agg := &SpillableAggregate{
			Aggs:  []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
			Child: &gatherNothing{Operator: j, t: t},
		}
		rows := run(t, agg)
		if len(rows) != 1 || rows[0][0].I != want {
			t.Fatalf("%s: COUNT(*) = %v, want %d", name, rows, want)
		}
	}
}

// gatherNothing fails the test when a batch carries a column of its own.
type gatherNothing struct {
	Operator
	t testing.TB
}

func (g *gatherNothing) NextBatch() (*vec.Batch, error) {
	b, err := g.Operator.NextBatch()
	for c := 0; b != nil && c < len(b.Cols); c++ {
		if b.Cols[c] != NullColumn {
			g.t.Errorf("the join gathered column %d for a consumer that reads none", c)
		}
	}
	return b, err
}

// TestHashJoinAllocsPerRow holds the join's cost without a clock: a
// 10 000 x 10 000 INT-key join whose consumer reads no column (COUNT(*))
// allocates per batch, not per row — at most 0.05 allocations an input
// row, where cloning rows into a map of string keys cost more than 2.
func TestHashJoinAllocsPerRow(t *testing.T) {
	const n = 10_000
	forms := []colForm{formFlat, formFlat}
	lb := batchesOf(t, benchJoinRows(n, n, 1, "l"), forms, 1024)
	rb := batchesOf(t, benchJoinRows(n, n, 2, "r"), forms, 1024)
	var joined int
	allocs := testing.AllocsPerRun(5, func() {
		j := &PartitionedHashJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)}, LeftWidth: 2,
			Left: batchSources(t, lb, 1)[0], Right: batchSources(t, rb, 1)[0],
			Bloom: true, BuildRowsEstimate: n,
		}
		j.PruneColumns(make([]bool, 4))
		if err := j.Open(&Context{DOP: 1}); err != nil {
			t.Fatal(err)
		}
		joined = 0
		for {
			b, err := j.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			joined += b.Len()
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if joined == 0 {
		t.Fatal("join produced nothing")
	}
	if perRow := allocs / (2 * n); perRow > 0.05 {
		t.Errorf("%.0f allocations for %d input rows (%d joined): %.3f a row, want at most 0.05", allocs, 2*n, joined, perRow)
	}
}

// TestHashTablesCompareKeysOnEqualHash: two keys whose hashes agree on all
// 64 bits are still two keys. hashFloat of a non-integral float is mix64
// of its bits salted with hashSeedFloat and hashInt is mix64 of the
// integer, so the INT below and 0.5 collide by construction; only the key
// compare after an equal hash tells them apart, in the aggregate's table
// and in the join's.
func TestHashTablesCompareKeysOnEqualHash(t *testing.T) {
	f := 0.5
	n := int64(math.Float64bits(f) ^ hashSeedFloat)
	if hashValue(sqltypes.NewInt(n)) != hashValue(sqltypes.NewFloat(f)) {
		t.Fatalf("%d and %v no longer hash alike: pick another pair", n, f)
	}
	ints := []sqltypes.Row{{i64(n)}, {i64(n)}}
	floats := []sqltypes.Row{{sqltypes.NewFloat(f)}}

	// One generic column holding both values: two groups.
	groups := run(t, &SpillableAggregate{
		GroupBy: []expr.Expr{col(0)},
		Aggs:    []AggSpec{{Name: "COUNT", Factory: BuiltinAggregate("count")}},
		Child:   NewValues(append(append([]sqltypes.Row{}, ints...), floats...)),
	})
	if got := canonRows(groups); !reflect.DeepEqual(got, canonRows([]sqltypes.Row{{i64(n), i64(2)}, {sqltypes.NewFloat(f), i64(1)}})) {
		t.Errorf("GROUP BY over %d, %d, %v: groups %v, want 2", n, n, f, got)
	}
	// An INT column against a FLOAT column: nothing joins, either side built.
	for _, buildLeft := range []bool{false, true} {
		j := &PartitionedHashJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)}, LeftWidth: 1,
			Left: NewValues(ints), Right: NewValues(floats), BuildLeft: buildLeft, Bloom: true,
		}
		if rows := run(t, j); len(rows) != 0 {
			t.Errorf("buildLeft=%v: %d = %v joined %d rows, want 0", buildLeft, n, f, len(rows))
		}
	}
}
