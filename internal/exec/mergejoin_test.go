package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// mergeInput builds n rows sorted on their key as Compare orders it (NULLs
// first): INT or VARCHAR keys drawn from keySpace, a share nullPct of NULL
// keys, a share dupPct repeating the previous key, and a payload naming the
// row.
func mergeInput(rng *rand.Rand, n, keySpace int, strKeys bool, nullPct, dupPct int, side string) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, n)
	for len(rows) < n {
		var key sqltypes.Value
		switch {
		case rng.Intn(100) < nullPct:
			key = sqltypes.Null
		case len(rows) > 0 && rng.Intn(100) < dupPct:
			key = rows[len(rows)-1][0]
		case strKeys:
			key = str(fmt.Sprintf("k%05d", rng.Intn(keySpace)))
		default:
			key = i64(int64(rng.Intn(keySpace)) - 1)
		}
		rows = append(rows, sqltypes.Row{key, str(fmt.Sprintf("%s%d", side, len(rows)))})
	}
	return sortedOnKey(rows)
}

// sortedOnKey sorts rows on column 0, stably, as Compare orders it.
func sortedOnKey(rows []sqltypes.Row) []sqltypes.Row {
	sort.SliceStable(rows, func(i, j int) bool { return sqltypes.Compare(rows[i][0], rows[j][0]) < 0 })
	return rows
}

// firstDiff returns the first position at which got and want hold
// different rows — a cell of another kind or value, among the columns
// needed marks (nil = all) — or -1 when they are the same rows in the same
// order.
func firstDiff(got, want []sqltypes.Row, needed []bool) int {
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || len(got[i]) != len(want[i]) {
			return i
		}
		for c, v := range got[i] {
			if (needed == nil || needed[c]) && (v.K != want[i][c].K || sqltypes.Compare(v, want[i][c]) != 0) {
				return i
			}
		}
	}
	return -1
}

// formMixed, as a key form, cuts a side into batches whose keys take each
// of mergeKeyForms in turn: the key compare and the right columns' append
// change form between batches.
const formMixed colForm = -1

var (
	mergeKeyForms   = []colForm{formFlat, formDict, formLazy, formGeneric}
	mergeBatchSizes = []int{1, 2, 7, 1024}
)

// mergeBatches cuts rows (key, payload) into batches of size rows with the
// key in its form and the payload flat.
func mergeBatches(t testing.TB, rows []sqltypes.Row, form colForm, size int) []*vec.Batch {
	if form != formMixed {
		return batchesOf(t, rows, []colForm{form, formFlat}, size)
	}
	var out []*vec.Batch
	for from, k := 0, 0; from < len(rows); from, k = from+size, k+1 {
		part := rows[from:min(from+size, len(rows))]
		out = append(out, batchesOf(t, part, []colForm{mergeKeyForms[k%len(mergeKeyForms)], formFlat}, size)...)
	}
	return out
}

// checkMergeJoin merge-joins two inputs of (key, payload) batches on the
// key and compares the output, in order, with want — the nested-loop
// reference's: for each left row, the right rows with its key in their
// order. With needed set the join is pruned first, as a parent above it
// would, then opened and drained, and only the needed columns compare.
func checkMergeJoin(t *testing.T, name string, left, right []*vec.Batch, needed []bool, want []sqltypes.Row) {
	t.Helper()
	keys := []expr.Expr{col(0)}
	j := &MergeJoin{
		LeftKeys: keys, RightKeys: keys, LeftWidth: 2,
		Left: batchSources(t, left, 1)[0], Right: batchSources(t, right, 1)[0],
	}
	j.PruneColumns(needed)
	if err := j.Open(&Context{DOP: 1}); err != nil {
		t.Fatalf("%s: Open: %v", name, err)
	}
	rows, err := Drain(j)
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if i := firstDiff(rows, want, needed); i >= 0 {
		t.Fatalf("%s: %d rows, reference %d rows; first difference at row %d:\n got %v\nwant %v",
			name, len(rows), len(want), i, rows[min(i, len(rows)):min(i+3, len(rows))], want[min(i, len(want)):min(i+3, len(want))])
	}
}

// TestMergeJoinMatchesNestedLoop holds the merge join to the nested-loop
// reference over INT and VARCHAR keys from key spaces of 3, 50 and 5 000
// (long runs of duplicates on both sides to long skips), NULL keys, and an
// empty side. Each side's key is flat, dictionary-coded, lazy or boxed, and
// the sides are cut into batches of 1, 2, 7 or 1024 rows independently, so
// duplicate groups and skips cross batch boundaries on either side. Every
// third run is pruned to a subset of the output columns.
func TestMergeJoinMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(2609))
	type dataSet struct {
		name        string
		left, right []sqltypes.Row
	}
	var sets []dataSet
	for _, strKeys := range []bool{false, true} {
		for _, space := range []int{3, 50, 5000} {
			n := 300
			if space == 3 {
				n = 60
			}
			sets = append(sets, dataSet{fmt.Sprintf("str=%v/space=%d", strKeys, space),
				mergeInput(rng, n, space, strKeys, 8, 20, "l"), mergeInput(rng, n*5/4, space, strKeys, 8, 20, "r")})
		}
	}
	sets = append(sets,
		dataSet{"empty-left", nil, mergeInput(rng, 40, 5, false, 10, 20, "r")},
		dataSet{"empty-right", mergeInput(rng, 40, 5, true, 10, 20, "l"), nil})
	keys := []expr.Expr{col(0)}
	for _, d := range sets {
		full := nestedLoopJoin(t, d.left, d.right, keys, keys)
		if len(d.left) > 0 && len(d.right) > 0 && len(full) == 0 {
			t.Fatalf("%s: the reference joins nothing; pick another seed", d.name)
		}
		type cut struct {
			left bool
			form colForm
			size int
		}
		cuts := map[cut][]*vec.Batch{}
		batches := func(c cut) []*vec.Batch {
			if _, ok := cuts[c]; !ok {
				rows := d.right
				if c.left {
					rows = d.left
				}
				cuts[c] = mergeBatches(t, rows, c.form, c.size)
			}
			return cuts[c]
		}
		trial := 0
		for _, lf := range mergeKeyForms {
			for _, rf := range mergeKeyForms {
				for _, ls := range mergeBatchSizes {
					for _, rs := range mergeBatchSizes {
						var needed []bool
						if trial%3 == 1 {
							needed = make([]bool, 4)
							for c := range needed {
								needed[c] = (trial/3)&(1<<c) != 0
							}
						}
						trial++
						name := fmt.Sprintf("%s/forms=%d,%d/sizes=%d,%d/needed=%v", d.name, lf, rf, ls, rs, needed)
						checkMergeJoin(t, name, batches(cut{true, lf, ls}), batches(cut{false, rf, rs}), needed, full)
					}
				}
			}
		}
	}

	// An INT key against a FLOAT key: 2 joins 2.0, as it does in the hash
	// join, and 2 never joins 2.5.
	ints := rowsOf([]sqltypes.Value{i64(1), str("l0")}, []sqltypes.Value{i64(2), str("l1")},
		[]sqltypes.Value{i64(2), str("l2")}, []sqltypes.Value{i64(3), str("l3")}, []sqltypes.Value{i64(5), str("l4")})
	floats := rowsOf([]sqltypes.Value{sqltypes.NewFloat(0.5), str("r0")}, []sqltypes.Value{sqltypes.NewFloat(2), str("r1")},
		[]sqltypes.Value{sqltypes.NewFloat(2), str("r2")}, []sqltypes.Value{sqltypes.NewFloat(2.5), str("r3")},
		[]sqltypes.Value{sqltypes.NewFloat(3), str("r4")}, []sqltypes.Value{sqltypes.NewFloat(5.5), str("r5")})
	hashRows := run(t, &PartitionedHashJoin{LeftKeys: keys, RightKeys: keys, LeftWidth: 2, Left: NewValues(ints), Right: NewValues(floats)})
	if len(hashRows) != 5 {
		t.Fatalf("hash join of INT and FLOAT keys: %d rows, want 5", len(hashRows))
	}
	for _, forms := range [][2]colForm{{formFlat, formFlat}, {formGeneric, formDict}, {formLazy, formGeneric}} {
		for _, sizes := range [][2]int{{1, 1}, {2, 7}, {1024, 1}} {
			mergeRows := run(t, &MergeJoin{LeftKeys: keys, RightKeys: keys, LeftWidth: 2,
				Left:  batchSources(t, mergeBatches(t, ints, forms[0], sizes[0]), 1)[0],
				Right: batchSources(t, mergeBatches(t, floats, forms[1], sizes[1]), 1)[0],
			})
			if got, want := canonRows(mergeRows), canonRows(hashRows); !reflect.DeepEqual(got, want) {
				t.Errorf("INT vs FLOAT keys, forms %v, sizes %v: merge join %v, hash join %v", forms, sizes, got, want)
			}
		}
	}
}

// FuzzMergeJoinMatchesNestedLoop derives a merge join from the fuzz bytes —
// key kind, key space, NULL and duplicate rates, each side's length, key
// form (one of four, or all four batch by batch) and batch size, the output
// columns read — and holds it to the nested-loop reference.
func FuzzMergeJoinMatchesNestedLoop(f *testing.F) {
	f.Add([]byte{0, 1, 10, 40, 60, 70, 0, 1, 0, 2, 0x00, 1})
	f.Add([]byte{1, 7, 5, 30, 120, 90, 4, 3, 3, 7, 0x15, 2})
	f.Add([]byte{0, 200, 20, 10, 150, 190, 2, 4, 7, 1, 0x1f, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		forms := append([]colForm{formMixed}, mergeKeyForms...)
		sizes := []int{1, 2, 3, 5, 7, 64, 1000, 1024}
		strKeys := at(0)&1 == 1
		space := 1 + at(1)*at(1)/8 // 1 to 8 129
		nullPct, dupPct := at(2)%60, at(3)%95
		rng := rand.New(rand.NewSource(int64(at(11))<<8 | int64(at(12))))
		left := mergeInput(rng, at(4)%200, space, strKeys, nullPct, dupPct, "l")
		right := mergeInput(rng, at(5)%200, space, strKeys, nullPct, dupPct, "r")
		var needed []bool
		if m := at(10); m&0x10 != 0 {
			needed = []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0}
		}
		keys := []expr.Expr{col(0)}
		want := nestedLoopJoin(t, left, right, keys, keys)
		checkMergeJoin(t, fmt.Sprintf("%v", data),
			mergeBatches(t, left, forms[at(6)%len(forms)], sizes[at(8)%len(sizes)]),
			mergeBatches(t, right, forms[at(7)%len(forms)], sizes[at(9)%len(sizes)]), needed, want)
	})
}

// TestMergeJoinAllocsPerRow holds the merge join's cost without a clock,
// as TestHashJoinAllocsPerRow does the hash join's: 10 000 x 10 000 sorted
// INT keys and a consumer that reads no column (COUNT(*)) allocate per
// batch, not per row — at most 0.05 allocations an input row, where reading
// both inputs a row at a time, cloning every right row into its group and
// packing joined rows cost 0.84.
func TestMergeJoinAllocsPerRow(t *testing.T) {
	const n = 10_000
	forms := []colForm{formFlat, formFlat}
	lb := batchesOf(t, sortedOnKey(benchJoinRows(n, n, 1, "l")), forms, 1024)
	rb := batchesOf(t, sortedOnKey(benchJoinRows(n, n, 2, "r")), forms, 1024)
	var joined int
	allocs := testing.AllocsPerRun(5, func() {
		j := &MergeJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)}, LeftWidth: 2,
			Left: batchSources(t, lb, 1)[0], Right: batchSources(t, rb, 1)[0],
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
