package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/expr"
	"repro/internal/sqltypes"
)

// sortCase is one ORDER BY: the engine's sort terms and the same ordering
// in plain Go, for the reference.
type sortCase struct {
	name string
	keys []SortKey
	ref  func(sqltypes.Row) sqltypes.Row // the key values, NULLs included
	// computed, when set, is the key a Project appends to the input under
	// the sort, as the planner computes a key that is not a column; the
	// sorted rows carry it, as ref's one value.
	computed expr.Expr
}

// refSorted is the reference every operator that orders rows is held to:
// a stable sort of the input rows by keys computed in plain Go.
func refSorted(c sortCase, rows []sqltypes.Row) []sqltypes.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b sqltypes.Row) int {
		ka, kb := c.ref(a), c.ref(b)
		for i, k := range c.keys {
			if d := sqltypes.Compare(ka[i], kb[i]); d != 0 {
				if k.Desc {
					return -d
				}
				return d
			}
		}
		return 0
	})
	return out
}

// TestSortFamilyMatchesOracle holds every operator that orders rows to one
// reference, refSorted: Sort, ROW_NUMBER (over a sort and over a merge),
// TopN (serial, and per partition under an ordered Gather then final) and
// MergeSorted over one and four sorts of contiguous spans — each under a
// sort budget of 1 byte (one run per row), 4 KB (many runs and an in-memory
// tail) and none, over ties, NULLs, DESC, two-column and computed keys. The
// last input column is the row's position, so a tie out of input order is a
// difference. The input arrives in batches whose selection skips a decoy
// row, as scans deliver them.
func TestSortFamilyMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	input := make([]sqltypes.Row, 400)
	for i := range input {
		k1, k2 := i64(int64(rng.Intn(9))), str(fmt.Sprintf("s%d", rng.Intn(5)))
		if rng.Intn(8) == 0 {
			k1 = sqltypes.Null
		}
		if rng.Intn(6) == 0 {
			k2 = sqltypes.Null
		}
		input[i] = sqltypes.Row{k1, k2, str(fmt.Sprintf("payload-%d", rng.Intn(100))), i64(int64(i))}
	}
	forms := []colForm{formFlat, formDict, formGeneric, formFlat}
	var c sortCase // the case the shapes below build
	src := func(rows []sqltypes.Row) Operator {
		op := batchSources(t, batchesOf(t, rows, forms, 64), 1)[0]
		if c.computed != nil {
			op = &Project{Exprs: []expr.Expr{col(0), col(1), col(2), col(3), c.computed}, Child: op, InputWidth: 4}
		}
		return op
	}
	cases := []sortCase{
		{"k1", []SortKey{{Col: 0}}, func(r sqltypes.Row) sqltypes.Row { return sqltypes.Row{r[0]} }, nil},
		{"k1-desc", []SortKey{{Col: 0, Desc: true}}, func(r sqltypes.Row) sqltypes.Row { return sqltypes.Row{r[0]} }, nil},
		{"k2,k1-desc", []SortKey{{Col: 1}, {Col: 0, Desc: true}},
			func(r sqltypes.Row) sqltypes.Row { return sqltypes.Row{r[1], r[0]} }, nil},
		{"k1%4", []SortKey{{Col: 4}},
			func(r sqltypes.Row) sqltypes.Row {
				if r[0].IsNull() {
					return sqltypes.Row{sqltypes.Null}
				}
				return sqltypes.Row{i64(r[0].I % 4)}
			}, &expr.Arith{Op: expr.OpMod, L: col(0), R: lit(i64(4))}},
	}
	store := newTestSpillStore(t)
	sortOf := func(keys []SortKey, child Operator, budget int64) *Sort {
		return &Sort{Keys: keys, Child: child, MemoryBudget: budget, Spill: store}
	}
	mergeOf := func(keys []SortKey, rows []sqltypes.Row, n int, budget int64) *MergeSorted {
		sorts := make([]*Sort, n)
		for i := range sorts {
			sorts[i] = sortOf(keys, src(rows[len(rows)*i/n:len(rows)*(i+1)/n]), budget)
		}
		return &MergeSorted{Keys: keys, Children: sorts}
	}
	numbered := func(sorted []sqltypes.Row) []sqltypes.Row {
		out := make([]sqltypes.Row, len(sorted))
		for i, r := range sorted {
			out[i] = append(slices.Clone(r), i64(int64(i+1)))
		}
		return out
	}
	type shape struct {
		name  string
		build func(keys []SortKey, rows []sqltypes.Row, budget int64) Operator
		want  func(sorted []sqltypes.Row) []sqltypes.Row
	}
	shapes := []shape{
		{"Sort", func(k []SortKey, rows []sqltypes.Row, b int64) Operator { return sortOf(k, src(rows), b) },
			func(s []sqltypes.Row) []sqltypes.Row { return s }},
		{"ROW_NUMBER", func(k []SortKey, rows []sqltypes.Row, b int64) Operator {
			return &RowNumber{Child: sortOf(k, src(rows), b)}
		}, numbered},
		{"ROW_NUMBER/MergeSorted4", func(k []SortKey, rows []sqltypes.Row, b int64) Operator {
			return &RowNumber{Child: mergeOf(k, rows, 4, b)}
		}, numbered},
		{"MergeSorted1", func(k []SortKey, rows []sqltypes.Row, b int64) Operator { return mergeOf(k, rows, 1, b) },
			func(s []sqltypes.Row) []sqltypes.Row { return s }},
		{"MergeSorted4", func(k []SortKey, rows []sqltypes.Row, b int64) Operator { return mergeOf(k, rows, 4, b) },
			func(s []sqltypes.Row) []sqltypes.Row { return s }},
	}
	for _, n := range []int{0, 1, 7, len(input) + 5} {
		first := func(s []sqltypes.Row) []sqltypes.Row { return s[:min(n, len(s))] }
		shapes = append(shapes,
			shape{fmt.Sprintf("TopN%d", n), func(k []SortKey, rows []sqltypes.Row, _ int64) Operator {
				return &TopN{N: int64(n), Keys: k, Child: src(rows)}
			}, first},
			shape{fmt.Sprintf("TopN%d/partitions", n), func(k []SortKey, rows []sqltypes.Row, _ int64) Operator {
				parts := make([]Operator, 4)
				for i := range parts {
					parts[i] = &TopN{N: int64(n), Keys: k, Child: src(rows[len(rows)*i/4 : len(rows)*(i+1)/4])}
				}
				return &TopN{N: int64(n), Keys: k, Child: &Gather{Children: parts, Ordered: true}}
			}, first})
	}
	for _, rows := range [][]sqltypes.Row{nil, input[:1], input} {
		for _, c = range cases {
			sorted := refSorted(c, rows)
			if c.computed != nil {
				for i, r := range sorted {
					sorted[i] = append(slices.Clone(r), c.ref(r)...)
				}
			}
			for _, budget := range []int64{1, 4 << 10, 0} {
				for _, s := range shapes {
					got, err := Run(&Context{DOP: 2}, s.build(c.keys, rows, budget))
					if err != nil {
						t.Fatalf("%s %s, %d rows, budget %d: %v", s.name, c.name, len(rows), budget, err)
					}
					if want := s.want(sorted); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
						i := 0
						for i < min(len(got), len(want)) && reflect.DeepEqual(got[i], want[i]) {
							i++
						}
						t.Fatalf("%s %s, %d rows, budget %d: %d rows, the reference %d; first difference at row %d",
							s.name, c.name, len(rows), budget, len(got), len(want), i)
					}
				}
			}
		}
	}

	// A row that ties the Nth kept key is rejected before TopN reads it:
	// stable TOP N keeps the earliest of equals, so it could never be output.
	// Over all-equal keys TOP 1 therefore allocates nothing per input row.
	tied := make([]sqltypes.Row, 4096)
	for i := range tied {
		tied[i] = sqltypes.Row{i64(1), str("tie"), str("payload"), i64(int64(i))}
	}
	batches := batchesOf(t, tied, forms, 1024)
	allocs := testing.AllocsPerRun(5, func() {
		rows, err := Run(&Context{DOP: 1}, &TopN{N: 1, Keys: []SortKey{{Col: 0}}, Child: batchSources(t, batches, 1)[0]})
		if err != nil || len(rows) != 1 || rows[0][3].I != 0 {
			t.Fatalf("TOP 1 over ties = %v, %v", rows, err)
		}
	})
	if perRow := allocs / float64(len(tied)); perRow > 0.1 {
		t.Errorf("TOP 1 over %d tied rows: %.2f allocations a row, want at most 0.1 (tied rows are read)", len(tied), perRow)
	}
}
