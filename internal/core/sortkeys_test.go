package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// oracleKey is one ORDER BY term computed in plain Go.
type oracleKey struct {
	of   func(sqltypes.Row) sqltypes.Value
	desc bool
}

// oracleOrder is the reference for every ORDER BY below: a stable sort of
// rows (in table order) by keys computed in Go and compared with
// sqltypes.Compare, so equal keys keep table order.
func oracleOrder(rows []sqltypes.Row, keys []oracleKey) []sqltypes.Row {
	out := slices.Clone(rows)
	slices.SortStableFunc(out, func(a, b sqltypes.Row) int {
		for _, k := range keys {
			if c := sqltypes.Compare(k.of(a), k.of(b)); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return out
}

// TestComputedSortKeysMatchOracle holds ORDER BY, TOP n ORDER BY and
// ROW_NUMBER() OVER (ORDER BY ...) over keys that are expressions, not
// columns, to a Go oracle: at DOP 1 and at DOP 4 (where the plans are a
// merge of per-partition sorts and per-partition Top N sorts), each under
// an unlimited sort budget and a 4 KB one that spills runs. Keys tie,
// and text keys are NULL and repeat, so a tie out of table order is a
// difference.
func TestComputedSortKeysMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	words := []string{"abc", "Abc", "ab", "x", "hello", "Hello", "genome", "GENOME", "", "ACGTACGT"}
	table := make([]sqltypes.Row, 600) // id, s, q
	for i := range table {
		s, q := sqltypes.NewString(words[rng.Intn(len(words))]), sqltypes.NewInt(int64(rng.Intn(20)))
		if rng.Intn(7) == 0 {
			s = sqltypes.Null
		}
		if rng.Intn(9) == 0 {
			q = sqltypes.Null
		}
		table[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), s, q}
	}
	counts := map[int64]int64{} // q's groups; NULL is -1
	for _, r := range table {
		g := int64(-1)
		if !r[2].IsNull() {
			g = r[2].I
		}
		counts[g]++
	}
	var groups []sqltypes.Row // q, COUNT(*)
	for g, n := range counts {
		q := sqltypes.NewInt(g)
		if g < 0 {
			q = sqltypes.Null
		}
		groups = append(groups, sqltypes.Row{q, sqltypes.NewInt(n)})
	}

	intOf := func(v sqltypes.Value, f func(int64) int64) sqltypes.Value {
		if v.IsNull() {
			return v
		}
		return sqltypes.NewInt(f(v.I))
	}
	length := func(r sqltypes.Row) sqltypes.Value {
		if r[1].IsNull() {
			return r[1]
		}
		return sqltypes.NewInt(int64(len(r[1].S)))
	}
	upper := func(r sqltypes.Row) sqltypes.Value {
		if r[1].IsNull() {
			return r[1]
		}
		return sqltypes.NewString(strings.ToUpper(r[1].S))
	}
	id := func(r sqltypes.Row) sqltypes.Value { return r[0] }
	cols := func(idx ...int) func(sqltypes.Row, int) sqltypes.Row {
		return func(r sqltypes.Row, _ int) sqltypes.Row {
			out := make(sqltypes.Row, len(idx))
			for i, c := range idx {
				out[i] = r[c]
			}
			return out
		}
	}
	queries := []struct {
		sql   string
		rows  []sqltypes.Row
		keys  []oracleKey
		top   int
		out   func(r sqltypes.Row, pos int) sqltypes.Row
		plan4 string // the operator the DOP-4 plan shows
	}{
		{`SELECT id, s FROM t ORDER BY LEN(s) DESC, id`, table,
			[]oracleKey{{length, true}, {id, false}}, -1, cols(0, 1), "Merge Gather"},
		{`SELECT id, q FROM t ORDER BY q % 4, id DESC`, table,
			[]oracleKey{{func(r sqltypes.Row) sqltypes.Value { return intOf(r[2], func(q int64) int64 { return q % 4 }) }, false},
				{id, true}}, -1, cols(0, 2), "Merge Gather"},
		{`SELECT id, s FROM t ORDER BY UPPER(s)`, table,
			[]oracleKey{{upper, false}}, -1, cols(0, 1), "Merge Gather"},
		{`SELECT TOP 5 id, s FROM t ORDER BY LEN(s) DESC, id`, table,
			[]oracleKey{{length, true}, {id, false}}, 5, cols(0, 1), "Top N Sort (per-partition)"},
		{`SELECT TOP 5 id, q FROM t ORDER BY q * 1000 + id DESC`, table,
			[]oracleKey{{func(r sqltypes.Row) sqltypes.Value {
				return intOf(r[2], func(q int64) int64 { return q*1000 + r[0].I })
			}, true}},
			5, cols(0, 2), "Top N Sort (per-partition)"},
		{`SELECT id, q, ROW_NUMBER() OVER (ORDER BY q * 2 DESC) AS rn FROM t`, table,
			[]oracleKey{{func(r sqltypes.Row) sqltypes.Value { return intOf(r[2], func(q int64) int64 { return q * 2 }) }, true}}, -1,
			func(r sqltypes.Row, pos int) sqltypes.Row {
				return sqltypes.Row{r[0], r[2], sqltypes.NewInt(int64(pos + 1))}
			},
			"Merge Gather"},
		{`SELECT q, COUNT(*) AS n FROM t GROUP BY q ORDER BY COUNT(*) + 1 DESC, q`, groups,
			[]oracleKey{{func(r sqltypes.Row) sqltypes.Value { return intOf(r[1], func(n int64) int64 { return n + 1 }) }, true},
				{func(r sqltypes.Row) sqltypes.Value { return r[0] }, false}}, -1, cols(0, 1), "Sort"},
		{`SELECT id, LEN(s) AS l FROM t ORDER BY l`, table,
			[]oracleKey{{length, false}}, -1,
			func(r sqltypes.Row, _ int) sqltypes.Row { return sqltypes.Row{r[0], length(r)} }, "Merge Gather"},
		{`SELECT * FROM t ORDER BY q % 3 DESC`, table,
			[]oracleKey{{func(r sqltypes.Row) sqltypes.Value { return intOf(r[2], func(q int64) int64 { return q % 3 }) }, true}}, -1,
			cols(0, 1, 2), "Merge Gather"},
	}

	for _, budget := range []int64{0, 4 << 10} {
		db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		mustExec(t, db, `CREATE TABLE t (id INT, s VARCHAR(20), q INT)`)
		if err := db.InsertRows("t", table); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CHECKPOINT")
		db.sortBudget, db.threshold = budget, 64
		for _, dop := range []int{1, 4} {
			db.SetDOP(dop)
			for _, q := range queries {
				if dop == 4 {
					if p := mustExec(t, db, "EXPLAIN "+q.sql).Plan; !strings.Contains(p, q.plan4) {
						t.Fatalf("%s at DOP 4: no %q in the plan:\n%s", q.sql, q.plan4, p)
					}
				}
				sorted := oracleOrder(q.rows, q.keys)
				if q.top >= 0 {
					sorted = sorted[:min(q.top, len(sorted))]
				}
				want := make([]string, len(sorted))
				for i, r := range sorted {
					want[i] = fmt.Sprint(q.out(r, i))
				}
				got := ordered(mustExec(t, db, q.sql))
				if !slices.Equal(got, want) {
					i := 0
					for i < min(len(got), len(want)) && got[i] == want[i] {
						i++
					}
					t.Errorf("%s, DOP %d, budget %d: %d rows, the oracle %d; first difference at row %d", q.sql, dop, budget, len(got), len(want), i)
					if i < min(len(got), len(want)) {
						t.Errorf("  got %s, want %s", got[i], want[i])
					}
				}
			}
		}
		if runs := engineCounters(db)[obs.SortRuns]; budget > 0 && runs == 0 {
			t.Errorf("budget %d: no sort spilled a run", budget)
		}
	}
}
