package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/obs"
)

// vecFuzzColumn is one randomly-generated column of the fuzz schema.
type vecFuzzColumn struct {
	name string
	typ  string // SQL type
	gen  func(r *rand.Rand) string
}

var seqAlphabet = []byte("ACGT")

// nullable wraps a generator with a NULL probability.
func nullable(p float64, gen func(r *rand.Rand) string) func(r *rand.Rand) string {
	return func(r *rand.Rand) string {
		if r.Float64() < p {
			return "NULL"
		}
		return gen(r)
	}
}

// runLength repeats a generator's value for short runs, producing the
// repeated values RLE and dictionary page encodings compress.
func runLength(gen func(r *rand.Rand) string) func(r *rand.Rand) string {
	var cur string
	var left int
	return func(r *rand.Rand) string {
		if left == 0 {
			cur = gen(r)
			left = 1 + r.Intn(8)
		}
		left--
		return cur
	}
}

var vecFuzzWords = []string{"'alpha'", "'beta'", "'gamma'", "'delta'", "'epsilon'", "'zeta'"}

// randomVecSchema builds id BIGINT plus, in random order, one column of
// every storage kind — each with NULLs — and up to two repeats: low-NDV
// strings (dictionary), run-heavy 4-byte INTs (RLE) beside wide BIGINTs,
// floats, BITs and 2-bit packable sequences.
func randomVecSchema(r *rand.Rand) []vecFuzzColumn {
	cols := []vecFuzzColumn{{
		name: "id", typ: "BIGINT",
		gen: func(*rand.Rand) string { return "" }, // filled by row counter
	}}
	kinds := []func(i int) vecFuzzColumn{
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "INT",
				gen: nullable(0.15, runLength(func(r *rand.Rand) string {
					return fmt.Sprintf("%d", r.Intn(40)-20) // negatives: 4-byte cells sign-extend
				}))}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "VARCHAR(16)",
				gen: nullable(0.1, runLength(func(r *rand.Rand) string {
					return vecFuzzWords[r.Intn(len(vecFuzzWords))]
				}))}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "FLOAT",
				gen: nullable(0.1, func(r *rand.Rand) string {
					return fmt.Sprintf("%.4f", r.Float64()*100)
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "SEQUENCE",
				gen: nullable(0.1, func(r *rand.Rand) string {
					n := 4 + r.Intn(12)
					b := make([]byte, n)
					for j := range b {
						b[j] = seqAlphabet[r.Intn(4)]
					}
					return "'" + string(b) + "'"
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "BIGINT",
				gen: nullable(0.2, func(r *rand.Rand) string {
					return fmt.Sprintf("%d", r.Int63n(1<<40)-(1<<39))
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "BIT",
				gen: nullable(0.1, func(r *rand.Rand) string {
					return fmt.Sprintf("%d", r.Intn(2))
				})}
		},
	}
	picks := r.Perm(len(kinds))
	for extra := r.Intn(3); extra > 0; extra-- {
		picks = append(picks, r.Intn(len(kinds)))
	}
	for i, k := range picks {
		cols = append(cols, kinds[k](i))
	}
	return cols
}

// firstOfType returns the name of the first column of the given SQL type
// prefix, or "".
func firstOfType(cols []vecFuzzColumn, typ string) string {
	for _, c := range cols[1:] {
		if strings.HasPrefix(c.typ, typ) {
			return c.name
		}
	}
	return ""
}

// vecFuzzQueries derives the query battery from the schema: every
// vectorized kernel (typed comparisons, dictionary verdicts, packed
// equality, LIKE, IS NULL, Kleene logic, TopN, Limit, projection) plus a
// row-consumer (aggregate) above the batch scan.
type vecFuzzQuery struct {
	sql string
	// countOnly: TOP without ORDER BY returns an arbitrary subset, so only
	// cardinality is comparable across engines.
	countOnly bool
}

func vecFuzzQueries(cols []vecFuzzColumn) []vecFuzzQuery {
	qs := []vecFuzzQuery{
		{sql: `SELECT * FROM t`},
		{sql: `SELECT TOP 7 * FROM t ORDER BY id DESC`},
		{sql: `SELECT TOP 11 * FROM t`, countOnly: true},
		{sql: `SELECT COUNT(*) FROM t`},
		{sql: `SELECT id + 1 FROM t WHERE id > 50`},
		{sql: `SELECT * FROM t WHERE 1 = 1 AND id < 40`},
		{sql: `SELECT * FROM t WHERE 1 = 0`},
	}
	add := func(format string, args ...interface{}) {
		qs = append(qs, vecFuzzQuery{sql: fmt.Sprintf(format, args...)})
	}
	if c := firstOfType(cols, "INT"); c != "" {
		add(`SELECT * FROM t WHERE %s > 5`, c)
		add(`SELECT * FROM t WHERE %s = 3 OR %s IS NULL`, c, c)
		add(`SELECT * FROM t WHERE NOT (%s >= 10)`, c)
		add(`SELECT COUNT(*), SUM(%s) FROM t WHERE %s <> 7`, c, c)
		add(`SELECT TOP 9 * FROM t ORDER BY %s, id`, c)
	}
	if c := firstOfType(cols, "VARCHAR"); c != "" {
		add(`SELECT * FROM t WHERE %s = 'beta'`, c)
		add(`SELECT * FROM t WHERE %s LIKE '%%et%%'`, c)
		add(`SELECT * FROM t WHERE %s >= 'delta' AND id < 120`, c)
		add(`SELECT %s, COUNT(*) FROM t GROUP BY %s`, c, c)
	}
	if c := firstOfType(cols, "FLOAT"); c != "" {
		add(`SELECT * FROM t WHERE %s >= 25.0 AND %s < 75.0`, c, c)
		add(`SELECT TOP 5 * FROM t ORDER BY %s DESC, id`, c)
	}
	if c := firstOfType(cols, "SEQUENCE"); c != "" {
		add(`SELECT * FROM t WHERE %s = 'ACGT'`, c)
		add(`SELECT * FROM t WHERE %s IS NULL`, c)
		add(`SELECT %s FROM t WHERE %s LIKE 'AC%%'`, c, c)
		add(`SELECT %s, COUNT(*) FROM t GROUP BY %s`, c, c) // unfiltered scan pruned to the packed column
	}
	if c := firstOfType(cols, "BIT"); c != "" {
		add(`SELECT id, %s FROM t WHERE %s = 1`, c, c)
	}
	// Strict column subsets: what the query reads is less than what the
	// page holds, in the filter, the projection, a fallback expression
	// and below an aggregate.
	i4, i8 := firstOfType(cols, "INT"), firstOfType(cols, "BIGINT")
	str, flt := firstOfType(cols, "VARCHAR"), firstOfType(cols, "FLOAT")
	add(`SELECT %s FROM t`, i8)
	add(`SELECT COUNT(*) FROM t WHERE %s = 4 AND %s < 0`, i4, i8)
	add(`SELECT %s FROM t WHERE %s < 10 AND id > 100`, str, i4)
	add(`SELECT id, %s FROM t WHERE CHARINDEX('a', %s) = 2`, flt, str)
	add(`SELECT %s + id FROM t WHERE %s > 12`, i8, i4)
	add(`SELECT %s, COUNT(*), MIN(%s) FROM t WHERE %s > 50.0 GROUP BY %s`, i4, i8, flt, i4)
	return qs
}

// renderRows canonicalizes a result as a sorted multiset of row strings,
// so equivalence is order-insensitive (parallel gathers interleave
// nondeterministically on both paths).
func renderRows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = fmt.Sprintf("%d:%v", v.K, v)
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestVectorizedRowEquivalenceFuzz loads identical random data (random
// schemas, NULLs, dictionary/RLE/packed-friendly distributions) into a
// vectorized and a row-only engine at DOP 1 and DOP 4, and asserts every
// query in the battery returns the same multiset of rows on all four.
// Seeds rotate over the three storage formats: NONE and ROW seal row
// pages (the late-materializing kernel, fixed-width and varint cells),
// PAGE seals compressed and columnar pages.
func TestVectorizedRowEquivalenceFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cols := randomVecSchema(r)

			defs := make([]string, len(cols))
			for i, c := range cols {
				defs[i] = c.name + " " + c.typ
			}
			compression := [...]string{
				"",
				" WITH (DATA_COMPRESSION = ROW)",
				" WITH (DATA_COMPRESSION = PAGE)",
			}[seed%3]
			ddl := fmt.Sprintf("CREATE TABLE t (%s)%s", strings.Join(defs, ", "), compression)

			const nRows = 3000
			var inserts []string
			var sb strings.Builder
			for i := 0; i < nRows; i++ {
				if sb.Len() == 0 {
					sb.WriteString("INSERT INTO t VALUES ")
				} else {
					sb.WriteString(", ")
				}
				sb.WriteString("(")
				for j, c := range cols {
					if j > 0 {
						sb.WriteString(", ")
					}
					if j == 0 {
						fmt.Fprintf(&sb, "%d", i)
					} else {
						sb.WriteString(c.gen(r))
					}
				}
				sb.WriteString(")")
				if (i+1)%200 == 0 {
					inserts = append(inserts, sb.String())
					sb.Reset()
				}
			}
			if sb.Len() > 0 {
				inserts = append(inserts, sb.String())
			}

			type engine struct {
				name string
				db   *Database
			}
			var engines []engine
			for _, cfg := range []struct {
				name  string
				dop   int
				noVec bool
			}{
				{"vec-dop1", 1, false},
				{"vec-dop4", 4, false},
				{"row-dop1", 1, true},
				{"row-dop4", 4, true},
			} {
				db, err := Open(filepath.Join(t.TempDir(), cfg.name), Options{DOP: cfg.dop})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				db.noVec = cfg.noVec
				db.threshold = 64 // DOP-4 scans over 3 000 rows
				db.SetDOP(cfg.dop)
				mustExec(t, db, ddl)
				for _, ins := range inserts {
					mustExec(t, db, ins)
				}
				engines = append(engines, engine{cfg.name, db})
			}

			for _, q := range vecFuzzQueries(cols) {
				run := func(e engine) []string {
					res, err := e.db.Exec(q.sql)
					if err != nil {
						t.Fatalf("%s: Exec(%q): %v", e.name, q.sql, err)
					}
					return renderRows(res)
				}
				baseline := run(engines[0])
				for _, e := range engines[1:] {
					got := run(e)
					if len(got) != len(baseline) {
						t.Fatalf("%s: %q returned %d rows, %s returned %d",
							e.name, q.sql, len(got), engines[0].name, len(baseline))
					}
					if q.countOnly {
						continue
					}
					for i := range got {
						if got[i] != baseline[i] {
							t.Fatalf("%s: %q row %d = %q, %s has %q",
								e.name, q.sql, i, got[i], engines[0].name, baseline[i])
						}
					}
				}
			}

			// The vectorized engines actually ran the batch path.
			if st := engineCounters(engines[0].db); st[obs.ScanBatches] == 0 {
				t.Fatal("vectorized engine processed no batches")
			}
			if st := engineCounters(engines[2].db); st[obs.ScanBatches] != 0 {
				t.Fatal("row-only engine processed batches")
			}
		})
	}
}

// TestVectorizedExplainAndScanStats pins the visible contract: EXPLAIN
// annotates vectorized nodes, and a selective filter over a
// dictionary-encoded page-compressed column decodes dictionary entries,
// not dropped rows.
func TestVectorizedExplainAndScanStats(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE reads (id BIGINT, flow VARCHAR(12), qual INT) WITH (DATA_COMPRESSION = PAGE)`)
	var sb strings.Builder
	flows := []string{"run_a", "run_b", "run_c", "run_d"}
	const n = 4000
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO reads VALUES ")
		} else {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, '%s', %d)", i, flows[i%len(flows)], i%40)
		if (i+1)%250 == 0 {
			mustExec(t, db, sb.String())
			sb.Reset()
		}
	}

	res := mustExec(t, db, `EXPLAIN SELECT id FROM reads WHERE flow = 'run_b' ORDER BY id`)
	for _, line := range strings.Split(strings.TrimSpace(res.Plan), "\n") {
		// The scan and the projection work on vectors; the sort is still
		// rows inside.
		if strings.HasSuffix(line, " vectorized") == strings.Contains(line, "|--Sort ") {
			t.Errorf("EXPLAIN annotation on %q:\n%s", line, res.Plan)
		}
	}

	before := engineCounters(db)
	out := mustExec(t, db, `SELECT COUNT(*) FROM reads WHERE flow = 'run_b'`)
	if got := out.Rows[0][0].I; got != int64(n/len(flows)) {
		t.Fatalf("count = %d, want %d", got, n/len(flows))
	}
	d := engineCounters(db).Sub(before)
	if d[obs.ScanBatches] == 0 || d[obs.ScanRows] == 0 {
		t.Fatalf("no vectorized scan activity: %+v", d)
	}
	// The flow column is dictionary-encoded on sealed pages: it costs
	// O(dictionary entries) per page, never a per-row decode. The row path
	// decodes every cell (3·rows); here only the two non-dictionary
	// columns plus the in-memory tail decode per-cell, so total cell
	// decodes must stay well under 3·rows.
	if d[obs.ScanValuesDecoded]+d[obs.ScanDictEntriesDecoded] >= d[obs.ScanRows]*5/2 {
		t.Fatalf("decoded %d values + %d dict entries for %d scanned rows — the dictionary column was decompressed per-row",
			d[obs.ScanValuesDecoded], d[obs.ScanDictEntriesDecoded], d[obs.ScanRows])
	}
	if d[obs.ScanDictEntriesDecoded] == 0 {
		t.Fatal("no dictionary entries decoded — pages were not dictionary-encoded")
	}
}
