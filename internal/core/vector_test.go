package core

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// writtenRows serves the rows a test wrote, in their query form, as a
// table-valued function. It is the reference of the scan equivalence
// tests: the expected answer to a statement over a table is the same
// statement over the generator's own rows, which enter the plan as boxed
// vectors through the table-function leaf — the path ListShortReads
// takes — and through no page or leaf decoder.
type writtenRows struct {
	cols []catalog.Column
	rows []sqltypes.Row
}

func (w writtenRows) Schema([]sqltypes.Value) ([]catalog.Column, error) { return w.cols, nil }

func (w writtenRows) Open(_ *exec.Context, _ []*vec.Vector, sel []int, _ []bool) (exec.TableIterator, error) {
	return &rowsTable{width: len(w.cols), sel: sel, expand: func(int) ([]sqltypes.Row, error) { return w.rows, nil }}, nil
}

// rowsTable is the test functions' TableIterator: expand gives each outer
// row's output rows, and they are boxed into generic vectors a batch at a
// time.
type rowsTable struct {
	width  int
	sel    []int
	expand func(outer int) ([]sqltypes.Row, error)
	k      int // rows of outer row sel[k-1] are pending
	rows   []sqltypes.Row
	outer  []int
}

func (t *rowsTable) NextBatch() (*vec.Batch, error) {
	cols := make([]*vec.Vector, t.width)
	for i := range cols {
		cols[i] = vec.NewVector(sqltypes.KindNull, 8)
	}
	t.outer = t.outer[:0]
	for len(t.outer) < vec.DefaultBatchSize {
		if len(t.rows) == 0 {
			if t.k == len(t.sel) {
				break
			}
			rows, err := t.expand(t.sel[t.k])
			if err != nil {
				return nil, err
			}
			t.rows, t.k = rows, t.k+1
			continue
		}
		for i, v := range t.rows[0] {
			cols[i].Append(v)
		}
		t.rows = t.rows[1:]
		t.outer = append(t.outer, t.sel[t.k-1])
	}
	if len(t.outer) == 0 {
		return nil, nil
	}
	return vec.NewBatch(cols, len(t.outer)), nil
}

func (t *rowsTable) Outer() []int { return t.outer }
func (t *rowsTable) Close() error { return nil }

// registerWritten installs rows as the TVF written(), its columns named
// like the table's.
func registerWritten(db *Database, names []string, rows []sqltypes.Row) {
	cols := make([]catalog.Column, len(names))
	for i, n := range names {
		cols[i] = catalog.Column{Name: n}
	}
	db.RegisterTVF("written", writtenRows{cols: cols, rows: rows})
}

// insertStatements renders rows as multi-row INSERTs of perStmt rows.
func insertStatements(table string, rows []sqltypes.Row, perStmt int) []string {
	var out []string
	var sb strings.Builder
	for i, row := range rows {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO " + table + " VALUES ")
		} else {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for j, v := range row {
			if j > 0 {
				sb.WriteString(", ")
			}
			switch v.K {
			case sqltypes.KindNull:
				sb.WriteString("NULL")
			case sqltypes.KindString:
				sb.WriteString("'" + v.S + "'")
			case sqltypes.KindFloat:
				sb.WriteString(strconv.FormatFloat(v.F, 'f', -1, 64))
			default: // INT, and BIT as 0/1
				fmt.Fprintf(&sb, "%d", v.I)
			}
		}
		sb.WriteString(")")
		if (i+1)%perStmt == 0 || i == len(rows)-1 {
			out = append(out, sb.String())
			sb.Reset()
		}
	}
	return out
}

// vecFuzzColumn is one randomly-generated column of the fuzz schema.
type vecFuzzColumn struct {
	name string
	typ  string // SQL type
	gen  func(r *rand.Rand) sqltypes.Value
}

var seqAlphabet = []byte("ACGT")

// nullable wraps a generator with a NULL probability.
func nullable(p float64, gen func(r *rand.Rand) sqltypes.Value) func(r *rand.Rand) sqltypes.Value {
	return func(r *rand.Rand) sqltypes.Value {
		if r.Float64() < p {
			return sqltypes.Null
		}
		return gen(r)
	}
}

// runLength repeats a generator's value for short runs, producing the
// repeated values RLE and dictionary page encodings compress.
func runLength(gen func(r *rand.Rand) sqltypes.Value) func(r *rand.Rand) sqltypes.Value {
	var cur sqltypes.Value
	var left int
	return func(r *rand.Rand) sqltypes.Value {
		if left == 0 {
			cur = gen(r)
			left = 1 + r.Intn(8)
		}
		left--
		return cur
	}
}

var vecFuzzWords = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

// vecFuzzRows is the size of the fuzz table.
const vecFuzzRows = 3000

// randomVecSchema builds id BIGINT plus, in random order, one column of
// every storage kind — each with NULLs — and up to two repeats: low-NDV
// strings (dictionary), prefixed distinct strings (PAGE prefix compression),
// run-heavy 4-byte INTs (RLE) beside wide BIGINTs, floats, BITs and 2-bit
// packable sequences.
func randomVecSchema(r *rand.Rand) []vecFuzzColumn {
	cols := []vecFuzzColumn{{name: "id", typ: "BIGINT"}} // filled by row counter
	kinds := []func(i int) vecFuzzColumn{
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "INT",
				gen: nullable(0.15, runLength(func(r *rand.Rand) sqltypes.Value {
					return sqltypes.NewInt(int64(r.Intn(40) - 20)) // negatives: 4-byte cells sign-extend
				}))}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "VARCHAR(16)",
				gen: nullable(0.1, runLength(func(r *rand.Rand) sqltypes.Value {
					return sqltypes.NewString(vecFuzzWords[r.Intn(len(vecFuzzWords))])
				}))}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "FLOAT",
				gen: nullable(0.1, func(r *rand.Rand) sqltypes.Value {
					return sqltypes.NewFloat(math.Round(r.Float64()*1e6) / 1e4)
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "SEQUENCE",
				gen: nullable(0.1, func(r *rand.Rand) sqltypes.Value {
					n := 4 + r.Intn(12)
					b := make([]byte, n)
					for j := range b {
						b[j] = seqAlphabet[r.Intn(4)]
					}
					return sqltypes.NewString(string(b))
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "BIGINT",
				gen: nullable(0.2, func(r *rand.Rand) sqltypes.Value {
					return sqltypes.NewInt(r.Int63n(1<<40) - (1 << 39))
				})}
		},
		func(i int) vecFuzzColumn {
			// Distinct values behind one long prefix in the first half of the
			// table, a few words after it: PAGE compression seals the first as
			// compressed pages (the prefix is stored once), the second as
			// columnar ones (a dictionary).
			calls := 0
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "VARCHAR(40)",
				gen: nullable(0.1, func(r *rand.Rand) sqltypes.Value {
					if calls++; calls < vecFuzzRows/2 {
						return sqltypes.NewString(fmt.Sprintf("flowcell-HX7:lane3:%d", r.Intn(1<<20)))
					}
					return sqltypes.NewString(vecFuzzWords[r.Intn(len(vecFuzzWords))])
				})}
		},
		func(i int) vecFuzzColumn {
			return vecFuzzColumn{name: fmt.Sprintf("c%d", i), typ: "BIT",
				gen: nullable(0.1, func(r *rand.Rand) sqltypes.Value {
					return sqltypes.NewBool(r.Intn(2) == 1)
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
	// cardinality is comparable with the reference.
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
// nondeterministically).
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

// TestVectorizedRowEquivalenceFuzz loads random data (random schemas,
// NULLs, dictionary/RLE/packed-friendly distributions) into an engine at
// DOP 1 and one at DOP 4 and asserts that every query of the battery over
// the table returns the multiset of rows the same query returns over the
// rows that were written (writtenRows) — while the table is sealed pages
// plus an in-memory tail, and again after CHECKPOINT has sealed the tail.
// Seeds rotate over the three storage formats: NONE and ROW seal row pages
// (the late-materializing kernel, fixed-width and varint cells), PAGE seals
// compressed and columnar pages.
func TestVectorizedRowEquivalenceFuzz(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			cols := randomVecSchema(r)

			defs, names := make([]string, len(cols)), make([]string, len(cols))
			for i, c := range cols {
				defs[i], names[i] = c.name+" "+c.typ, c.name
			}
			compression := [...]string{
				"",
				" WITH (DATA_COMPRESSION = ROW)",
				" WITH (DATA_COMPRESSION = PAGE)",
			}[seed%3]
			ddl := fmt.Sprintf("CREATE TABLE t (%s)%s", strings.Join(defs, ", "), compression)

			written := make([]sqltypes.Row, vecFuzzRows)
			for i := range written {
				written[i] = make(sqltypes.Row, len(cols))
				written[i][0] = sqltypes.NewInt(int64(i))
				for j, c := range cols[1:] {
					written[i][j+1] = c.gen(r)
				}
			}
			inserts := insertStatements("t", written, 200)

			type engine struct {
				name string
				db   *Database
			}
			var engines []engine
			for _, dop := range []int{1, 4} {
				name := fmt.Sprintf("dop%d", dop)
				db, err := Open(filepath.Join(t.TempDir(), name), Options{DOP: dop})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { db.Close() })
				db.threshold = 64 // DOP-4 scans over 3 000 rows
				db.SetDOP(dop)
				mustExec(t, db, ddl)
				for _, ins := range inserts {
					mustExec(t, db, ins)
				}
				engines = append(engines, engine{name, db})
			}
			registerWritten(engines[0].db, names, written)

			for _, stage := range []string{"loaded", "checkpointed"} {
				if stage == "checkpointed" {
					for _, e := range engines {
						mustExec(t, e.db, `CHECKPOINT`)
					}
				}
				for _, q := range vecFuzzQueries(cols) {
					ref := strings.Replace(q.sql, "FROM t", "FROM written()", 1)
					want := renderRows(mustExec(t, engines[0].db, ref))
					for _, e := range engines {
						got := renderRows(mustExec(t, e.db, q.sql))
						if len(got) != len(want) {
							t.Fatalf("%s, %s: %q returned %d rows, %d of the written rows qualify",
								stage, e.name, q.sql, len(got), len(want))
						}
						if q.countOnly {
							continue
						}
						for i := range got {
							if got[i] != want[i] {
								t.Fatalf("%s, %s: %q row %d = %q, over the written rows %q",
									stage, e.name, q.sql, i, got[i], want[i])
							}
						}
					}
				}
			}

			// The table statements ran the batch scan.
			if st := engineCounters(engines[1].db); st[obs.ScanBatches] == 0 {
				t.Fatal("the engine processed no batches")
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
