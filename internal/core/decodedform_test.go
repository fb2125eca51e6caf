package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// decodedArrays hashes every array-holding vector of every decoded form
// the buffer pool keeps, by vector, and counts which kinds of array it
// saw.
func decodedArrays(db *Database) (map[*vec.Vector]uint64, map[string]int) {
	sums := map[*vec.Vector]uint64{}
	seen := map[string]int{}
	db.pool.EachDecodedColumn(func(v *vec.Vector) {
		h := fnv.New64a()
		put := func(what string, n int, words func(i int) uint64) {
			if n > 0 {
				seen[what]++
			}
			var b [8]byte
			for i := 0; i < n; i++ {
				w := words(i)
				for j := range b {
					b[j] = byte(w >> (8 * j))
				}
				h.Write(b[:])
			}
		}
		put("Nulls", len(v.Nulls), func(i int) uint64 { return v.Nulls[i] })
		put("Ints", len(v.Ints), func(i int) uint64 { return uint64(v.Ints[i]) })
		put("Floats", len(v.Floats), func(i int) uint64 { return math.Float64bits(v.Floats[i]) })
		put("Codes", len(v.Codes), func(i int) uint64 { return uint64(v.Codes[i]) })
		put("Strs", len(v.Strs), func(i int) uint64 { h.Write([]byte(v.Strs[i])); return uint64(len(v.Strs[i])) })
		put("Byts", len(v.Byts), func(i int) uint64 { h.Write(v.Byts[i]); return uint64(len(v.Byts[i])) })
		put("Dict", len(v.Dict), func(i int) uint64 {
			d := v.Dict[i]
			h.Write([]byte(d.S))
			h.Write(d.B)
			return uint64(d.K)<<56 ^ uint64(d.I) ^ math.Float64bits(d.F)
		})
		sums[v] = h.Sum64()
	})
	return sums, seen
}

// TestSharedPagesAreNeverWritten runs the paper's query shapes over warm
// heaps whose pages every scan shares (the decoded forms the buffer pool
// keeps on its frames): a NONE heap with NULLs, a SEQUENCE column (packed
// bytes) and an index, and a PAGE heap (dictionary columns). The first
// pass reads the NONE heap's columns for the first time (lazy), later
// statements read them filled (flat). Every array of every kept form must
// hash the same after each pass as before it, and the second pass must
// return what the first did.
func TestSharedPagesAreNeverWritten(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	defer func() { db.planner.ForcePath = "" }()

	mustExec(t, db, `CREATE TABLE reads (id BIGINT, tag VARCHAR(20), s SEQUENCE, q INT)`)
	mustExec(t, db, `CREATE TABLE flows (id BIGINT, flow VARCHAR(12), qual INT) WITH (DATA_COMPRESSION = PAGE)`)
	const n = 3000
	reads, flows := make([]sqltypes.Row, n), make([]sqltypes.Row, n)
	for i := range reads {
		tag, q := sqltypes.NewString(fmt.Sprintf("tag-%d", i%9)), sqltypes.NewInt(int64(i*37%50))
		if i%5 == 0 {
			tag = sqltypes.Null
		}
		if i%7 == 0 {
			q = sqltypes.Null
		}
		s := strings.Repeat("ACGT", 3+i%4)[i%3:] + string("ACGN"[i%4])
		reads[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), tag, sqltypes.NewString(s), q}
		flows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("TACG%d", i%5)), sqltypes.NewInt(int64(i % 40))}
	}
	for name, rows := range map[string][]sqltypes.Row{"reads": reads, "flows": flows} {
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE INDEX idx_q ON reads(q)`)
	mustExec(t, db, `CHECKPOINT`)
	// Warm: every sealed page's form kept; COUNT(*) reads no column.
	mustExec(t, db, `SELECT COUNT(*) FROM reads`)
	mustExec(t, db, `SELECT COUNT(*) FROM flows`)

	battery := []struct{ sql, path string }{
		{`SELECT id, tag, q FROM reads WHERE q > 20 AND tag IS NOT NULL`, ""},
		{`SELECT id, s FROM reads WHERE tag = 'tag-3' OR q IS NULL`, ""},
		{`SELECT id, flow FROM flows WHERE flow = 'TACG3' AND qual < 20`, ""},
		{`SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, COUNT(*) AS freq, s
		    FROM reads WHERE CHARINDEX('N', s) = 0 GROUP BY s`, ""},
		{`SELECT r.id, r.tag, r.s, f.flow FROM reads r JOIN flows f ON r.id = f.id WHERE f.qual < 5`, ""},
		{`SELECT tag, COUNT(*), SUM(q), MIN(s) FROM reads GROUP BY tag`, ""},
		{`SELECT TOP 10 id, tag, s FROM reads ORDER BY q DESC, id`, ""},
		{`SELECT id, tag, s FROM reads WHERE q = 17`, "index"},
		{`SELECT ROW_NUMBER() OVER (ORDER BY id DESC) AS rn, id, tag FROM reads WHERE q >= 3 AND q <= 9`, ""},
	}
	run := func() [][]string {
		var out [][]string
		for _, q := range battery {
			db.planner.ForcePath = q.path
			if q.path != "" {
				if plan := mustExec(t, db, "EXPLAIN "+q.sql).Plan; !strings.Contains(plan, "Index Scan") {
					t.Fatalf("%s: forced index path planned\n%s", q.sql, plan)
				}
			}
			out = append(out, canonResult(mustExec(t, db, q.sql)))
		}
		db.planner.ForcePath = ""
		return out
	}
	check := func(pass string, before map[*vec.Vector]uint64) map[*vec.Vector]uint64 {
		t.Helper()
		after, _ := decodedArrays(db)
		for v, sum := range before {
			if got, ok := after[v]; !ok {
				t.Fatalf("%s: a decoded form was dropped from the pool", pass)
			} else if got != sum {
				t.Fatalf("%s wrote the arrays of a shared page's %s column", pass, v.Kind)
			}
		}
		return after
	}

	before, _ := decodedArrays(db)
	if len(before) == 0 {
		t.Fatal("the warm scans kept no decoded form")
	}
	first := run()
	filled := check("the first pass", before)
	second := run()
	check("the second pass", filled)
	if len(filled) <= len(before) {
		t.Errorf("the first pass filled no lazy column (%d arrays before, %d after)", len(before), len(filled))
	}
	for i := range battery {
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Errorf("%s: the second pass returned\n%v\nthe first\n%v", battery[i].sql, second[i], first[i])
		}
	}
	_, seen := decodedArrays(db)
	for _, what := range []string{"Nulls", "Ints", "Strs", "Byts", "Codes", "Dict"} {
		if seen[what] == 0 {
			t.Errorf("no kept form holds %s: the battery does not cover them", what)
		}
	}
}

// TestParallelScansShareFirstFills: several DOP-4 scans at once over the
// same warm pages, whose columns no scan has read yet, each return the
// written rows. Run under -race.
func TestParallelScansShareFirstFills(t *testing.T) {
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.threshold = 64
	db.SetDOP(4)

	mustExec(t, db, `CREATE TABLE reads (id BIGINT, tag VARCHAR(20), q INT)`)
	const n = 6000
	rows := make([]sqltypes.Row, n)
	want := map[string]bool{}
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("tag-%d", i%11)), sqltypes.NewInt(int64(i % 97))}
		if i%97 < 50 {
			want[fmt.Sprint(rows[i])] = true
		}
	}
	if err := db.InsertRows("reads", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	const sql = `SELECT id, tag, q FROM reads WHERE q < 50`
	if plan := mustExec(t, db, "EXPLAIN "+sql).Plan; !strings.Contains(plan, "DOP 4") {
		t.Fatalf("not a DOP-4 scan:\n%s", plan)
	}
	mustExec(t, db, `SELECT COUNT(*) FROM reads`) // keep the forms, read no column

	const clients = 4
	errs := make(chan error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := db.Exec(sql)
			if err != nil {
				errs <- err
				return
			}
			got := canonResult(res)
			if len(got) != len(want) {
				errs <- fmt.Errorf("%d rows, want %d", len(got), len(want))
				return
			}
			for _, r := range got {
				if !want[r] {
					errs <- fmt.Errorf("row %s was never written", r)
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
