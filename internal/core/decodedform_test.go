package core_test

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/udf"
	"repro/internal/vec"
)

// decodedArrays hashes every array-holding vector of every decoded form
// the buffer pool keeps, its dictionary's arrays included, by vector, and
// counts which kinds of array it saw.
func decodedArrays(db *core.Database) (map[*vec.Vector]uint64, map[string]int) {
	sums := map[*vec.Vector]uint64{}
	seen := map[string]int{}
	db.EachDecodedColumn(func(v *vec.Vector) {
		h := fnv.New64a()
		var put func(prefix string, v *vec.Vector)
		put = func(prefix string, v *vec.Vector) {
			hashWords(h, seen, prefix+"Nulls", v.Nulls)
			hashWords(h, seen, prefix+"Ints", v.Ints)
			floats := make([]uint64, len(v.Floats))
			for i, f := range v.Floats {
				floats[i] = math.Float64bits(f)
			}
			hashWords(h, seen, prefix+"Floats", floats)
			hashWords(h, seen, prefix+"Codes", v.Codes)
			hashWords(h, seen, prefix+"Offs", v.Offs)
			hashWords(h, seen, prefix+"Data", v.Data)
			if v.Dict != nil {
				seen[prefix+"Dict"]++
				put(prefix+"Dict", v.Dict)
			}
		}
		put("", v)
		sums[v] = h.Sum64()
	})
	return sums, seen
}

// hashWords writes every entry of s to h as 8 bytes, counting s in seen
// under what when it is not empty.
func hashWords[T ~int | ~int32 | ~int64 | ~uint64 | ~uint8](h hash.Hash64, seen map[string]int, what string, s []T) {
	if len(s) > 0 {
		seen[what]++
	}
	var b [8]byte
	for _, w := range s {
		for j := range b {
			b[j] = byte(uint64(w) >> (8 * j))
		}
		h.Write(b[:])
	}
}

func mustExec(t *testing.T, db *core.Database, sql string) *core.Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func canonResult(res *core.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

// TestSharedPagesAreNeverWritten runs the paper's query shapes over warm
// tables whose pages every scan shares (the decoded forms the buffer pool
// keeps on its frames). Heaps: a NONE heap with NULLs, a SEQUENCE column
// (packed bytes) and an index, and a PAGE heap (dictionary columns).
// Clustered tables, whose leaves keep their values' forms: the benchmark's
// ReseqRead (with a SEQUENCE column), Alignment and AlignmentSorted, read by
// Query 3 as consensus and as pivot, the merge join, a PK seek, ORDER BY on
// the clustering key and a DOP-4 scan over key ranges. The first pass reads
// the columns for the first time (lazy), later statements read them filled
// (flat). Every array of every kept form must hash the same after each
// pass as before it, and the second pass must return what the first did.
func TestSharedPagesAreNeverWritten(t *testing.T) {
	db, err := core.Open(filepath.Join(t.TempDir(), "db"), core.Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	udf.RegisterAll(db)
	db.SetParallelThreshold(64)

	mustExec(t, db, `CREATE TABLE reads (id BIGINT, tag VARCHAR(20), s SEQUENCE, q INT)`)
	mustExec(t, db, `CREATE TABLE flows (id BIGINT, flow VARCHAR(12), qual INT) WITH (DATA_COMPRESSION = PAGE)`)
	mustExec(t, db, `CREATE TABLE ReseqRead (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    short_read_seq VARCHAR(300), quals VARCHAR(300), packed SEQUENCE)`)
	mustExec(t, db, `CREATE TABLE Alignment (a_r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`)
	mustExec(t, db, `CREATE TABLE AlignmentSorted (a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(300), quals VARCHAR(300), PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	const n = 3000
	tables := map[string][]sqltypes.Row{}
	for i := 0; i < n; i++ {
		tag, q := sqltypes.NewString(fmt.Sprintf("tag-%d", i%9)), sqltypes.NewInt(int64(i*37%50))
		if i%5 == 0 {
			tag = sqltypes.Null
		}
		if i%7 == 0 {
			q = sqltypes.Null
		}
		s := strings.Repeat("ACGT", 3+i%4)[i%3:] + string("ACGN"[i%4])
		read := strings.Repeat("ACGT", 9)[i%4:][:30]
		quals := strings.Repeat("I", 30)
		mapq := sqltypes.NewInt(int64(i % 60))
		if i%11 == 0 {
			mapq = sqltypes.Null
		}
		tables["reads"] = append(tables["reads"], sqltypes.Row{sqltypes.NewInt(int64(i)), tag, sqltypes.NewString(s), q})
		tables["flows"] = append(tables["flows"], sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("TACG%d", i%5)), sqltypes.NewInt(int64(i % 40))})
		tables["ReseqRead"] = append(tables["ReseqRead"], sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(read), sqltypes.NewString(quals), sqltypes.NewString(s)})
		tables["Alignment"] = append(tables["Alignment"], sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(int64(i%4 + 1)), sqltypes.NewInt(int64(i / 4 * 10)), sqltypes.NewBool(i%2 == 0), mapq})
		tables["AlignmentSorted"] = append(tables["AlignmentSorted"], sqltypes.Row{sqltypes.NewInt(int64(i%4 + 1)), sqltypes.NewInt(int64(i / 4 * 10)), sqltypes.NewInt(int64(i)), sqltypes.NewString(read), sqltypes.NewString(quals)})
	}
	for name, rows := range tables {
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CREATE INDEX idx_q ON reads(q)`)
	mustExec(t, db, `CHECKPOINT`)
	// Warm: every sealed page's and every leaf's form kept; COUNT(*) reads
	// no column.
	for name := range tables {
		mustExec(t, db, `SELECT COUNT(*) FROM `+name)
	}

	battery := []struct {
		sql, path string
		dop       int    // 4: the plan must be partitioned
		plan      string // what EXPLAIN must show, if anything
	}{
		{`SELECT id, tag, q FROM reads WHERE q > 20 AND tag IS NOT NULL`, "", 1, ""},
		{`SELECT id, s FROM reads WHERE tag = 'tag-3' OR q IS NULL`, "", 1, ""},
		{`SELECT id, flow FROM flows WHERE flow = 'TACG3' AND qual < 20`, "", 1, ""},
		{`SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, COUNT(*) AS freq, s
		    FROM reads WHERE CHARINDEX('N', s) = 0 GROUP BY s`, "", 1, ""},
		{`SELECT r.id, r.tag, r.s, f.flow FROM reads r JOIN flows f ON r.id = f.id WHERE f.qual < 5`, "", 1, ""},
		{`SELECT tag, COUNT(*), SUM(q), MIN(s) FROM reads GROUP BY tag`, "", 1, ""},
		{`SELECT TOP 10 id, tag, s FROM reads ORDER BY q DESC, id`, "", 1, ""},
		{`SELECT id, tag, s FROM reads WHERE q = 17`, "index", 1, "Index Scan"},
		{`SELECT ROW_NUMBER() OVER (ORDER BY id DESC) AS rn, id, tag FROM reads WHERE q >= 3 AND q <= 9`, "", 1, ""},
		{`SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM AlignmentSorted GROUP BY a_g_id`, "", 1, "Clustered Index Scan"},
		{`SELECT a_g_id, AssembleSequence(position, b)
		    FROM (SELECT a_g_id, position, CallBase(base, qual) AS b
		            FROM AlignmentSorted CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
		           WHERE a_g_id = 1 AND a_pos < 2000
		           GROUP BY a_g_id, position) t
		   GROUP BY a_g_id`, "", 1, "SEEK"},
		{`SELECT COUNT(*) FROM Alignment JOIN ReseqRead ON a_r_id = r_id`, "", 1, "Merge Join"},
		{`SELECT r_id, short_read_seq, packed, a_pos, a_strand FROM Alignment JOIN ReseqRead ON a_r_id = r_id WHERE a_mapq > 40`, "", 1, "Merge Join"},
		{`SELECT short_read_seq, packed FROM ReseqRead WHERE r_id = 777`, "", 1, "SEEK"},
		{`SELECT a_g_id, a_pos, a_id, seq FROM AlignmentSorted WHERE a_g_id = 2 ORDER BY a_g_id, a_pos, a_id`, "", 1, ""},
		{`SELECT r_id, quals, packed FROM ReseqRead WHERE short_read_seq LIKE 'CGT%'`, "", 4, "DOP 4"},
		// Text keys grown by AppendRows from kept forms: group keys of a
		// heap's flat column, a PAGE heap's dictionary column and a leaf's
		// column; the build keys of hash joins on a flat and a leaf column.
		{`SELECT tag, COUNT(*), MAX(id) FROM reads WHERE q < 30 GROUP BY tag`, "", 1, "Aggregate"},
		{`SELECT flow, COUNT(*), MIN(id) FROM flows GROUP BY flow`, "", 1, "Aggregate"},
		{`SELECT short_read_seq, COUNT(*) FROM ReseqRead GROUP BY short_read_seq`, "", 1, "Aggregate"},
		{`SELECT r.id, r2.id, r.tag FROM reads r JOIN reads r2 ON r.tag = r2.tag WHERE r.id < 40 AND r2.q = 3`, "", 1, "Hash Match"},
		{`SELECT COUNT(*), MIN(x.r_id), MAX(a.a_id) FROM ReseqRead x JOIN AlignmentSorted a ON x.short_read_seq = a.seq
		   WHERE x.r_id < 9 AND a.a_id < 9`, "", 1, "Hash Match"},
	}
	run := func() [][]string {
		var out [][]string
		for _, q := range battery {
			db.SetDOP(q.dop)
			db.ForcePath(q.path)
			if q.plan != "" {
				if plan := mustExec(t, db, "EXPLAIN "+q.sql).Plan; !strings.Contains(plan, q.plan) {
					t.Fatalf("%s: no %q in the plan\n%s", q.sql, q.plan, plan)
				}
			}
			out = append(out, canonResult(mustExec(t, db, q.sql)))
		}
		db.SetDOP(1)
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
		if len(first[i]) == 0 {
			t.Errorf("%s returned no rows", battery[i].sql)
		}
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Errorf("%s: the second pass returned\n%v\nthe first\n%v", battery[i].sql, second[i], first[i])
		}
	}
	_, seen := decodedArrays(db)
	for _, what := range []string{"Nulls", "Ints", "Offs", "Data", "Codes", "Dict", "DictOffs", "DictData"} {
		if seen[what] == 0 {
			t.Errorf("no kept form holds %s: the battery does not cover them", what)
		}
	}
}

// TestParallelScansShareFirstFills: several DOP-4 scans at once over the
// same warm pages of a heap and leaves of a clustered table, whose columns
// no scan has read yet, each return the written rows. Run under -race.
func TestParallelScansShareFirstFills(t *testing.T) {
	db, err := core.Open(filepath.Join(t.TempDir(), "db"), core.Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	db.SetParallelThreshold(64)

	mustExec(t, db, `CREATE TABLE reads (id BIGINT, tag VARCHAR(20), q INT)`)
	mustExec(t, db, `CREATE TABLE creads (id BIGINT NOT NULL PRIMARY KEY CLUSTERED, tag VARCHAR(20), q INT)`)
	const n = 6000
	rows := make([]sqltypes.Row, n)
	want := map[string]bool{}
	for i := range rows {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("tag-%d", i%11)), sqltypes.NewInt(int64(i % 97))}
		if i%97 < 50 {
			want[fmt.Sprint(rows[i])] = true
		}
	}
	for _, table := range []string{"reads", "creads"} {
		if err := db.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CHECKPOINT`)
	for _, table := range []string{"reads", "creads"} {
		t.Run(table, func(t *testing.T) {
			sql := `SELECT id, tag, q FROM ` + table + ` WHERE q < 50`
			if plan := mustExec(t, db, "EXPLAIN "+sql).Plan; !strings.Contains(plan, "DOP 4") {
				t.Fatalf("not a DOP-4 scan:\n%s", plan)
			}
			mustExec(t, db, `SELECT COUNT(*) FROM `+table) // keep the forms, read no column

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
		})
	}
}
