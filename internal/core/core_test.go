package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

func openTestDB(t *testing.T) *Database {
	t.Helper()
	db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// engineCounters reads the engine-wide counter set; tests assert on
// named counters of one reading or of the Sub of two.
func engineCounters(db *Database) obs.Snapshot { return db.sink.Engine.Snapshot() }

func mustExec(t testing.TB, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, NULL)`)
	res := mustExec(t, db, `SELECT a, b FROM t WHERE a >= 2`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Cols[0] != "a" || res.Cols[1] != "b" {
		t.Errorf("cols = %v", res.Cols)
	}
	if res.Rows[1][1].K != sqltypes.KindNull {
		t.Errorf("NULL round trip failed: %v", res.Rows[1])
	}
}

func TestInsertColumnList(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b VARCHAR(20), c FLOAT)`)
	mustExec(t, db, `INSERT INTO t (c, a) VALUES (2.5, 7)`)
	res := mustExec(t, db, `SELECT a, b, c FROM t`)
	r := res.Rows[0]
	if r[0].I != 7 || !r[1].IsNull() || r[2].F != 2.5 {
		t.Errorf("row = %v", r)
	}
}

func TestInsertErrors(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (a INT NOT NULL, b INT)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (NULL, 1)`); err == nil {
		t.Error("NULL into NOT NULL accepted")
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Error("arity mismatch accepted")
	}
	if _, err := db.Exec(`INSERT INTO nope VALUES (1)`); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Exec(`INSERT INTO t (z) VALUES (1)`); err == nil {
		t.Error("unknown column accepted")
	}
	// Failed statements must not leave partial rows (statement rollback).
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 1), (NULL, 2)`); err == nil {
		t.Error("second bad row accepted")
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("partial insert visible: %v", res.Rows)
	}
}

func TestGroupByAggregates(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE sales (region VARCHAR(10), amount INT)`)
	mustExec(t, db, `INSERT INTO sales VALUES ('e', 10), ('e', 20), ('w', 5), ('w', NULL)`)
	res := mustExec(t, db, `
	  SELECT region, COUNT(*), COUNT(amount), SUM(amount), MIN(amount), MAX(amount), AVG(amount)
	    FROM sales GROUP BY region ORDER BY region`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	e := res.Rows[0]
	if e[0].S != "e" || e[1].I != 2 || e[2].I != 2 || e[3].I != 30 || e[4].I != 10 || e[5].I != 20 || e[6].F != 15 {
		t.Errorf("east = %v", e)
	}
	w := res.Rows[1]
	if w[1].I != 2 || w[2].I != 1 || w[3].I != 5 {
		t.Errorf("west = %v", w)
	}
}

func TestHavingAndOrderByAggregate(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (g VARCHAR(5), v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a',1),('a',2),('b',1),('c',1),('c',2),('c',3)`)
	res := mustExec(t, db, `
	  SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) >= 2 ORDER BY COUNT(*) DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "c" || res.Rows[0][1].I != 3 {
		t.Errorf("first = %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "a" {
		t.Errorf("second = %v", res.Rows[1])
	}
}

func TestQuery1ShapeRowNumberOverCountDesc(t *testing.T) {
	// The paper's Query 1: binning unique short reads with ROW_NUMBER.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE [Read] (r_s_id INT, short_read_seq VARCHAR(100))`)
	mustExec(t, db, `INSERT INTO [Read] VALUES
	  (1,'ACGT'), (1,'ACGT'), (1,'ACGT'),
	  (1,'GGGG'), (1,'GGGG'),
	  (1,'TTTT'),
	  (1,'ACNT'),
	  (2,'CCCC')`)
	res := mustExec(t, db, `
	  SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank,
	         COUNT(*) AS freq, short_read_seq
	    FROM [Read]
	   WHERE r_s_id = 1 AND CHARINDEX('N', short_read_seq) = 0
	   GROUP BY short_read_seq`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	want := []struct {
		rank, freq int64
		seq        string
	}{{1, 3, "ACGT"}, {2, 2, "GGGG"}, {3, 1, "TTTT"}}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].I != w.rank || r[1].I != w.freq || r[2].S != w.seq {
			t.Errorf("row %d = %v, want %+v", i, r, w)
		}
	}
}

func TestJoinHash(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x VARCHAR(5))`)
	mustExec(t, db, `CREATE TABLE b (id INT, y VARCHAR(5))`)
	mustExec(t, db, `INSERT INTO a VALUES (1,'a1'), (2,'a2'), (3,'a3')`)
	mustExec(t, db, `INSERT INTO b VALUES (2,'b2'), (3,'b3'), (3,'b3x'), (4,'b4')`)
	res := mustExec(t, db, `
	  SELECT a.x, b.y FROM a JOIN b ON a.id = b.id ORDER BY a.x, b.y`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "a2" || res.Rows[0][1].S != "b2" {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestInsertSelect(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE src (g VARCHAR(5), v INT)`)
	mustExec(t, db, `CREATE TABLE agg (g VARCHAR(5), total INT, cnt INT)`)
	mustExec(t, db, `INSERT INTO src VALUES ('a',1),('a',2),('b',5)`)
	res := mustExec(t, db, `
	  INSERT INTO agg SELECT g, SUM(v), COUNT(*) FROM src GROUP BY g`)
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	out := mustExec(t, db, `SELECT g, total, cnt FROM agg ORDER BY g`)
	if out.Rows[0][1].I != 3 || out.Rows[1][1].I != 5 {
		t.Errorf("agg rows = %v", out.Rows)
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (g VARCHAR(5), v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a',1),('a',2),('b',5)`)
	res := mustExec(t, db, `
	  SELECT g, total FROM (SELECT g, SUM(v) AS total FROM t GROUP BY g) s
	   WHERE total > 2 ORDER BY g`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "a" || res.Rows[0][1].I != 3 {
		t.Errorf("first = %v", res.Rows[0])
	}
}

func TestTopAndOrderBy(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	for i := 0; i < 20; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d)`, (i*7)%20))
	}
	res := mustExec(t, db, `SELECT TOP 3 v FROM t ORDER BY v DESC`)
	if len(res.Rows) != 3 || res.Rows[0][0].I != 19 || res.Rows[2][0].I != 17 {
		t.Errorf("top rows = %v", res.Rows)
	}
	res2 := mustExec(t, db, `SELECT TOP 5 v FROM t`)
	if len(res2.Rows) != 5 {
		t.Errorf("limit rows = %d", len(res2.Rows))
	}
}

func TestScalarFunctionsInSQL(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR(50))`)
	mustExec(t, db, `INSERT INTO t VALUES ('GATTACA')`)
	res := mustExec(t, db, `
	  SELECT LEN(s), UPPER(s), SUBSTRING(s, 2, 3), CHARINDEX('TTA', s), DATALENGTH(s)
	    FROM t`)
	r := res.Rows[0]
	if r[0].I != 7 || r[1].S != "GATTACA" || r[2].S != "ATT" || r[3].I != 3 || r[4].I != 7 {
		t.Errorf("row = %v", r)
	}
}

func TestUserDefinedScalar(t *testing.T) {
	db := openTestDB(t)
	db.RegisterScalar("revcomp", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 || args[0].IsNull() {
			return sqltypes.Null, nil
		}
		s := []byte(args[0].AsString())
		out := make([]byte, len(s))
		comp := map[byte]byte{'A': 'T', 'T': 'A', 'C': 'G', 'G': 'C'}
		for i := range s {
			out[len(s)-1-i] = comp[s[i]]
		}
		return sqltypes.NewString(string(out)), nil
	})
	mustExec(t, db, `CREATE TABLE t (s VARCHAR(10))`)
	mustExec(t, db, `INSERT INTO t VALUES ('AACG')`)
	res := mustExec(t, db, `SELECT revcomp(s) FROM t`)
	if res.Rows[0][0].S != "CGTT" {
		t.Errorf("revcomp = %v", res.Rows[0])
	}
}

// TestScalarOverridesReachFiltersAndProjections: a function registered
// under a built-in's name replaces the built-in wherever a statement calls
// it — a WHERE over a flat column, one over a PAGE table's dictionary
// column, and a SELECT list.
func TestScalarOverridesReachFiltersAndProjections(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE flat (s VARCHAR(20))`)
	mustExec(t, db, `CREATE TABLE dict (s VARCHAR(20)) WITH (DATA_COMPRESSION = PAGE)`)
	var rows []sqltypes.Row
	for i := 0; i < 3000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewString([]string{"ACGT", "ACNT", "NNNN", "GG"}[i%4])})
	}
	for _, table := range []string{"flat", "dict"} {
		if err := db.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, db, `CHECKPOINT`)
	// CHARINDEX becomes the length of its second argument, LEN a constant.
	db.RegisterScalar("CHARINDEX", func(args []sqltypes.Value) (sqltypes.Value, error) {
		return sqltypes.NewInt(int64(len(args[1].AsString()))), nil
	})
	db.RegisterScalar("len", func(args []sqltypes.Value) (sqltypes.Value, error) {
		return sqltypes.NewInt(-7), nil
	})
	for _, table := range []string{"flat", "dict"} {
		// The built-in finds no 'N' at position 2; the override keeps "GG".
		res := mustExec(t, db, `SELECT COUNT(*) FROM `+table+` WHERE CHARINDEX('N', s) = 2`)
		if got := res.Rows[0][0].I; got != 750 {
			t.Errorf("%s: WHERE CHARINDEX('N', s) = 2 kept %d rows, the override keeps 750", table, got)
		}
		res = mustExec(t, db, `SELECT COUNT(*) FROM `+table+` WHERE LEN(s) < 0`)
		if got := res.Rows[0][0].I; got != 3000 {
			t.Errorf("%s: WHERE LEN(s) < 0 kept %d rows, the override keeps 3000", table, got)
		}
		res = mustExec(t, db, `SELECT CHARINDEX('N', s), LEN(s) FROM `+table+` WHERE s = 'ACNT'`)
		if len(res.Rows) != 750 {
			t.Fatalf("%s: %d rows, want 750", table, len(res.Rows))
		}
		for _, r := range res.Rows {
			if r[0].I != 4 || r[1].I != -7 {
				t.Fatalf("%s: SELECT CHARINDEX('N', s), LEN(s) = %v, the overrides give [4 -7]", table, r)
			}
		}
	}
}

// sumSquares is a tiny UDA used to prove UDA registration + parallel merge.
type sumSquares struct{ total int64 }

func (s *sumSquares) Add(args []sqltypes.Value) error {
	if len(args) != 1 || args[0].IsNull() {
		return nil
	}
	v, err := args[0].AsInt()
	if err != nil {
		return err
	}
	s.total += v * v
	return nil
}
func (s *sumSquares) Merge(o exec.AggState) error {
	s.total += o.(*sumSquares).total
	return nil
}
func (s *sumSquares) Result() (sqltypes.Value, error) { return sqltypes.NewInt(s.total), nil }

func TestUserDefinedAggregate(t *testing.T) {
	db := openTestDB(t)
	db.RegisterAggregate("sumsq", func() exec.AggState { return &sumSquares{} })
	mustExec(t, db, `CREATE TABLE t (g VARCHAR(5), v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES ('a',1),('a',2),('b',3)`)
	res := mustExec(t, db, `SELECT g, sumsq(v) FROM t GROUP BY g ORDER BY g`)
	if res.Rows[0][1].I != 5 || res.Rows[1][1].I != 9 {
		t.Errorf("rows = %v", res.Rows)
	}
}

// rangeTVF yields rows 0..n-1; a minimal pull-model TVF.
type rangeTVF struct{}

func (rangeTVF) Schema(args []sqltypes.Value) ([]catalog.Column, error) {
	it, _ := catalog.ParseType("INT")
	return []catalog.Column{{Name: "n", Type: it}}, nil
}

func (rangeTVF) Open(_ *exec.Context, args []*vec.Vector, sel []int, _ []bool) (exec.TableIterator, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("range takes 1 arg")
	}
	return &rowsTable{width: 1, sel: sel, expand: func(r int) ([]sqltypes.Row, error) {
		v, err := args[0].Value(r)
		if err != nil {
			return nil, err
		}
		n, err := v.AsInt()
		if err != nil {
			return nil, err
		}
		rows := make([]sqltypes.Row, n)
		for i := range rows {
			rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i))}
		}
		return rows, nil
	}}, nil
}

func TestTVFInFrom(t *testing.T) {
	db := openTestDB(t)
	db.RegisterTVF("range", rangeTVF{})
	res := mustExec(t, db, `SELECT n FROM range(4) WHERE n > 0`)
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", res.Rows)
	}
	agg := mustExec(t, db, `SELECT COUNT(*), SUM(n) FROM range(10)`)
	if agg.Rows[0][0].I != 10 || agg.Rows[0][1].I != 45 {
		t.Errorf("agg = %v", agg.Rows)
	}
}

func TestCrossApplyTVF(t *testing.T) {
	db := openTestDB(t)
	db.RegisterTVF("range", rangeTVF{})
	mustExec(t, db, `CREATE TABLE t (id INT, cnt INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 2), (2, 0), (3, 3)`)
	res := mustExec(t, db, `
	  SELECT id, n FROM t CROSS APPLY range(cnt) r ORDER BY id, n`)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].I != 1 || res.Rows[0][1].I != 0 {
		t.Errorf("first = %v", res.Rows[0])
	}
	if res.Rows[4][0].I != 3 || res.Rows[4][1].I != 2 {
		t.Errorf("last = %v", res.Rows[4])
	}
}

func TestClusteredTableAndMergeJoin(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE reads (r_id BIGINT PRIMARY KEY CLUSTERED, seq VARCHAR(50))`)
	mustExec(t, db, `CREATE TABLE aligns (a_r_id BIGINT PRIMARY KEY CLUSTERED, pos INT)`)
	var readRows, alignRows []sqltypes.Row
	for i := 0; i < 2000; i++ {
		readRows = append(readRows, sqltypes.Row{
			sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("SEQ%d", i)),
		})
		if i%2 == 0 {
			alignRows = append(alignRows, sqltypes.Row{
				sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(i * 10)),
			})
		}
	}
	if err := db.InsertRows("reads", readRows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("aligns", alignRows); err != nil {
		t.Fatal(err)
	}
	// The plan must use a merge join on the clustered keys.
	ex := mustExec(t, db, `EXPLAIN SELECT seq, pos FROM aligns JOIN reads ON a_r_id = r_id`)
	if !strings.Contains(ex.Plan, "Merge Join") {
		t.Errorf("expected merge join plan, got:\n%s", ex.Plan)
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM aligns JOIN reads ON a_r_id = r_id`)
	if res.Rows[0][0].I != 1000 {
		t.Errorf("join count = %v", res.Rows)
	}
	// Results match a forced hash join (heap copy of the same data).
	mustExec(t, db, `CREATE TABLE reads_h (r_id BIGINT, seq VARCHAR(50))`)
	mustExec(t, db, `INSERT INTO reads_h SELECT r_id, seq FROM reads`)
	res2 := mustExec(t, db, `SELECT COUNT(*) FROM aligns JOIN reads_h ON a_r_id = r_id`)
	if res2.Rows[0][0].I != 1000 {
		t.Errorf("hash join count = %v", res2.Rows)
	}
}

// TestKeyRangesOverWideKeySpans: the key ranges that partition a parallel
// clustered scan and a range-partitioned merge join stay disjoint when the
// key span passes 2^63/parts — once it overflowed the boundary arithmetic
// and the overlapping ranges counted rows twice.
func TestKeyRangesOverWideKeySpans(t *testing.T) {
	const n = 64
	for _, c := range []struct {
		name string
		key  func(i int64) int64
	}{
		{"2^62", func(i int64) int64 { return i << 56 }},
		{"int64", func(i int64) int64 {
			if i == n-1 {
				return math.MaxInt64
			}
			return math.MinInt64 + i<<58
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 4})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { db.Close() })
			db.threshold = 16 // DOP-4 plans over 64 rows
			db.SetDOP(4)
			for _, table := range []string{"kl", "kr"} {
				mustExec(t, db, `CREATE TABLE `+table+` (k BIGINT PRIMARY KEY CLUSTERED, v INT)`)
				rows := make([]sqltypes.Row, n)
				for i := range rows {
					rows[i] = sqltypes.Row{sqltypes.NewInt(c.key(int64(i))), sqltypes.NewInt(int64(i))}
				}
				if err := db.InsertRows(table, rows); err != nil {
					t.Fatal(err)
				}
			}
			// Four ranges, cut at increasing boundaries, even over the whole
			// int64 domain.
			ranges, err := db.KeyRanges(db.Table("kl"), 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(ranges) != 4 || ranges[0][0] != nil || ranges[3][1] != nil {
				t.Fatalf("%d ranges, want four covering the key column", len(ranges))
			}
			for i := 1; i < 4; i++ {
				lo := ranges[i][0].I
				if lo != ranges[i-1][1].I || i > 1 && lo <= ranges[i-1][0].I {
					t.Fatalf("range %d starts at %d: not where range %d ends, or not above its start", i, lo, i-1)
				}
			}
			for _, q := range []struct{ sql, plan string }{
				{`SELECT COUNT(*) FROM kl`, "Parallelism (Gather Streams) DOP 4"},
				{`SELECT COUNT(*) FROM kl JOIN kr ON kl.k = kr.k`, "Merge Join"},
				{`SELECT COUNT(v) FROM (SELECT kl.v FROM kl JOIN kr ON kl.k = kr.k) j`, "range-partitioned"},
			} {
				if plan := mustExec(t, db, "EXPLAIN "+q.sql).Plan; !strings.Contains(plan, q.plan) {
					t.Fatalf("%s: no %q in the plan:\n%s", q.sql, q.plan, plan)
				}
				if got := mustExec(t, db, q.sql).Rows[0][0].I; got != n {
					t.Errorf("%s = %d, want %d", q.sql, got, n)
				}
			}
		})
	}
}

func TestPrimaryKeyDuplicateRejected(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY CLUSTERED, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 20)`); err == nil {
		t.Error("duplicate PK accepted")
	}
	// The failed autocommit statement must roll back cleanly.
	res := mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 1 {
		t.Errorf("count = %v", res.Rows)
	}
}

func TestExplicitTransactionCommitRollback(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	mustExec(t, db, `BEGIN TRANSACTION`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	mustExec(t, db, `COMMIT`)
	mustExec(t, db, `BEGIN TRANSACTION`)
	mustExec(t, db, `INSERT INTO t VALUES (3)`)
	mustExec(t, db, `ROLLBACK`)
	res := mustExec(t, db, `SELECT COUNT(*), MAX(v) FROM t`)
	if res.Rows[0][0].I != 2 || res.Rows[0][1].I != 2 {
		t.Errorf("after rollback: %v", res.Rows)
	}
}

func TestTransactionRollbackClusteredAndBlob(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY CLUSTERED, v INT)`)
	mustExec(t, db, `CREATE TABLE files (guid UNIQUEIDENTIFIER, reads VARBINARY(MAX) FILESTREAM)`)
	src := filepath.Join(t.TempDir(), "in.fastq")
	os.WriteFile(src, []byte("@r\nAC\n+\nII\n"), 0o644)

	mustExec(t, db, `BEGIN TRAN`)
	mustExec(t, db, `INSERT INTO t VALUES (5, 50)`)
	guid, err := db.ImportFileStream("files", src, map[string]sqltypes.Value{
		"guid": sqltypes.NewString("meta-guid"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !db.Blobs().Exists(guid) {
		t.Fatal("blob missing before rollback")
	}
	mustExec(t, db, `ROLLBACK`)
	if db.Blobs().Exists(guid) {
		t.Error("blob survived rollback")
	}
	res := mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("clustered insert survived rollback: %v", res.Rows)
	}
}

func TestCrashRecoveryReplaysWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE h (v INT)`)
	mustExec(t, db, `CREATE TABLE c (id INT PRIMARY KEY CLUSTERED, v INT)`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO h VALUES (%d)`, i))
		mustExec(t, db, fmt.Sprintf(`INSERT INTO c VALUES (%d, %d)`, i, i*2))
	}
	// Simulate a crash: close WITHOUT checkpoint. Data files hold only
	// what checkpoints persisted; the WAL holds everything.
	db.Close()

	db2, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, `SELECT COUNT(*), SUM(v) FROM h`)
	if res.Rows[0][0].I != 500 || res.Rows[0][1].I != 124750 {
		t.Errorf("heap after recovery: %v", res.Rows)
	}
	res2 := mustExec(t, db2, `SELECT COUNT(*), SUM(v) FROM c`)
	if res2.Rows[0][0].I != 500 || res2.Rows[0][1].I != 249500 {
		t.Errorf("clustered after recovery: %v", res2.Rows)
	}
}

func TestCrashRecoveryDiscardsUncommitted(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE c (id INT PRIMARY KEY CLUSTERED, v INT)`)
	mustExec(t, db, `INSERT INTO c VALUES (1, 1)`)
	mustExec(t, db, `BEGIN TRAN`)
	mustExec(t, db, `INSERT INTO c VALUES (2, 2)`)
	// Crash with the transaction open (no COMMIT record): flush the WAL
	// via Close, which does not write a commit for the open txn.
	db.Close()

	db2, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, `SELECT COUNT(*) FROM c`)
	if res.Rows[0][0].I != 1 {
		t.Errorf("uncommitted row visible after recovery: %v", res.Rows)
	}
}

func TestCheckpointStatementAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, _ := Open(dir, Options{DOP: 1})
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	mustExec(t, db, `CHECKPOINT`)
	db.Close()
	db2, err := Open(dir, Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res := mustExec(t, db2, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("count = %v", res.Rows)
	}
}

func TestSequenceUDTColumn(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE r (id INT, seq SEQUENCE)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 'ACGTNACGT')`)
	res := mustExec(t, db, `SELECT seq, LEN(seq) FROM r`)
	if res.Rows[0][0].S != "ACGTNACGT" || res.Rows[0][1].I != 9 {
		t.Errorf("sequence round trip: %v", res.Rows)
	}
	// Invalid symbols rejected at insert.
	if _, err := db.Exec(`INSERT INTO r VALUES (2, 'ACGU')`); err == nil {
		t.Error("invalid sequence accepted")
	}
}

func TestFileStreamDualAccess(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	  guid UNIQUEIDENTIFIER, sample INT, lane INT, reads VARBINARY(MAX) FILESTREAM)`)
	src := filepath.Join(t.TempDir(), "lane1.fastq")
	content := "@r1\nACGT\n+\nIIII\n"
	os.WriteFile(src, []byte(content), 0o644)
	guid, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"guid":   sqltypes.NewString("ignored"), // will be in metadata column
		"sample": sqltypes.NewInt(855),
		"lane":   sqltypes.NewInt(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// SQL metadata access, including the PathName/DATALENGTH equivalents.
	res := mustExec(t, db, `SELECT sample, lane, FilePathName(reads), FileDataLength(reads) FROM ShortReadFiles`)
	r := res.Rows[0]
	if r[0].I != 855 || r[1].I != 1 {
		t.Errorf("metadata = %v", r)
	}
	if r[3].I != int64(len(content)) {
		t.Errorf("FileDataLength = %v", r[3])
	}
	// External (file API) access through the path, as the paper's hybrid
	// design requires.
	data, err := os.ReadFile(r[2].S)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != content {
		t.Errorf("external read = %q", data)
	}
	// Engine streaming access.
	st, err := db.OpenBlob(guid)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	buf := make([]byte, 4)
	st.GetBytes(1, buf)
	if string(buf) != "r1\nA" {
		t.Errorf("GetBytes = %q", buf)
	}
}

func TestDropTable(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `DROP TABLE t`)
	if _, err := db.Exec(`SELECT * FROM t`); err == nil {
		t.Error("dropped table still queryable")
	}
	// Name can be reused.
	mustExec(t, db, `CREATE TABLE t (s VARCHAR(5))`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].I != 0 {
		t.Errorf("recreated table not empty: %v", res.Rows)
	}
}

func TestExplainParallelAggregate(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE big (g VARCHAR(10), v INT)`)
	var rows []sqltypes.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, sqltypes.Row{
			sqltypes.NewString(fmt.Sprintf("g%d", i%100)),
			sqltypes.NewInt(int64(i)),
		})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	ex := mustExec(t, db, `EXPLAIN SELECT g, COUNT(*) FROM big GROUP BY g`)
	if !strings.Contains(ex.Plan, "Parallelism (Gather Streams)") {
		t.Errorf("expected parallel plan, got:\n%s", ex.Plan)
	}
	// And it actually runs correctly in parallel.
	res := mustExec(t, db, `SELECT COUNT(*) FROM (SELECT g, COUNT(*) c FROM big GROUP BY g) s`)
	if res.Rows[0][0].I != 100 {
		t.Errorf("groups = %v", res.Rows)
	}
	res2 := mustExec(t, db, `SELECT SUM(c) FROM (SELECT g, COUNT(*) c FROM big GROUP BY g) s`)
	if res2.Rows[0][0].I != 20000 {
		t.Errorf("total = %v", res2.Rows)
	}
}

func TestParallelMatchesSerialOnLargeScan(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE big (v INT)`)
	var rows []sqltypes.Row
	for i := 0; i < 30000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	parallel := mustExec(t, db, `SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM big`)
	db.SetDOP(1)
	serial := mustExec(t, db, `SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM big`)
	for i := range parallel.Rows[0] {
		if sqltypes.Compare(parallel.Rows[0][i], serial.Rows[0][i]) != 0 {
			t.Errorf("parallel %v != serial %v", parallel.Rows[0], serial.Rows[0])
		}
	}
}

func TestLikeAndIsNull(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (name VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO t VALUES ('chr1'), ('chr2'), ('scaffold_1'), (NULL)`)
	res := mustExec(t, db, `SELECT COUNT(*) FROM t WHERE name LIKE 'chr%'`)
	if res.Rows[0][0].I != 2 {
		t.Errorf("LIKE count = %v", res.Rows)
	}
	res2 := mustExec(t, db, `SELECT COUNT(*) FROM t WHERE name IS NULL`)
	if res2.Rows[0][0].I != 1 {
		t.Errorf("IS NULL count = %v", res2.Rows)
	}
	res3 := mustExec(t, db, `SELECT COUNT(*) FROM t WHERE name NOT LIKE 'chr%' AND name IS NOT NULL`)
	if res3.Rows[0][0].I != 1 {
		t.Errorf("NOT LIKE count = %v", res3.Rows)
	}
}

func TestExecScript(t *testing.T) {
	db := openTestDB(t)
	res, err := db.ExecScript(`
	  CREATE TABLE t (v INT);
	  INSERT INTO t VALUES (1), (2), (3);
	  SELECT SUM(v) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 6 {
		t.Errorf("script result = %v", res.Rows)
	}
	// A failing later statement surfaces its error.
	if _, err := db.ExecScript(`SELECT 1; SELECT * FROM nope;`); err == nil {
		t.Error("script error swallowed")
	}
}

func TestExplainInsertSelect(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE src (v INT)`)
	mustExec(t, db, `CREATE TABLE dst (v INT)`)
	res := mustExec(t, db, `EXPLAIN INSERT INTO dst SELECT v FROM src`)
	if !strings.Contains(res.Plan, "Table Scan") {
		t.Errorf("plan = %s", res.Plan)
	}
	if _, err := db.Exec(`EXPLAIN CHECKPOINT`); err == nil {
		t.Error("EXPLAIN of non-query accepted")
	}
	// EXPLAIN must not execute the insert.
	cnt := mustExec(t, db, `SELECT COUNT(*) FROM dst`)
	if cnt.Rows[0][0].I != 0 {
		t.Error("EXPLAIN executed the INSERT")
	}
}

func TestSetDOPAffectsPlans(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE big (v INT)`)
	var rows []sqltypes.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, sqltypes.Row{sqltypes.NewInt(int64(i))})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	db.SetDOP(1)
	p1 := mustExec(t, db, `EXPLAIN SELECT COUNT(*) FROM big`)
	if strings.Contains(p1.Plan, "Parallelism") {
		t.Errorf("DOP 1 plan parallel:\n%s", p1.Plan)
	}
	db.SetDOP(2)
	p2 := mustExec(t, db, `EXPLAIN SELECT COUNT(*) FROM big`)
	if !strings.Contains(p2.Plan, "DOP 2") {
		t.Errorf("DOP 2 plan not parallel:\n%s", p2.Plan)
	}
}

func TestTableAccessors(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	if n, err := db.tableRowCount("t"); err != nil || n != 2 {
		t.Errorf("TableRowCount = %d, %v", n, err)
	}
	if _, err := db.tableRowCount("nope"); err == nil {
		t.Error("unknown table accepted")
	}
	mustExec(t, db, `CHECKPOINT`)
	sz, err := db.TableSizeBytes("t")
	if err != nil || sz <= 0 {
		t.Errorf("TableSizeBytes = %d, %v", sz, err)
	}
	used, err := db.tableUsedBytes("t")
	if err != nil || used <= 0 || used > sz {
		t.Errorf("TableUsedBytes = %d (alloc %d), %v", used, sz, err)
	}
	// ScanTableNoLock sees all rows.
	n := 0
	if err := db.ScanTableNoLock("t", func(sqltypes.Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("ScanTableNoLock saw %d rows", n)
	}
}

func TestPlanProviderInterface(t *testing.T) {
	// Compile-time check plus a smoke call of every Provider method.
	var _ plan.Provider = (*Database)(nil)
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY CLUSTERED, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1), (100, 2)`)
	tab := db.Table("t")
	if tab == nil {
		t.Fatal("Table() nil")
	}
	if n := db.RowCountEstimate(tab); n != 2 {
		t.Errorf("estimate = %d", n)
	}
	ranges, err := db.KeyRanges(tab, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 {
		t.Errorf("ranges = %v", ranges)
	}
	ops, err := db.ScanPartitionsPruned(tab, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, op := range ops {
		rows, err := exec.Run(&exec.Context{}, op)
		if err != nil {
			t.Fatal(err)
		}
		total += len(rows)
	}
	if total != 2 {
		t.Errorf("partitioned scan saw %d rows", total)
	}
}
