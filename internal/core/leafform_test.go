package core

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// leafFormRow is row id of the clustered table c (id, tag, q) the leaf-form
// tests write.
func leafFormRow(id int64) sqltypes.Row {
	tag := sqltypes.NewString(fmt.Sprintf("tag-%d", id%13))
	if id%7 == 0 {
		tag = sqltypes.Null
	}
	return sqltypes.Row{sqltypes.NewInt(id), tag, sqltypes.NewInt(id % 50)}
}

// leafFormTable creates c with the even ids 0, 2, ..., 2(n-1), checkpoints
// it and scans it twice, so that every leaf keeps its form and the form its
// columns. It returns the rows written, by id.
func leafFormTable(t *testing.T, db *Database, n int) map[int64]sqltypes.Row {
	t.Helper()
	mustExec(t, db, `CREATE TABLE c (id BIGINT NOT NULL PRIMARY KEY CLUSTERED, tag VARCHAR(20), q INT)`)
	rows := make([]sqltypes.Row, n)
	written := map[int64]sqltypes.Row{}
	for i := range rows {
		rows[i] = leafFormRow(int64(2 * i))
		written[int64(2*i)] = rows[i]
	}
	if err := db.InsertRows("c", rows); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	before := engineCounters(db)
	mustExec(t, db, `SELECT id, tag, q FROM c`)
	mustExec(t, db, `SELECT id, tag, q FROM c`)
	if engineCounters(db).Sub(before)[obs.ScanDecodedPageHits] == 0 || db.pool.Stats().DecodedBytes == 0 {
		t.Fatal("the warm scans kept no leaf form")
	}
	return written
}

// checkLeafReads fails unless s reads exactly want from c through a full
// scan, a range and a PK seek of each of probes.
func checkLeafReads(t *testing.T, what string, s *Session, want map[int64]sqltypes.Row, probes ...int64) {
	t.Helper()
	render := func(rows map[int64]sqltypes.Row, keep func(int64) bool) []string {
		var out []string
		for id, r := range rows {
			if keep(id) {
				out = append(out, fmt.Sprint(r))
			}
		}
		sort.Strings(out)
		return out
	}
	reads := []struct {
		sql  string
		keep func(int64) bool
	}{
		{`SELECT id, tag, q FROM c`, func(int64) bool { return true }},
		{`SELECT id, tag, q FROM c WHERE id >= 900 AND id < 1500`, func(id int64) bool { return id >= 900 && id < 1500 }},
	}
	for _, p := range probes {
		reads = append(reads, struct {
			sql  string
			keep func(int64) bool
		}{fmt.Sprintf(`SELECT id, tag, q FROM c WHERE id = %d`, p), func(id int64) bool { return id == p }})
	}
	for _, r := range reads {
		res, err := s.Exec(r.sql)
		if err != nil {
			t.Fatalf("%s: %s: %v", what, r.sql, err)
		}
		if got, exp := canonResult(res), render(want, r.keep); fmt.Sprint(got) != fmt.Sprint(exp) {
			t.Fatalf("%s: %s returned %d rows, want %d", what, r.sql, len(got), len(exp))
		}
	}
}

// TestLeafFormInvalidation: a clustered leaf keeps its values' decoded form
// only while its page is unchanged, and visibility is never part of the
// form. (1) Rows inserted into a leaf whose form is kept, once without a
// split and once forcing one, and a CHECKPOINT, are seen by every later
// scan. (2) A transaction inserting into a kept leaf: an older snapshot
// does not see its rows, the writer's own statement does, and after COMMIT
// everyone does. (3) In a 16-page pool, three scans of a ~200-leaf table
// never hold more than 16 pages' worth of decoded forms and return the
// rows written.
func TestLeafFormInvalidation(t *testing.T) {
	t.Run("writes", func(t *testing.T) {
		db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		want := leafFormTable(t, db, 3000)
		td, err := db.table("c")
		if err != nil {
			t.Fatal(err)
		}
		size := td.tree.SizeBytes()

		mustExec(t, db, `INSERT INTO c VALUES (1001, 'one more', 1)`)
		want[1001] = sqltypes.Row{sqltypes.NewInt(1001), sqltypes.NewString("one more"), sqltypes.NewInt(1)}
		if td.tree.SizeBytes() != size {
			t.Fatal("one row split its leaf: the leaf was not written in place")
		}
		checkLeafReads(t, "after an insert into a kept leaf", db.defaultSess, want, 1001, 1000)

		var rows []sqltypes.Row
		for id := int64(1003); id < 1400; id += 2 {
			rows = append(rows, leafFormRow(id))
			want[id] = rows[len(rows)-1]
		}
		if err := db.InsertRows("c", rows); err != nil {
			t.Fatal(err)
		}
		if td.tree.SizeBytes() == size {
			t.Fatal("200 rows between two keys did not split their leaf")
		}
		checkLeafReads(t, "after a split", db.defaultSess, want, 1003, 1399, 1400)

		mustExec(t, db, `CHECKPOINT`)
		if d := db.pool.Stats().DecodedBytes; d != 0 {
			t.Errorf("%d decoded bytes still kept after CHECKPOINT rebuilt the tree", d)
		}
		checkLeafReads(t, "after CHECKPOINT", db.defaultSess, want, 1001, 1399)
		checkLeafReads(t, "after CHECKPOINT, warm", db.defaultSess, want, 1001, 1399)
	})

	t.Run("snapshots", func(t *testing.T) {
		db, err := Open(filepath.Join(t.TempDir(), "db"), Options{DOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		old := leafFormTable(t, db, 3000)
		reader, writer := db.NewSession(), db.NewSession()
		if err := reader.Begin(); err != nil {
			t.Fatal(err)
		}
		checkLeafReads(t, "the reader before the write", reader, old, 1001)
		if err := writer.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := writer.Exec(`INSERT INTO c VALUES (1001, 'txn', 1), (1003, NULL, 3)`); err != nil {
			t.Fatal(err)
		}
		now := map[int64]sqltypes.Row{
			1001: {sqltypes.NewInt(1001), sqltypes.NewString("txn"), sqltypes.NewInt(1)},
			1003: {sqltypes.NewInt(1003), sqltypes.Null, sqltypes.NewInt(3)},
		}
		for id, r := range old {
			now[id] = r
		}
		checkLeafReads(t, "the older snapshot", reader, old, 1001, 1003)
		checkLeafReads(t, "another session", db.defaultSess, old, 1001, 1003)
		checkLeafReads(t, "the writer", writer, now, 1001, 1003)
		if err := writer.Commit(); err != nil {
			t.Fatal(err)
		}
		checkLeafReads(t, "the older snapshot after the commit", reader, old, 1001, 1003)
		if err := reader.Commit(); err != nil {
			t.Fatal(err)
		}
		for name, s := range map[string]*Session{"the reader": reader, "the writer": writer, "another session": db.defaultSess} {
			checkLeafReads(t, name+" after the commit", s, now, 1001, 1003)
		}
	})

	t.Run("bounded", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := Open(dir, Options{DOP: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := leafFormTable(t, db, 64000)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir, Options{DOP: 1, BufferPoolPages: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		td, err := db.table("c")
		if err != nil {
			t.Fatal(err)
		}
		if leaves := td.tree.SizeBytes() / storage.PageSize; leaves < 180 {
			t.Fatalf("%d pages, want ~200 leaves", leaves)
		}
		limit := int64(db.pool.Capacity()) * storage.PageSize
		peak := int64(0)
		for pass := 0; pass < 3; pass++ {
			op, err := db.OrderedScanRange(db.Table("c"), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(&exec.Context{}); err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				b, err := op.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					break
				}
				for _, s := range b.Sel {
					row, err := b.ReadRow(s, nil)
					if err != nil {
						t.Fatal(err)
					}
					if w := want[row[0].I]; fmt.Sprint(row) != fmt.Sprint(w) {
						t.Fatalf("pass %d: row %v, written %v", pass, row, w)
					}
					got++
				}
				if d := db.pool.Stats().DecodedBytes; d > limit {
					t.Fatalf("pass %d: %d decoded bytes kept, the pool's %d frames hold %d", pass, d, db.pool.Capacity(), limit)
				} else if d > peak {
					peak = d
				}
			}
			op.Close()
			if got != len(want) {
				t.Fatalf("pass %d: %d rows, want %d", pass, got, len(want))
			}
		}
		if peak == 0 {
			t.Error("no leaf form was ever kept")
		}
	})
}
