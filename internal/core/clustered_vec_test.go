package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// TestClusteredBatchScanEquivalence: a clustered table scanned as batches
// (leaf values through the row-page kernel, lazily decoded) returns what
// the same statement returns over the rows that were written (writtenRows,
// ordered by key where the plan promises key order), at DOP 1 and through
// the ordered batch exchange at DOP 4, before and after CHECKPOINT: whole
// rows with NULLs and a packed SEQUENCE column, filters, seeks, the stream
// aggregate over the key order, and an open transaction's rows hidden from
// everyone else.
func TestClusteredBatchScanEquivalence(t *testing.T) {
	const n = 3000
	r := rand.New(rand.NewSource(99))
	written := make([]sqltypes.Row, n)
	for i := range written {
		read := make([]byte, 4+r.Intn(20))
		for j := range read {
			read[j] = seqAlphabet[r.Intn(4)]
		}
		tag, q := sqltypes.NewString(fmt.Sprintf("t%d", r.Intn(7))), sqltypes.NewInt(int64(r.Intn(50)))
		if r.Intn(8) == 0 {
			tag = sqltypes.Null
		}
		if r.Intn(6) == 0 {
			q = sqltypes.Null
		}
		written[i] = sqltypes.Row{sqltypes.NewInt(int64(i % 5)), sqltypes.NewInt(int64((i * 7919) % n)), tag, sqltypes.NewString(string(read)), q}
	}
	inserts := insertStatements("c", written, 250)
	queries := []struct {
		sql   string
		order string // the key order the plan promises; the reference sorts by it
	}{
		{`SELECT * FROM c`, `g, pos`},
		{`SELECT g, pos, read FROM c WHERE tag = 't3'`, `g, pos`},
		{`SELECT pos, q FROM c WHERE g = 2 AND pos < 900`, `pos`},
		{`SELECT COUNT(*), SUM(q), MIN(read) FROM c WHERE q IS NOT NULL`, ``},
		{`SELECT g, COUNT(*), COUNT(tag), SUM(q), MAX(read) FROM c GROUP BY g`, `g`},
		{`SELECT g, pos, COUNT(*) FROM c WHERE pos >= 1000 GROUP BY g, pos`, `g, pos`},
		{`SELECT tag, COUNT(*) FROM c GROUP BY tag`, ``},
		{`SELECT TOP 5 * FROM c ORDER BY g, pos`, `g, pos`},
	}
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
		db.threshold = 64
		db.SetDOP(dop)
		mustExec(t, db, `CREATE TABLE c (g INT NOT NULL, pos BIGINT NOT NULL, tag VARCHAR(8), read SEQUENCE, q INT,
		    PRIMARY KEY CLUSTERED (g, pos))`)
		for _, ins := range inserts {
			mustExec(t, db, ins)
		}
		engines = append(engines, engine{name, db})
	}
	registerWritten(engines[0].db, []string{"g", "pos", "tag", "read", "q"}, written)
	render := func(res *Result, ordered bool) []string {
		if !ordered {
			return renderRows(res)
		}
		out := make([]string, len(res.Rows))
		for i, row := range res.Rows {
			out[i] = fmt.Sprint(row)
		}
		return out
	}
	compare := func(stage string) {
		t.Helper()
		for _, q := range queries {
			ref := strings.Replace(q.sql, "FROM c", "FROM written()", 1)
			if q.order != "" && !strings.Contains(ref, "ORDER BY") {
				ref += " ORDER BY " + q.order
			}
			want := render(mustExec(t, engines[0].db, ref), q.order != "")
			for _, e := range engines {
				got := render(mustExec(t, e.db, q.sql), q.order != "")
				if len(got) != len(want) {
					t.Fatalf("%s, %s: %q returned %d rows, %d of the written rows qualify", stage, e.name, q.sql, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s, %s: %q row %d = %s, over the written rows %s", stage, e.name, q.sql, i, got[i], want[i])
					}
				}
			}
		}
	}
	compare("loaded")
	for _, e := range engines {
		mustExec(t, e.db, `CHECKPOINT`)
	}
	compare("checkpointed")
	plan := mustExec(t, engines[1].db, `EXPLAIN SELECT g, COUNT(*) FROM c GROUP BY g`).Plan
	if !strings.Contains(plan, "Stream Aggregate") || !strings.Contains(plan, "Parallelism (Gather Streams) DOP") ||
		strings.Count(plan, "vectorized") != 4 {
		t.Errorf("DOP-4 plan over the clustered table: want every line vectorized, a stream aggregate over an exchange of batch-native scans:\n%s", plan)
	}
	if st := engineCounters(engines[1].db); st[obs.ScanBatches] == 0 {
		t.Error("the engine scanned the clustered table without batches")
	}
	// Rows of an open transaction are visible to it alone.
	for _, e := range engines {
		sess := e.db.NewSession()
		defer sess.Exec(`ROLLBACK`)
		if _, err := sess.Exec(`BEGIN TRANSACTION`); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Exec(`INSERT INTO c VALUES (2, 100000, 'mine', 'ACGT', 1), (9, 1, 'mine', 'ACGT', 1)`); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Exec(`SELECT COUNT(*) FROM c WHERE tag = 'mine'`)
		if err != nil || res.Rows[0][0].I != 2 {
			t.Fatalf("%s: the writer sees %v of its 2 rows (%v)", e.name, res, err)
		}
	}
	compare("with an open writer")
}
