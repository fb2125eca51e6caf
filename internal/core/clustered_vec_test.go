package core

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestClusteredBatchScanEquivalence: a clustered table scanned as batches
// (leaf values through the row-page kernel, lazily decoded) returns what
// the row engine returns, in the same key order, at DOP 1 and through the
// ordered batch exchange at DOP 4: whole rows with NULLs and a packed
// SEQUENCE column, filters, seeks, the stream aggregate over the key
// order, and an open transaction's rows hidden from everyone else.
func TestClusteredBatchScanEquivalence(t *testing.T) {
	const n = 3000
	r := rand.New(rand.NewSource(99))
	var inserts []string
	var sb strings.Builder
	for i := 0; i < n; i++ {
		if sb.Len() == 0 {
			sb.WriteString("INSERT INTO c VALUES ")
		} else {
			sb.WriteString(", ")
		}
		read := make([]byte, 4+r.Intn(20))
		for j := range read {
			read[j] = seqAlphabet[r.Intn(4)]
		}
		tag, q := fmt.Sprintf("'t%d'", r.Intn(7)), fmt.Sprintf("%d", r.Intn(50))
		if r.Intn(8) == 0 {
			tag = "NULL"
		}
		if r.Intn(6) == 0 {
			q = "NULL"
		}
		fmt.Fprintf(&sb, "(%d, %d, %s, '%s', %s)", i%5, (i*7919)%n, tag, read, q)
		if (i+1)%250 == 0 {
			inserts = append(inserts, sb.String())
			sb.Reset()
		}
	}
	queries := []struct {
		sql     string
		ordered bool // the plan promises key order
	}{
		{`SELECT * FROM c`, true},
		{`SELECT g, pos, read FROM c WHERE tag = 't3'`, true},
		{`SELECT pos, q FROM c WHERE g = 2 AND pos < 900`, true},
		{`SELECT COUNT(*), SUM(q), MIN(read) FROM c WHERE q IS NOT NULL`, false},
		{`SELECT g, COUNT(*), COUNT(tag), SUM(q), MAX(read) FROM c GROUP BY g`, true},
		{`SELECT g, pos, COUNT(*) FROM c WHERE pos >= 1000 GROUP BY g, pos`, true},
		{`SELECT tag, COUNT(*) FROM c GROUP BY tag`, false},
		{`SELECT TOP 5 * FROM c ORDER BY g, pos`, true},
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
	}{{"row-dop1", 1, true}, {"vec-dop1", 1, false}, {"vec-dop4", 4, false}, {"row-dop4", 4, true}} {
		db, err := Open(filepath.Join(t.TempDir(), cfg.name), Options{DOP: cfg.dop})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { db.Close() })
		db.noVec = cfg.noVec
		db.threshold = 64
		db.SetDOP(cfg.dop)
		mustExec(t, db, `CREATE TABLE c (g INT NOT NULL, pos BIGINT NOT NULL, tag VARCHAR(8), read SEQUENCE, q INT,
		    PRIMARY KEY CLUSTERED (g, pos))`)
		for _, ins := range inserts {
			mustExec(t, db, ins)
		}
		engines = append(engines, engine{cfg.name, db})
	}
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
			want := render(mustExec(t, engines[0].db, q.sql), q.ordered)
			for _, e := range engines[1:] {
				got := render(mustExec(t, e.db, q.sql), q.ordered)
				if len(got) != len(want) {
					t.Fatalf("%s, %s: %q returned %d rows, %s %d", stage, e.name, q.sql, len(got), engines[0].name, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s, %s: %q row %d = %s, %s has %s", stage, e.name, q.sql, i, got[i], engines[0].name, want[i])
					}
				}
			}
		}
	}
	compare("loaded")
	plan := mustExec(t, engines[2].db, `EXPLAIN SELECT g, COUNT(*) FROM c GROUP BY g`).Plan
	if !strings.Contains(plan, "Stream Aggregate") || !strings.Contains(plan, "Parallelism (Gather Streams) DOP") ||
		strings.Count(plan, "vectorized") != 4 {
		t.Errorf("DOP-4 plan over the clustered table: want every line vectorized, a stream aggregate over an exchange of batch-native scans:\n%s", plan)
	}
	// The row-decoding reference engine runs the same operators; only its
	// scan leaf packs rows, and EXPLAIN says so.
	if plan := mustExec(t, engines[0].db, `EXPLAIN SELECT g, COUNT(*) FROM c GROUP BY g`).Plan; strings.Count(plan, "vectorized") != 2 ||
		strings.Contains(plan, "[c] (est=3000 rows) vectorized") {
		t.Errorf("row-engine plan: want the aggregate and compute scalar vectorized, the scan not:\n%s", plan)
	}
	if st := engineCounters(engines[1].db); st[obs.ScanBatches] == 0 {
		t.Error("the vectorized engine scanned the clustered table without batches")
	}
	if st := engineCounters(engines[0].db); st[obs.ScanBatches] != 0 {
		t.Error("the row engine scanned in batches")
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
