package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// Access-path equivalence: the planner may answer a predicate through a
// full scan, a zone-map-pruned parallel scan, or a secondary-index range
// scan — three different physical routes to the same logical rows. These
// tests force each route and demand identical results, including under
// NULL key values and with an uncommitted concurrent transaction whose
// rows every route must refuse to surface.

// fuzzSelect runs the query under each forced access path and fails if
// any path disagrees with the cost-based plan.
func fuzzSelect(t *testing.T, db *Database, query string) {
	t.Helper()
	paths := []string{"", "full", "zonemap", "index"}
	var want []string
	for i, p := range paths {
		db.planner.ForcePath = p
		res, err := db.Exec(query)
		if err != nil {
			t.Fatalf("path %q: %s: %v", p, query, err)
		}
		got := canonResult(res)
		if i == 0 {
			want = got
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("path %q: %s: %d rows, cost-based plan returned %d", p, query, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("path %q: %s: row %d differs:\n  %s\n  %s", p, query, j, got[j], want[j])
			}
		}
	}
}

// TestAccessPathEquivalenceFuzz seeds a table with NULLs and duplicate
// keys, builds an index, seals zone maps, opens an in-flight transaction,
// and sweeps randomized sargable (and some non-sargable) predicates
// across all forced access paths at DOP 4.
func TestAccessPathEquivalenceFuzz(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.threshold = 64 // DOP-4 scans over 3 000 rows
	db.SetDOP(4)
	defer func() { db.planner.ForcePath = "" }()

	mustExec(t, db, `CREATE TABLE fz (a INT, b INT, s VARCHAR(16))`)
	rng := rand.New(rand.NewSource(2009))
	var vals []string
	for i := 0; i < 3000; i++ {
		a := fmt.Sprint(rng.Intn(500))
		if i%11 == 0 {
			a = "NULL"
		}
		vals = append(vals, fmt.Sprintf("(%s, %d, 's%d')", a, rng.Intn(1000), i%7))
		if len(vals) == 50 {
			mustExec(t, db, "INSERT INTO fz VALUES "+strings.Join(vals, ", "))
			vals = vals[:0]
		}
	}
	mustExec(t, db, `CREATE INDEX idx_a ON fz(a)`)
	mustExec(t, db, `CHECKPOINT`) // seal pages -> zone maps
	mustExec(t, db, `ANALYZE`)    // stats -> selectivity estimates

	// A rolled-back insert: its index entries must never surface.
	s := db.NewSession()
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(`INSERT INTO fz VALUES (250, 250, 'rolled')`); err != nil {
		t.Fatal(err)
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	// An in-flight transaction held open across the whole fuzz sweep: no
	// access path may see its rows.
	inflight := db.NewSession()
	if err := inflight.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := inflight.Exec(fmt.Sprintf(`INSERT INTO fz VALUES (%d, %d, 'flight')`, i*12, i)); err != nil {
			t.Fatal(err)
		}
	}
	defer inflight.Rollback()

	// The index route must actually be an index scan when forced.
	db.planner.ForcePath = "index"
	res := mustExec(t, db, `EXPLAIN SELECT a, b, s FROM fz WHERE a = 250`)
	if !strings.Contains(res.Plan, "Index Scan") {
		t.Fatalf("forced index path did not plan an Index Scan:\n%s", res.Plan)
	}

	for i := 0; i < 60; i++ {
		k := rng.Intn(520) - 10 // occasionally out of range entirely
		k2 := k + rng.Intn(80)
		m := rng.Intn(1000)
		var pred string
		switch i % 6 {
		case 0:
			pred = fmt.Sprintf("a = %d", k)
		case 1:
			pred = fmt.Sprintf("a > %d AND a <= %d", k, k2)
		case 2:
			pred = fmt.Sprintf("a >= %d", k)
		case 3:
			pred = fmt.Sprintf("a < %d", k)
		case 4:
			pred = fmt.Sprintf("a >= %d AND a < %d AND b < %d", k, k2, m)
		case 5:
			// Not sargable: the index path must degrade, not misfire.
			pred = fmt.Sprintf("a = %d OR b = %d", k, m)
		}
		fuzzSelect(t, db, "SELECT a, b, s FROM fz WHERE "+pred)
	}
	// Aggregates and ordering over each path.
	fuzzSelect(t, db, `SELECT s, COUNT(*), SUM(b) FROM fz WHERE a >= 100 AND a < 300 GROUP BY s`)
	fuzzSelect(t, db, `SELECT a, b FROM fz WHERE a > 450 ORDER BY a, b, s`)

	t.Run("page_sequence_tail", func(t *testing.T) { accessPathPageSequence(t) })
}

// accessPathPageSequence sweeps a DATA_COMPRESSION = PAGE table with a
// SEQUENCE column whose last committed rows sit in the unsealed tail after
// the CHECKPOINT, reachable through the index. id ascends with insertion,
// so index order is (a, id). Each check names the fault it is there for:
// an index path that drops tail rows or leaves SEQUENCE cells packed
// disagrees with the full scan; one whose batches carry a page's positions
// out of order breaks the selection contract the operator drain checks; one
// that loses index order fails the row-for-row ORDER BY comparison.
func accessPathPageSequence(t *testing.T) {
	db, err := Open(t.TempDir(), Options{DOP: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.threshold = 64
	db.SetDOP(4)
	defer func() { db.planner.ForcePath = "" }()

	mustExec(t, db, `CREATE TABLE fzp (id BIGINT, a INT, b INT, r SEQUENCE) WITH (DATA_COMPRESSION = PAGE)`)
	rng := rand.New(rand.NewSource(2010))
	var rows []sqltypes.Row
	add := func(n int) {
		batch := make([]sqltypes.Row, n)
		for i := range batch {
			id := int64(len(rows))
			a := sqltypes.NewInt(int64(rng.Intn(3000)))
			if id%13 == 0 {
				a = sqltypes.Null
			}
			read := make([]byte, 20+rng.Intn(30))
			for j := range read {
				read[j] = "ACGT"[rng.Intn(4)]
			}
			batch[i] = sqltypes.Row{sqltypes.NewInt(id), a, sqltypes.NewInt(int64(rng.Intn(1000))), sqltypes.NewString(string(read))}
			rows = append(rows, batch[i])
		}
		if err := db.InsertRows("fzp", batch); err != nil {
			t.Fatal(err)
		}
	}
	add(3000)
	mustExec(t, db, `CREATE INDEX idx_pa ON fzp(a)`)
	mustExec(t, db, `CHECKPOINT`)
	mustExec(t, db, `ANALYZE`)
	add(120) // committed, in the tail: no CHECKPOINT seals them
	td, err := db.table("fzp")
	if err != nil {
		t.Fatal(err)
	}
	sealed := td.heap.SealedPages()
	if td.heap.PageOf(int64(len(rows)-1)) != sealed || td.heap.PageOf(3000) != sealed {
		t.Fatal("the rows loaded after the CHECKPOINT are not in the tail")
	}

	// inRange lists the rows with lo <= a <= hi in index order.
	inRange := func(lo, hi int64) []sqltypes.Row {
		var out []sqltypes.Row
		for _, r := range rows {
			if !r[1].IsNull() && r[1].I >= lo && r[1].I <= hi {
				out = append(out, r)
			}
		}
		slices.SortStableFunc(out, func(x, y sqltypes.Row) int { return cmp.Compare(x[1].I, y[1].I) })
		return out
	}

	t.Run("paths_agree", func(t *testing.T) {
		for i := 0; i < 24; i++ {
			k := rng.Intn(3200) - 100
			var pred string
			switch i % 4 {
			case 0:
				pred = fmt.Sprintf("a = %d", k)
			case 1:
				pred = fmt.Sprintf("a >= %d AND a < %d", k, k+rng.Intn(600))
			case 2:
				pred = fmt.Sprintf("a > %d AND a <= %d AND b < %d", k, k+rng.Intn(600), rng.Intn(1000))
			case 3:
				pred = fmt.Sprintf("a <= %d AND r LIKE 'A%%'", k)
			}
			fuzzSelect(t, db, "SELECT id, a, b, r FROM fzp WHERE "+pred)
		}
		// A range holding only tail rows' ids still reaches them by index.
		fuzzSelect(t, db, `SELECT id, r FROM fzp WHERE a >= 0 AND id >= 3000`)
		fuzzSelect(t, db, `SELECT COUNT(*), SUM(b) FROM fzp WHERE a >= 400 AND a <= 900`)
	})

	t.Run("page_out_of_order", func(t *testing.T) {
		lo, hi := sqltypes.NewInt(500), sqltypes.NewInt(1200)
		want := inRange(lo.I, hi.I)
		// The range must revisit a page at a lower position than the one
		// before it, and reach the tail.
		backwards, tail := false, false
		for i := 1; i < len(want); i++ {
			prev, cur := want[i-1][0].I, want[i][0].I
			backwards = backwards || (cur < prev && td.heap.PageOf(cur) == td.heap.PageOf(prev) && td.heap.PageOf(cur) < sealed)
			tail = tail || cur >= 3000
		}
		if !backwards || !tail {
			t.Fatalf("range [%d, %d] does not revisit a sealed page backwards (%v) or reach the tail (%v); %d sealed pages", lo.I, hi.I, backwards, tail, sealed)
		}
		db.mu.RLock()
		op, err := db.IndexScan(td.def, "idx_pa", &lo, &hi, true, true)
		db.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
		got := drainSelAscending(t, db, op)
		if len(got) != len(want) {
			t.Fatalf("index scan returned %d rows, want %d", len(got), len(want))
		}
		for i := range want {
			if !sameRow(got[i], want[i]) {
				t.Fatalf("row %d in index order: got %v, want %v", i, got[i], want[i])
			}
		}
	})

	t.Run("index_order", func(t *testing.T) {
		const q = `SELECT id, a, r FROM fzp WHERE a >= 200 AND a < 2000 ORDER BY a`
		db.planner.ForcePath = "index"
		defer func() { db.planner.ForcePath = "" }()
		if plan := mustExec(t, db, "EXPLAIN "+q).Plan; !strings.Contains(plan, "Index Scan") || strings.Contains(plan, "Sort") {
			t.Fatalf("forced index ORDER BY a should read index order without a Sort:\n%s", plan)
		}
		got := mustExec(t, db, q).Rows
		want := inRange(200, 1999)
		if len(got) != len(want) {
			t.Fatalf("%d rows, want %d", len(got), len(want))
		}
		for i, w := range want {
			if !sameRow(got[i], sqltypes.Row{w[0], w[1], w[3]}) {
				t.Fatalf("row %d: got %v, want %v", i, got[i], sqltypes.Row{w[0], w[1], w[3]})
			}
		}
	})
}

// drainSelAscending runs a serial operator to completion, failing if any
// batch's selection is not strictly ascending (the batch contract), and
// returns its rows in selection order.
func drainSelAscending(t *testing.T, db *Database, op exec.Operator) []sqltypes.Row {
	t.Helper()
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	if err := op.Open(db.execContext(snap)); err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	var out []sqltypes.Row
	for {
		b, err := op.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			return out
		}
		for i, s := range b.Sel {
			if i > 0 && s <= b.Sel[i-1] {
				t.Fatalf("batch selection not ascending: %v", b.Sel)
			}
			row, err := b.ReadRow(s, nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, row)
		}
	}
}

// sameRow compares two rows cell by cell, kinds included.
func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].K != b[i].K || sqltypes.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestAccessPathCounterFloors holds what each access path is for, in
// counters that do not depend on the clock: an index point lookup touches
// at most a tenth of the pool pages of the full scan, a range over an
// append-ordered column skips at least half the sealed pages by zone map,
// and a warm scan verifies no checksums (only pool misses do).
func TestAccessPathCounterFloors(t *testing.T) {
	const rows = 20000
	db, err := Open(t.TempDir(), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE reads (id BIGINT, pos BIGINT, tag VARCHAR(8))`)
	batch := make([]sqltypes.Row, rows)
	for i, p := range rand.New(rand.NewSource(2009)).Perm(rows) {
		// id ascends with insertion order; pos is a permutation of it.
		batch[i] = sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(p)), sqltypes.NewString(fmt.Sprintf("t%d", i%5))}
	}
	if err := db.InsertRows("reads", batch); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`) // seal pages -> zone maps
	mustExec(t, db, `CREATE INDEX idx_pos ON reads(pos)`)
	mustExec(t, db, `ANALYZE`)
	td, err := db.table("reads")
	if err != nil {
		t.Fatal(err)
	}
	sealed := td.heap.SealedPages()
	// Loading left every page in the pool (clean, after the checkpoint):
	// drop them so the first scan is the cold one.
	db.pool.DropFile(td.heap.File())

	run := func(path, query string, want int64) map[string]int64 {
		t.Helper()
		db.planner.ForcePath = path
		before := db.Metrics()
		if got := mustExec(t, db, query).Rows[0][0].I; got != want {
			t.Fatalf("path %q: %s = %d, want %d", path, query, got, want)
		}
		d := db.Metrics()
		for name, v := range before {
			d[name] -= v
		}
		return d
	}
	const scan = `SELECT COUNT(*) FROM reads WHERE tag = 't3'`
	cold := run("full", scan, rows/5)
	if cold["pool.misses"] < sealed || cold["integrity.pages_verified"] < sealed {
		t.Fatalf("cold scan of %d sealed pages: %d misses, %d pages verified",
			sealed, cold["pool.misses"], cold["integrity.pages_verified"])
	}
	warm := run("full", scan, rows/5)
	if warm["pool.misses"] != 0 || warm["integrity.pages_verified"] != 0 {
		t.Errorf("warm scan: %d misses, %d pages verified; checksums must cost nothing on pool hits",
			warm["pool.misses"], warm["integrity.pages_verified"])
	}

	point := fmt.Sprintf(`SELECT COUNT(*) FROM reads WHERE pos = %d`, rows/2)
	full := run("full", point, 1)
	indexed := run("", point, 1)
	if plan := mustExec(t, db, "EXPLAIN "+point).Plan; !strings.Contains(plan, "Index Scan") {
		t.Fatalf("point lookup did not choose the index:\n%s", plan)
	}
	fullPages := full["pool.hits"] + full["pool.misses"]
	idxPages := indexed["pool.hits"] + indexed["pool.misses"]
	if idxPages == 0 || idxPages*10 > fullPages {
		t.Errorf("index point lookup touched %d pool pages, full scan %d; want at most a tenth", idxPages, fullPages)
	}

	lo := int64(rows / 2)
	rangeQ := fmt.Sprintf(`SELECT COUNT(*) FROM reads WHERE id >= %d AND id < %d`, lo, lo+rows/10)
	skipped := run("", rangeQ, rows/10)["scan.zone_skipped_pages"]
	if skipped*2 < sealed {
		t.Errorf("range over the append-ordered column skipped %d of %d sealed pages; want at least half", skipped, sealed)
	}
	t.Logf("%d sealed pages: point lookup %d pool pages indexed vs %d scanned, range skipped %d", sealed, idxPages, fullPages, skipped)
}

// TestClusteredSeekCounterFloor: a predicate on the leading column of a
// clustered key seeks instead of walking every leaf. Counted in pool
// pages, from db.Metrics() deltas: a primary-key point lookup touches at
// most 4 (root to leaf plus a neighbour), a leading-column range of a
// composite key a fraction of the full walk; the pushed predicate still
// filters, so bounds the seek cannot express exactly (<=, a string's upper
// end, a second key column) return the same rows as before.
func TestClusteredSeekCounterFloor(t *testing.T) {
	const rows = 20000
	db, err := Open(t.TempDir(), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE r (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, seq VARCHAR(40))`)
	mustExec(t, db, `CREATE TABLE a (g INT NOT NULL, pos BIGINT NOT NULL, tag VARCHAR(8), PRIMARY KEY CLUSTERED (g, pos))`)
	rBatch, aBatch := make([]sqltypes.Row, rows), make([]sqltypes.Row, rows)
	for i := range rBatch {
		rBatch[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(fmt.Sprintf("ACGT%016d", i))}
		aBatch[i] = sqltypes.Row{sqltypes.NewInt(int64(i%8 + 1)), sqltypes.NewInt(int64(i)), sqltypes.NewString(fmt.Sprintf("t%d", i%5))}
	}
	if err := db.InsertRows("r", rBatch); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("a", aBatch); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)

	pages := func(query string, want int64) int64 {
		t.Helper()
		before := db.Metrics()
		res := mustExec(t, db, query)
		if got := res.Rows[0][0].I; got != want {
			t.Fatalf("%s = %d, want %d", query, got, want)
		}
		after := db.Metrics()
		return after["pool.hits"] + after["pool.misses"] - before["pool.hits"] - before["pool.misses"]
	}
	walk := pages(`SELECT COUNT(*) FROM r WHERE seq <> ''`, rows)
	point := pages(`SELECT COUNT(*) FROM r WHERE r_id = 12345`, 1)
	if point > 4 {
		t.Errorf("primary-key point lookup touched %d pool pages (full walk %d); want at most 4", point, walk)
	}
	if plan := mustExec(t, db, `EXPLAIN SELECT seq FROM r WHERE r_id = 12345`).Plan; !strings.Contains(plan, "SEEK:[12345..12346)") {
		t.Errorf("EXPLAIN does not show the seek bound:\n%s", plan)
	}
	for query, want := range map[string]int64{
		`SELECT COUNT(*) FROM r WHERE r_id <= 100`:                 100,
		`SELECT COUNT(*) FROM r WHERE r_id > 19990`:                10,
		`SELECT COUNT(*) FROM r WHERE r_id > 50 AND r_id < 40`:     0,
		`SELECT COUNT(*) FROM r WHERE 7 = r_id`:                    1,
		`SELECT COUNT(*) FROM r WHERE r_id >= 100 AND r_id <= 199`: 100,
	} {
		if got := pages(query, want); got*4 > walk {
			t.Errorf("%s touched %d pool pages, the full walk %d", query, got, walk)
		}
	}
	aWalk := pages(`SELECT COUNT(*) FROM a WHERE tag <> ''`, rows)
	if got := pages(`SELECT COUNT(*) FROM a WHERE g = 3 AND pos < 10000`, rows/16); got*4 > aWalk {
		t.Errorf("leading-column range of a composite key touched %d pool pages, the full walk %d", got, aWalk)
	}
	pages(`SELECT COUNT(*) FROM a WHERE pos < 10000`, rows/2) // no bound on the leading column: a full walk, still right
	t.Logf("r: full walk %d pool pages, point lookup %d; a: full walk %d", walk, point, aWalk)
}

// TestScanDecodesOnlyTouchedColumns is the late-materialization floor: a
// batch scan of an uncompressed (row-page) table decodes the columns the
// query reads and no others. ValuesDecoded counts cells materialized, so
// a two-column predicate over an 8-column table may cost at most 2 cells
// per scanned row and a bare COUNT(*) none — where decoding rows and
// transposing them cost 8.
func TestScanDecodesOnlyTouchedColumns(t *testing.T) {
	const rows = 6000
	db, err := Open(t.TempDir(), Options{DOP: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE lane (r_id BIGINT, fc INT, a INT, b INT, x INT, y INT, s VARCHAR(40), q VARCHAR(40))`)
	batch := make([]sqltypes.Row, rows)
	for i := range batch {
		n := int64(i)
		batch[i] = sqltypes.Row{
			sqltypes.NewInt(n), sqltypes.NewInt(7), sqltypes.NewInt(n % 10), sqltypes.NewInt(n % 100),
			sqltypes.NewInt(n * 3), sqltypes.NewInt(n * 5),
			sqltypes.NewString(fmt.Sprintf("ACGTACGTACGT%08d", i)), sqltypes.NewString("IIIIIIIIIIIIIIIIIIII"),
		}
	}
	if err := db.InsertRows("lane", batch); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)

	perRow := func(query string, want int64) (cells, scanned int64) {
		t.Helper()
		before := db.Metrics()
		if got := mustExec(t, db, query).Rows[0][0].I; got != want {
			t.Fatalf("%s = %d, want %d", query, got, want)
		}
		after := db.Metrics()
		cells = after["scan.values_decoded"] - before["scan.values_decoded"]
		scanned = after["scan.rows"] - before["scan.rows"]
		if scanned != rows {
			t.Fatalf("%s scanned %d rows in batches, want %d", query, scanned, rows)
		}
		return cells, scanned
	}
	if cells, scanned := perRow(`SELECT COUNT(*) FROM lane WHERE a = 3 AND b < 50`, rows/20); cells > 2*scanned {
		t.Errorf("two-column predicate decoded %d cells for %d rows; want at most 2 a row", cells, scanned)
	}
	if cells, _ := perRow(`SELECT COUNT(*) FROM lane`, rows); cells != 0 {
		t.Errorf("bare COUNT(*) decoded %d cells; it reads no column", cells)
	}
	if cells, scanned := perRow(`SELECT COUNT(*) FROM lane WHERE CHARINDEX('N', s) = 0`, rows); cells > scanned {
		t.Errorf("function predicate over one column decoded %d cells for %d rows; want at most 1 a row", cells, scanned)
	}

	// Clustered tables too: the merge join of the benchmark reads each
	// side's key and nothing else, where decoding rows cost every cell —
	// both 36-byte strings of a read among them.
	mustExec(t, db, `CREATE TABLE r (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, s VARCHAR(40), q VARCHAR(40))`)
	mustExec(t, db, `CREATE TABLE a (a_r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, g INT, pos BIGINT, strand BIT, mapq INT)`)
	rBatch, aBatch := make([]sqltypes.Row, rows), make([]sqltypes.Row, rows)
	for i := range rBatch {
		id := sqltypes.NewInt(int64(i + 1))
		rBatch[i] = sqltypes.Row{id, sqltypes.NewString(fmt.Sprintf("ACGTACGTACGTACGTACGTACGTACGT%08d", i)), sqltypes.NewString("IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII")}
		aBatch[i] = sqltypes.Row{id, sqltypes.NewInt(int64(i % 8)), sqltypes.NewInt(int64(i * 3)), sqltypes.NewBool(i%2 == 0), sqltypes.NewInt(int64(i % 60))}
	}
	if err := db.InsertRows("r", rBatch); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("a", aBatch); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CHECKPOINT`)
	const join = `SELECT COUNT(*) FROM a JOIN r ON a_r_id = r_id`
	if plan := mustExec(t, db, `EXPLAIN `+join).Plan; !strings.Contains(plan, "Merge Join") {
		t.Fatalf("expected a merge join of the clustered tables:\n%s", plan)
	}
	before := db.Metrics()
	if got := mustExec(t, db, join).Rows[0][0].I; got != rows {
		t.Fatalf("%s = %d, want %d", join, got, rows)
	}
	after := db.Metrics()
	cells, scanned := after["scan.values_decoded"]-before["scan.values_decoded"], after["scan.rows"]-before["scan.rows"]
	if scanned != 2*rows || cells > scanned {
		t.Errorf("merge join of two clustered tables scanned %d rows in batches (want %d) and decoded %d cells; want at most 1 a row on each side",
			scanned, 2*rows, cells)
	}
}

const indexTortureRows = 500

// runIndexBuildWorkload loads a table, checkpoints, arms the injector,
// and attempts CREATE INDEX — so every armed failpoint sits inside the
// two-phase index build. Returns the failpoints reached.
func runIndexBuildWorkload(t *testing.T, dir string, inj *fault.Injector) int64 {
	t.Helper()
	db, err := Open(dir, Options{DOP: 2, FaultInjector: inj})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE it (k BIGINT, v BIGINT)`); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	var vals []string
	for i := 0; i < indexTortureRows; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, (i*7919)%indexTortureRows))
		if len(vals) == 50 {
			if _, err := db.Exec("INSERT INTO it VALUES " + strings.Join(vals, ", ")); err != nil {
				t.Fatalf("insert: %v", err)
			}
			vals = vals[:0]
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("setup checkpoint: %v", err)
	}
	inj.Arm()
	if _, err := db.Exec(`CREATE INDEX idx_v ON it(v)`); err != nil && !inj.Crashed() {
		t.Fatalf("CREATE INDEX failed without a crash: %v", err)
	}
	points := inj.Points()
	_ = db.Close() // errors expected after a crash
	return points
}

// verifyIndexTorture reopens without the injector and checks the
// whole-index-or-none promise: either the catalog names idx_v and a
// forced index scan agrees with a full scan over every probe, or the
// index is entirely absent, queries still answer correctly, and a fresh
// CREATE INDEX succeeds. Half-built shadow files must be gone either way.
func verifyIndexTorture(t *testing.T, dir, label string) {
	t.Helper()
	db, err := Open(dir, Options{DOP: 2})
	if err != nil {
		t.Fatalf("%s: reopen after crash failed: %v", label, err)
	}
	defer db.Close()
	defer func() { db.planner.ForcePath = "" }()
	if err := db.healthErr(); err != nil {
		t.Errorf("%s: recovered database unhealthy: %v", label, err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.building")); len(leftovers) != 0 {
		t.Errorf("%s: half-built index shadows survived recovery: %v", label, leftovers)
	}

	hadIdx := db.Catalog().Get("it").IndexByName("idx_v") != nil
	if !hadIdx {
		// The "none" arm must leave a clean slate: rebuilding works.
		if _, err := db.Exec(`CREATE INDEX idx_v ON it(v)`); err != nil {
			t.Fatalf("%s: rebuilding the lost index: %v", label, err)
		}
	}
	probes := []string{
		"v = 123",
		"v >= 100 AND v < 200",
		"v > 450",
	}
	for _, pred := range probes {
		q := "SELECT k, v FROM it WHERE " + pred
		db.planner.ForcePath = "full"
		want := canonResult(mustExec(t, db, q))
		db.planner.ForcePath = "index"
		res := mustExec(t, db, "EXPLAIN "+q)
		if !strings.Contains(res.Plan, "Index Scan") {
			t.Fatalf("%s: forced index probe planned no Index Scan (had=%v):\n%s", label, hadIdx, res.Plan)
		}
		got := canonResult(mustExec(t, db, q))
		if len(got) != len(want) {
			t.Fatalf("%s: %s: index path %d rows, full scan %d (index present at reopen: %v)",
				label, pred, len(got), len(want), hadIdx)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %s: row %d differs between index and full scan", label, pred, i)
			}
		}
	}
}

// TestIndexBuildCrashTorture sweeps a crash across every I/O of the
// two-phase index build (sort runs, shadow bulk-load, WAL intent, rename,
// catalog commit, closing checkpoint) and asserts recovery always lands
// on a whole index or none.
func TestIndexBuildCrashTorture(t *testing.T) {
	baseDir := filepath.Join(t.TempDir(), "base")
	baseInj := fault.New()
	points := runIndexBuildWorkload(t, baseDir, baseInj)
	if baseInj.Crashed() {
		t.Fatal("baseline run crashed with no rules")
	}
	if points == 0 {
		t.Fatal("CREATE INDEX reached no failpoints")
	}
	if err := baseInj.WriteBack(); err != nil {
		t.Fatal(err)
	}
	verifyIndexTorture(t, baseDir, "baseline")

	target := int64(30)
	if testing.Short() {
		target = 10
	}
	stride := points / target
	if stride < 1 {
		stride = 1
	}
	crashes := 0
	for k := int64(1); k <= points; k += stride {
		rule := &fault.Rule{Nth: k, Kind: fault.KindCrash}
		if k%3 == 0 {
			rule.TornFrac = 0.6 // torn final write: partial sector on the floor
		}
		inj := fault.New(rule)
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("crash%d", k))
		runIndexBuildWorkload(t, dir, inj)
		if !inj.Crashed() {
			t.Fatalf("crash point %d never fired: build is not deterministic", k)
		}
		if err := inj.PersistErr(); err != nil {
			t.Fatalf("crash point %d: persisting crash image: %v", k, err)
		}
		verifyIndexTorture(t, dir, fmt.Sprintf("crash@%d", k))
		crashes++
	}
	t.Logf("%d failpoints in CREATE INDEX, %d crash points swept", points, crashes)
}
