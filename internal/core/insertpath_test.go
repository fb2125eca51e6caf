package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// The insert-path safety net. INSERT ... VALUES, INSERT ... SELECT and
// InsertRows load the same logical rows into a heap with a secondary index
// and into a clustered table. Each load is checked live, and again after
// the handle is abandoned and the directory reopened, so that recovery
// replays it. A rolled-back multi-row statement precedes every load, so
// recovery also has uncommitted records to skip, and so does the same
// load refused for its last row: a value too long for its column, or a
// key that repeats the statement's first.

// insertPathRow is the logical row of key k: NULLs in both non-key
// columns on a share of the keys.
func insertPathRow(k int64) sqltypes.Row {
	v, n := sqltypes.NewString(fmt.Sprintf("v%06d", k)), sqltypes.NewInt(k%13)
	if k%7 == 0 {
		v = sqltypes.Null
	}
	if k%5 == 0 {
		n = sqltypes.Null
	}
	return sqltypes.Row{sqltypes.NewInt(k), v, n}
}

func insertPathRows(keys []int64) []sqltypes.Row {
	rows := make([]sqltypes.Row, len(keys))
	for i, k := range keys {
		rows[i] = insertPathRow(k)
	}
	return rows
}

// insertPathBase is the checkpointed content before every load: keys
// 0, 10, 20, ... with a gap between 5 990 and 9 000.
func insertPathBase() []int64 {
	var keys []int64
	for i := int64(0); i < 1500; i++ {
		if i < 600 || i >= 900 {
			keys = append(keys, 10*i)
		}
	}
	return keys
}

// insertPathPatterns are the loaded key sets, in statement order.
var insertPathPatterns = []struct {
	name string
	keys func() []int64
}{
	{"ascending", func() []int64 {
		keys := make([]int64, 1100)
		for i := range keys {
			keys[i] = 20000 + int64(i)
		}
		return keys
	}},
	{"descending", func() []int64 {
		keys := make([]int64, 1100)
		for i := range keys {
			keys[i] = 40000 - int64(i)
		}
		return keys
	}},
	// Between existing keys, never past the largest: one key after most
	// base keys, and a dense run into the gap, which overflows the leaf
	// holding 5 990 with keys that all sort after its last one.
	{"between", func() []int64 {
		var keys []int64
		for i := int64(0); i < 1400; i++ {
			if i < 600 || i >= 900 {
				keys = append(keys, 10*i+5)
			}
		}
		for k := int64(6000); k < 6600; k++ {
			keys = append(keys, k)
		}
		rand.New(rand.NewSource(3)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}},
}

// valuesSQL renders rows as one INSERT ... VALUES statement.
func valuesSQL(table string, rows []sqltypes.Row) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + table + " VALUES ")
	for i, r := range rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for j, v := range r {
			if j > 0 {
				sb.WriteByte(',')
			}
			switch {
			case v.IsNull():
				sb.WriteString("NULL")
			case v.K == sqltypes.KindString:
				sb.WriteString("'" + v.S + "'")
			default:
				fmt.Fprint(&sb, v.I)
			}
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// TestInsertPathsAgree: every insert path leaves the rows, the index
// entries and the clustered keys a sorted oracle expects, live and after
// recovery replays the load.
func TestInsertPathsAgree(t *testing.T) {
	targets := []struct {
		name      string
		ddl       []string
		clustered bool
		refusal   string // the error of the load with a bad last row
	}{
		{"heap", []string{`CREATE TABLE t (k BIGINT, v VARCHAR(16), n INT)`, `CREATE INDEX ix ON t(k)`}, false, "exceeds VARCHAR(16)"},
		{"clustered", []string{`CREATE TABLE t (k BIGINT NOT NULL PRIMARY KEY CLUSTERED, v VARCHAR(16), n INT)`}, true, "duplicate primary key"},
	}
	paths := []string{"values", "select", "insertrows"}
	for _, tg := range targets {
		for _, pat := range insertPathPatterns {
			for _, path := range paths {
				label := tg.name + "/" + pat.name + "/" + path
				t.Run(label, func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "db")
					db, err := Open(dir, Options{DOP: 1})
					if err != nil {
						t.Fatal(err)
					}
					abandoned := db
					defer func() { abandoned.Close() }()
					for _, ddl := range tg.ddl {
						mustExec(t, db, ddl)
					}
					mustExec(t, db, `CREATE TABLE src (k BIGINT, v VARCHAR(40), n INT)`)
					mustExec(t, db, `CREATE TABLE srcbad (k BIGINT, v VARCHAR(40), n INT)`)
					base := insertPathBase()
					if err := db.InsertRows("t", insertPathRows(base)); err != nil {
						t.Fatal(err)
					}
					keys := pat.keys()
					batch := insertPathRows(keys)
					bad := insertPathRow(keys[0])
					if !tg.clustered {
						bad = insertPathRow(60000)
						bad[1] = sqltypes.NewString(strings.Repeat("x", 17))
					}
					badBatch := append(slices.Clone(batch), bad)
					for _, src := range []struct {
						name string
						rows []sqltypes.Row
					}{{"src", batch}, {"srcbad", badBatch}} {
						if err := db.InsertRows(src.name, src.rows); err != nil {
							t.Fatal(err)
						}
					}
					mustExec(t, db, `CHECKPOINT`)

					// A multi-row statement that rolls back: dead heap rows
					// and uncommitted log records ahead of the load.
					s := db.NewSession()
					if err := s.Begin(); err != nil {
						t.Fatal(err)
					}
					doomed := make([]int64, 50)
					for i := range doomed {
						doomed[i] = 50000 + int64(i)
					}
					if _, err := s.Exec(valuesSQL("t", insertPathRows(doomed))); err != nil {
						t.Fatal(err)
					}
					if err := s.Rollback(); err != nil {
						t.Fatal(err)
					}

					load := func(src string, rows []sqltypes.Row) error {
						var err error
						switch path {
						case "values":
							_, err = db.Exec(valuesSQL("t", rows))
						case "select":
							_, err = db.Exec(`INSERT INTO t SELECT k, v, n FROM ` + src)
						case "insertrows":
							err = db.InsertRows("t", rows)
						}
						return err
					}
					if err := load("srcbad", badBatch); err == nil || !strings.Contains(err.Error(), tg.refusal) {
						t.Fatalf("load with a bad last row: %v, want %q", err, tg.refusal)
					}
					if err := load("src", batch); err != nil {
						t.Fatal(err)
					}
					want := append(slices.Clone(base), keys...)
					slices.Sort(want)
					checkInsertTarget(t, db, "live", tg.clustered, want)

					// Abandon the handle: the load is only in the log.
					db2, err := Open(dir, Options{DOP: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer db2.Close()
					checkInsertTarget(t, db2, "recovered", tg.clustered, want)
				})
			}
		}
	}
}

// checkInsertTarget compares table t with the rows of the sorted keys
// want: the visible rows, the clustered tree in key order and a Get of
// every key, or the index's entries against the visible heap rows and a
// Get of every entry.
func checkInsertTarget(t *testing.T, db *Database, label string, clustered bool, want []int64) {
	t.Helper()
	res := mustExec(t, db, `SELECT k, v, n FROM t`)
	got := res.Rows
	slices.SortFunc(got, func(a, b sqltypes.Row) int { return int(a[0].I - b[0].I) })
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i, k := range want {
		if !rowsEqual(got[i], insertPathRow(k)) {
			t.Fatalf("%s: row %d = %v, want %v", label, i, got[i], insertPathRow(k))
		}
	}

	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table("t")
	if err != nil {
		t.Fatal(err)
	}
	if clustered {
		var wantKeys [][]byte
		for _, k := range want {
			key, err := td.pkKey(insertPathRow(k))
			if err != nil {
				t.Fatal(err)
			}
			wantKeys = append(wantKeys, key)
		}
		it, err := td.tree.Seek(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; it.Next(); i++ {
			if i >= len(wantKeys) || !bytes.Equal(it.Key(), wantKeys[i]) {
				it.Close()
				t.Fatalf("%s: tree key %d out of order or unexpected", label, i)
			}
		}
		it.Close()
		if err := it.Err(); err != nil || i != len(wantKeys) {
			t.Fatalf("%s: tree walk gave %d keys of %d (%v)", label, i, len(wantKeys), err)
		}
		for i, key := range wantKeys {
			val, ok, err := td.tree.Get(key)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%d) = %v, %v", label, want[i], ok, err)
			}
			row, _, err := td.walCodec.Decode(val, true)
			if err != nil || !rowsEqual(row, insertPathRow(want[i])) {
				t.Fatalf("%s: Get(%d) decodes to %v (%v)", label, want[i], row, err)
			}
		}
		return
	}
	ix := td.indexes[0]
	live := td.versions.visibleRanges(nil)
	cache := storage.NewHeapFetchCache(obs.Sink{})
	var entries [][]byte
	for idx := int64(0); idx < td.heap.RowCount(); idx++ {
		if !rowIdxVisible(live, idx) {
			continue
		}
		row, err := heapRow(td, idx, cache)
		if err != nil {
			t.Fatal(err)
		}
		key, err := indexEntryKey(ix.cols, row, idx)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, key)
	}
	if len(entries) != len(want) {
		t.Fatalf("%s: %d visible heap rows, want %d", label, len(entries), len(want))
	}
	slices.SortFunc(entries, bytes.Compare)
	it, err := ix.tree.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Next(); i++ {
		if i >= len(entries) || !bytes.Equal(it.Key(), entries[i]) {
			it.Close()
			t.Fatalf("%s: index entry %d differs from the oracle", label, i)
		}
	}
	it.Close()
	if err := it.Err(); err != nil || i != len(entries) {
		t.Fatalf("%s: index holds %d entries, want %d (%v)", label, i, len(entries), err)
	}
	for i, key := range entries {
		if _, ok, err := ix.tree.Get(key); err != nil || !ok {
			t.Fatalf("%s: Get of entry %d = %v, %v", label, i, ok, err)
		}
	}
}

// rowsEqual compares two rows value by value, NULL equal to NULL.
func rowsEqual(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].IsNull() != b[i].IsNull() {
			return false
		}
		if !a[i].IsNull() && sqltypes.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// FuzzInsertRecordDecode: an arbitrary RecInsert payload for a fixed
// schema, as a heap's record and as a clustered table's, either decodes to
// rows or returns an error, and never panics; rows that decode, written as
// a statement's batch, encode to a payload that decodes to those rows.
func FuzzInsertRecordDecode(f *testing.F) {
	db, err := Open(filepath.Join(f.TempDir(), "db"), Options{DOP: 1})
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	const cols = `n INT, s VARCHAR(40), x FLOAT, b BIT, q VARBINARY(16), g SEQUENCE(64)`
	mustExecF(f, db, `CREATE TABLE fh (id BIGINT, `+cols+`)`)
	mustExecF(f, db, `CREATE TABLE fc (id BIGINT PRIMARY KEY CLUSTERED, `+cols+`)`)
	var tds []*tableData
	for _, name := range []string{"fh", "fc"} {
		td, err := db.table(name)
		if err != nil {
			f.Fatal(err)
		}
		tds = append(tds, td)
	}
	seed := []sqltypes.Row{
		{sqltypes.NewInt(7), sqltypes.NewInt(-3), sqltypes.NewString("ACGT"), sqltypes.NewFloat(2.5),
			sqltypes.NewBool(true), sqltypes.NewBytes([]byte{0, 1, 2}), sqltypes.NewString("ACGTNNACGT")},
		{sqltypes.NewInt(3), sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null, sqltypes.Null},
		{sqltypes.NewInt(-1 << 40), sqltypes.NewInt(1 << 30), sqltypes.NewString(""), sqltypes.NewFloat(-0.0),
			sqltypes.NewBool(false), sqltypes.NewBytes(nil), sqltypes.NewString("")},
	}
	for _, td := range tds {
		for n := 1; n <= len(seed); n++ {
			b, err := td.newRowBatch(seed[:n])
			if err != nil {
				f.Fatal(err)
			}
			checkBatchRoundTrip(f, td, b)
			f.Add(b.imgs)
			f.Add(b.imgs[:len(b.imgs)-1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, td := range tds {
			b, err := td.decodeRowBatch(data)
			if err != nil {
				continue
			}
			if len(b.rows) == 0 || b.ends[len(b.ends)-1] != len(data) {
				t.Fatalf("%s: %d rows decoded from %d bytes, ending at %v", td.def.Name, len(b.rows), len(data), b.ends)
			}
			rows := make([]sqltypes.Row, len(b.rows))
			for i, r := range b.rows {
				if rows[i], err = td.def.FromStorageRow(r.Clone()); err != nil {
					return
				}
			}
			enc, err := td.newRowBatch(rows)
			if err != nil {
				continue // e.g. a NULL key or a value over its column's length
			}
			checkBatchRoundTrip(t, td, enc)
		}
	})
}

// checkBatchRoundTrip decodes a batch's payload and requires the same row
// images back, in the same order.
func checkBatchRoundTrip(t testing.TB, td *tableData, b *rowBatch) {
	t.Helper()
	got, err := td.decodeRowBatch(b.imgs)
	if err != nil {
		t.Fatalf("%s: an encoded batch does not decode: %v", td.def.Name, err)
	}
	if len(got.rows) != len(b.rows) || !bytes.Equal(got.imgs, b.imgs) || !slices.Equal(got.ends, b.ends) {
		t.Fatalf("%s: %d rows decode to %d", td.def.Name, len(b.rows), len(got.rows))
	}
	for i := range b.rows {
		if !bytes.Equal(got.img(i), b.img(i)) {
			t.Fatalf("%s: row %d decodes to other bytes", td.def.Name, i)
		}
		if !slices.EqualFunc(got.keys, b.keys, bytes.Equal) {
			t.Fatalf("%s: keys differ after decoding", td.def.Name)
		}
	}
}

func mustExecF(f *testing.F, db *Database, sql string) {
	f.Helper()
	if _, err := db.Exec(sql); err != nil {
		f.Fatalf("Exec(%q): %v", sql, err)
	}
}
