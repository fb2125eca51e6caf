package core

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/vec"
	"repro/internal/wal"
)

// Secondary indexes are nonclustered B+-trees over heap tables. Each entry
// key is the indexed column values (storage representation, order-preserving
// encoding) followed by the row's heap position, which makes every entry
// unique; the value is empty. Scans resolve positions back to rows through
// the buffer pool and apply MVCC visibility per position, so an index never
// needs its own version metadata — the heap's spans govern it.
//
// The physical index covers every heap row, dead or alive, exactly like the
// heap file itself: rolled-back rows leave entries that visibility filtering
// hides and the next checkpoint compaction rebuilds away.

// indexData is one open secondary index on a heap table.
type indexData struct {
	name string
	cols []int
	tree *btree.BTree
	path string
}

func (db *Database) indexPath(def *catalog.Table, name string) string {
	return filepath.Join(db.dir, fmt.Sprintf("t%d_%s.ix_%s.btree", def.ID, sanitize(def.Name), sanitize(name)))
}

// indexEntryKey builds the entry key for one storage row at heap position
// rowIdx.
func indexEntryKey(cols []int, stored sqltypes.Row, rowIdx int64) ([]byte, error) {
	vals := make(sqltypes.Row, len(cols))
	for i, c := range cols {
		vals[i] = stored[c]
	}
	key, err := btree.AppendKey(nil, vals)
	if err != nil {
		return nil, err
	}
	return btree.AppendKey(key, sqltypes.Row{sqltypes.NewInt(rowIdx)})
}

// entryPosLen is the length of an entry key's position suffix: one
// encoded INT.
const entryPosLen = 9

// indexEntryRowIdx recovers the heap position from an entry key (the
// trailing fixed-width integer).
func indexEntryRowIdx(key []byte) (int64, bool) {
	if len(key) < entryPosLen {
		return 0, false
	}
	return btree.DecodeIntKeyPrefix(key[len(key)-entryPosLen:])
}

// openIndexes opens a heap table's catalog indexes and deletes orphan index
// files: half-built ".building" shadows and files whose build crashed
// before its catalog commit (the catalog entry IS the commit point).
func (db *Database) openIndexes(td *tableData) error {
	def := td.def
	expected := map[string]bool{}
	for i := range def.Indexes {
		expected[db.indexPath(def, def.Indexes[i].Name)] = true
	}
	pattern := filepath.Join(db.dir, fmt.Sprintf("t%d_%s.ix_*", def.ID, sanitize(def.Name)))
	matches, err := filepath.Glob(pattern)
	if err != nil {
		return err
	}
	for _, m := range matches {
		if !expected[m] {
			if err := fault.Remove(db.inj, m); err != nil {
				return err
			}
		}
	}
	for i := range def.Indexes {
		ix := &def.Indexes[i]
		path := db.indexPath(def, ix.Name)
		tree, err := btree.OpenFault(path, db.pool, db.inj)
		if err != nil {
			return err
		}
		td.indexes = append(td.indexes, &indexData{name: ix.Name, cols: ix.Columns, tree: tree, path: path})
	}
	return nil
}

// resolveIndexCols maps index column names to positions, refusing what the
// entry encoding cannot order correctly.
func resolveIndexCols(def *catalog.Table, names []string) ([]int, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("core: CREATE INDEX requires at least one column")
	}
	cols := make([]int, 0, len(names))
	for _, n := range names {
		idx := def.ColumnIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("core: table %s has no column %q", def.Name, n)
		}
		if def.Columns[idx].Type.Name == catalog.TypeSequence {
			return nil, fmt.Errorf("core: SEQUENCE columns cannot be indexed (packed storage order differs from value order)")
		}
		for _, prev := range cols {
			if prev == idx {
				return nil, fmt.Errorf("core: duplicate index column %q", n)
			}
		}
		cols = append(cols, idx)
	}
	return cols, nil
}

// ddlPayload is the WAL body of a RecDDL record.
type ddlPayload struct {
	Op    string `json:"op"`
	Table string `json:"table"`
	Index string `json:"index,omitempty"`
}

// indexEntryOrder sorts single-column rows of entry keys: sqltypes.Compare
// on BYTES is bytes.Compare, the btree's order.
var indexEntryOrder = []exec.SortKey{{Col: 0}}

// indexSorts returns the sorts of the entries of heap rows [lo, hi), one
// per partition of the sealed pages from the page holding row lo; the last
// partition reads on through the pages sealed since and the tail. Each
// sorts its share under the sort budget (at least 1 MB a partition, so a
// small budget does not cut a build into runs of a few rows), spilling
// runs past it; exec.MergeSorted over them is the index in key order. The
// scans count nowhere: the scan.* counters are the work of queries.
func (db *Database) indexSorts(td *tableData, cols []int, lo, hi, parts int64) []*exec.Sort {
	first, sealed := td.heap.PageOf(lo), td.heap.SealedPages()
	parts = max(min(parts, sealed-first), 1)
	budget := db.sortBudget
	if budget > 0 {
		budget = max(budget/parts, 1<<20)
	}
	needed := make([]bool, len(td.def.Columns))
	for _, c := range cols {
		needed[c] = true
	}
	sorts := make([]*exec.Sort, parts)
	for i := range sorts {
		from := first + (sealed-first)*int64(i)/parts
		to := first + (sealed-first)*int64(i+1)/parts
		tail := i == len(sorts)-1
		scan := &exec.Scan{Factory: func(*exec.Context, []bool) (exec.BatchIterator, error) {
			return &entryBatches{bi: td.heap.NewBatchIterator(from, to, tail, obs.Sink{}), cols: cols, needed: needed, lo: lo, hi: hi}, nil
		}}
		sorts[i] = &exec.Sort{Keys: indexEntryOrder, Child: scan, MemoryBudget: budget, Spill: db.SpillStore()}
	}
	return sorts
}

// entryBatches reads heap batches as one-column batches of the entry keys
// of rows [lo, hi). Physical row r of a heap batch is heap row Base+r.
type entryBatches struct {
	bi     *storage.HeapBatchIterator
	cols   []int
	needed []bool // the index columns, the only cells read
	lo, hi int64
	row    sqltypes.Row
}

func (e *entryBatches) NextBatch() (*vec.Batch, error) {
	for {
		b, err := e.bi.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		keys := &vec.Vector{Kind: sqltypes.KindBytes}
		for r := max(e.lo-b.Base, 0); r < min(e.hi-b.Base, int64(b.Rows())); r++ {
			if e.row, err = b.ReadRowCols(int(r), e.row, e.needed); err != nil {
				return nil, err
			}
			key, err := indexEntryKey(e.cols, e.row, b.Base+r)
			if err != nil {
				return nil, err
			}
			vec.AppendText(keys, key)
		}
		if n := keys.Len(); n > 0 {
			return vec.NewBatch([]*vec.Vector{keys}, n), nil
		}
	}
}

func (e *entryBatches) Close() error { return e.bi.Close() }

// writeIndexFile bulk-loads an open stream of sorted entry keys into
// path's ".building" shadow, renames the shadow over path and opens it: a
// crash leaves the old file (or none) or the whole new one, never a part.
func (db *Database) writeIndexFile(path string, entries exec.Operator) (*btree.BTree, error) {
	building := path + ".building"
	_ = fault.Remove(db.inj, building)
	var b *vec.Batch
	at := 0
	tree, err := btree.BulkLoadFault(building, db.pool, db.inj, func() ([]byte, []byte, bool, error) {
		for b == nil || at == len(b.Sel) {
			var err error
			if b, err = entries.NextBatch(); err != nil || b == nil {
				return nil, nil, false, err
			}
			at = 0
		}
		key, err := b.Cols[0].Value(b.Sel[at])
		at++
		return key.B, nil, err == nil, err
	})
	// Close before the rename: the tree's shadow checkpoints write through
	// its opening path, which is about to stop existing.
	if err == nil {
		err = tree.Close()
	}
	if err == nil {
		err = fault.Rename(db.inj, building, path)
	}
	if err != nil {
		_ = fault.Remove(db.inj, building)
		return nil, err
	}
	return btree.OpenFault(path, db.pool, db.inj)
}

// runCreateIndex executes CREATE INDEX in two phases. Phase 1, under the
// SHARED structure lock, sorts the entries of the rows the heap holds, one
// budgeted Sort per page partition opened in parallel by exec.MergeSorted
// (indexSorts) — concurrent queries and writers keep flowing while the
// bulk of the work happens. Phase 2, under the EXCLUSIVE lock, opens the
// merge again with one more Sort over the rows that arrived during phase 1,
// logs durable intent to the WAL, bulk-loads the merged stream into the
// index file (writeIndexFile), and commits by adding the index to the
// catalog. A crash at any point leaves either no index (orphan files are
// deleted at open) or a complete one (recovery rebuilds it if WAL replay
// shifts heap positions). RowsAffected is the entries written.
func (db *Database) runCreateIndex(s *Session, ci *sqlparse.CreateIndex, sql string) (res *Result, err error) {
	start := time.Now()
	defer func() {
		var rows int64
		if res != nil {
			rows = res.RowsAffected
		}
		db.record(queryLabel(sql, "CREATE INDEX"), start, rows, nil, err, false)
	}()
	if err := s.refuseDDLInTxn(); err != nil {
		return nil, err
	}

	// ---- Phase 1: validate and sort the entries under the shared lock.
	db.mu.RLock()
	td, err := db.table(ci.Table)
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	def := td.def
	var cols []int
	switch {
	case td.heap == nil:
		err = fmt.Errorf("core: secondary indexes are supported on heap tables only (%s is clustered)", def.Name)
	case def.IndexByName(ci.Name) != nil:
		err = fmt.Errorf("core: index %s already exists on %s", ci.Name, def.Name)
	default:
		cols, err = resolveIndexCols(def, ci.Cols)
	}
	if err != nil {
		db.mu.RUnlock()
		return nil, err
	}
	n0 := td.heap.RowCount()
	gen := td.compactGen
	ctx := &exec.Context{DOP: 1, Sink: db.sink}
	merged := &exec.MergeSorted{Keys: indexEntryOrder, Children: db.indexSorts(td, cols, 0, n0, int64(db.dop))}
	err = merged.Open(ctx)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	defer merged.Close()
	if db.betweenIndexPhases != nil {
		db.betweenIndexPhases()
	}

	// ---- Phase 2: catch up, bulk load and commit under the exclusive lock.
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.healthErr(); err != nil {
		return nil, err
	}
	if db.tm.explicitOpen() {
		return nil, fmt.Errorf("core: CREATE INDEX cannot run while a transaction is open")
	}
	// Re-validate: the table set and catalog may have changed between the
	// two lock phases.
	td2, err := db.table(ci.Table)
	if err != nil {
		return nil, err
	}
	if td2 != td || td.heap == nil {
		return nil, fmt.Errorf("core: table %s changed during CREATE INDEX", ci.Table)
	}
	if def.IndexByName(ci.Name) != nil {
		return nil, fmt.Errorf("core: index %s already exists on %s", ci.Name, def.Name)
	}
	if td.compactGen != gen {
		// A checkpoint compaction moved rows while the lock was released;
		// the phase-1 positions are stale. Rare enough to just retry.
		return nil, fmt.Errorf("core: heap %s was compacted during CREATE INDEX; retry", def.Name)
	}
	// The delta: rows appended while phase 1 ran.
	m := td.heap.RowCount()
	if m > n0 {
		merged.Children = append(merged.Children, db.indexSorts(td, cols, n0, m, 1)...)
		if err := merged.Open(ctx); err != nil {
			return nil, err
		}
	}

	// Durable intent BEFORE the file exists: if replay later compacts
	// aborted rows out of this table, the baked positions are stale and
	// recovery must rebuild — the RecDDL record is how it knows.
	data, err := json.Marshal(ddlPayload{Op: "create_index", Table: def.Name, Index: ci.Name})
	if err != nil {
		return nil, err
	}
	if err := db.wal.Append(wal.Record{Type: wal.RecDDL, Table: def.ID, Data: data}); err != nil {
		return nil, err
	}
	if err := db.wal.Flush(); err != nil {
		return nil, err
	}
	path := db.indexPath(def, ci.Name)
	tree, err := db.writeIndexFile(path, merged)
	if err != nil {
		return nil, err
	}
	// The commit point: once the catalog names the index, every later open
	// keeps the file; before, it is an orphan deleted at open.
	if err := db.cat.AddIndex(def.Name, catalog.Index{Name: ci.Name, Columns: cols}); err != nil {
		_ = tree.Close()
		_ = fault.Remove(db.inj, path)
		return nil, err
	}
	td.indexes = append(td.indexes, &indexData{name: ci.Name, cols: cols, tree: tree, path: path})
	// Checkpoint to close the recovery window (truncates the RecDDL away);
	// a failure here leaves the index committed and recovery-correct.
	if err := db.checkpointLocked(); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: m}, nil
}

// runDropIndex executes DROP INDEX name ON table. Callers hold db.mu
// exclusively.
func (db *Database) runDropIndex(di *sqlparse.DropIndex) (*Result, error) {
	td, err := db.table(di.Table)
	if err != nil {
		return nil, err
	}
	if td.def.IndexByName(di.Name) == nil {
		return nil, fmt.Errorf("core: no index %q on %s", di.Name, di.Table)
	}
	// Catalog first — the commit point. The reverse order could leave a
	// catalog entry whose file is gone, which would silently open as an
	// empty (entry-less) index.
	if err := db.cat.DropIndex(td.def.Name, di.Name); err != nil {
		return nil, err
	}
	for i, ix := range td.indexes {
		if strings.EqualFold(ix.name, di.Name) {
			_ = ix.tree.Close()
			td.indexes = append(td.indexes[:i], td.indexes[i+1:]...)
			if err := fault.Remove(db.inj, ix.path); err != nil {
				return nil, err
			}
			break
		}
	}
	return &Result{}, nil
}

// rebuildIndexLocked rebuilds one index from the heap's current physical
// contents: every row, in one serial partition, through writeIndexFile.
// Called under the exclusive structure lock (checkpoint compaction) or
// single-threaded recovery.
func (db *Database) rebuildIndexLocked(td *tableData, ix *indexData) error {
	entries := &exec.MergeSorted{Keys: indexEntryOrder, Children: db.indexSorts(td, ix.cols, 0, td.heap.RowCount(), 1)}
	if err := entries.Open(&exec.Context{DOP: 1, Sink: db.sink}); err != nil {
		return err
	}
	defer entries.Close()
	if ix.tree != nil {
		if err := ix.tree.Close(); err != nil {
			return err
		}
	}
	tree, err := db.writeIndexFile(ix.path, entries)
	ix.tree = tree
	return err
}

// rowIdxVisible reports whether a heap position is visible under the
// rendered ranges. Unlike heap scans, index order does not visit positions
// monotonically, so each lookup is a binary search.
func rowIdxVisible(ranges []rowRange, idx int64) bool {
	i := sort.Search(len(ranges), func(i int) bool { return ranges[i].end > idx })
	return i < len(ranges) && idx >= ranges[i].start
}

// indexScanBounds encodes value bounds on the index's first column as
// entry-key bounds for btree.Seek (end-exclusive). Entry keys extend the
// value encoding with more columns and the position suffix, whose first
// byte is always a type tag < 0xFF — so enc(v)‖0xFF sits after every
// v-entry and before any larger value's entries.
func indexScanBounds(lo, hi *sqltypes.Value, loInc, hiInc bool) (start, end []byte, err error) {
	if lo == nil {
		// Past every NULL entry: comparison predicates never match NULL.
		start = []byte{0x01}
	} else {
		start, err = btree.AppendKey(nil, sqltypes.Row{*lo})
		if err != nil {
			return nil, nil, err
		}
		if !loInc {
			start = append(start, 0xFF)
		}
	}
	if hi != nil {
		end, err = btree.AppendKey(nil, sqltypes.Row{*hi})
		if err != nil {
			return nil, nil, err
		}
		if hiInc {
			end = append(end, 0xFF)
		}
	}
	return start, end, nil
}

// indexWalk is the entry walk both index scans share: it steps the index
// in key order and stops at the entries whose heap position the scan's
// snapshot can see.
type indexWalk struct {
	it     *btree.Iterator
	td     *tableData
	ranges []rowRange
	locked bool
}

// next moves to the next visible entry and returns its key and heap
// position; ok is false past the range's last entry.
func (w *indexWalk) next() (key []byte, idx int64, ok bool, err error) {
	for w.it.Next() {
		key = w.it.Key()
		if idx, ok = indexEntryRowIdx(key); !ok {
			return nil, 0, false, fmt.Errorf("core: malformed index entry in %s", w.td.def.Name)
		}
		if rowIdxVisible(w.ranges, idx) {
			return key, idx, true, nil
		}
	}
	return nil, 0, false, w.it.Err()
}

func (w *indexWalk) Close() error {
	w.it.Close()
	if w.locked {
		w.td.writeMu.RUnlock()
		w.locked = false
	}
	return nil
}

// indexScanIterator is the fetching secondary-index scan: it keeps the
// heap positions the walk finds and hands out the fetch cache's vectors
// with the positions found on one page as the selection. A batch ends
// where the next position lies on another page or not past the last one
// (a selection ascends), or at vec.DefaultBatchSize. The fetch cache
// decodes each page once per visit.
type indexScanIterator struct {
	indexWalk
	cache   *storage.HeapFetchCache
	seqCols []int

	held bool          // the cursor's position did not fit the last batch: it opens the next
	cols []*vec.Vector // the vectors holding the cursor's position
	off  int           // and its row in them
}

// advance moves the cursor to the next visible position and fetches the
// vectors holding it.
func (x *indexScanIterator) advance() (bool, error) {
	_, idx, ok, err := x.next()
	if !ok {
		return false, err
	}
	cols, off, err := x.td.heap.FetchRowCached(idx, x.cache)
	if err != nil {
		return false, err
	}
	// SEQUENCE columns stay in packed storage form, as on heap pages;
	// the mark is set once, before any batch shares the vectors.
	for _, c := range x.seqCols {
		if !cols[c].Packed {
			cols[c].Packed = true
		}
	}
	x.cols, x.off = cols, off
	return true, nil
}

func (x *indexScanIterator) NextBatch() (*vec.Batch, error) {
	var b *vec.Batch
	for b == nil || len(b.Sel) < vec.DefaultBatchSize {
		if !x.held {
			ok, err := x.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		if x.held = b != nil && (x.cols[0] != b.Cols[0] || x.off <= b.Sel[len(b.Sel)-1]); x.held {
			break
		}
		if b == nil {
			b = &vec.Batch{Cols: x.cols}
		}
		b.Sel = append(b.Sel, x.off)
	}
	return b, nil
}

// indexOnlyIterator is the covered secondary-index scan, for consumers
// that read no column outside the index key: the entry key answers them,
// and the heap is never touched. It decodes the read key columns of the
// visible entries into vectors of its own, up to vec.DefaultBatchSize rows
// a batch, grown from empty (a point lookup finds a row or two); the other
// columns are exec.NullColumn.
type indexOnlyIterator struct {
	indexWalk
	cols   []int        // the index's key columns
	needed []bool       // the columns a consumer reads (PruneColumns)
	intKey bool         // the key is one INT column
	vals   sqltypes.Row // a decoded entry
}

func (x *indexOnlyIterator) NextBatch() (*vec.Batch, error) {
	var cols []*vec.Vector
	n := 0
	for ; n < vec.DefaultBatchSize; n++ {
		key, _, ok, err := x.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if cols == nil {
			cols = x.columns()
		}
		if err := x.decode(cols, key[:len(key)-entryPosLen]); err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, nil
	}
	return vec.NewBatch(cols, n), nil
}

// columns returns a new batch's columns: an empty vector for each key
// column a consumer reads, exec.NullColumn for every other column.
func (x *indexOnlyIterator) columns() []*vec.Vector {
	def := x.td.def
	cols := make([]*vec.Vector, len(def.Columns))
	for c := range cols {
		cols[c] = exec.NullColumn
	}
	for _, c := range x.cols {
		if exec.Reads(x.needed, c) {
			cols[c] = vec.NewVector(def.Columns[c].Type.StorageKind(), 0)
		}
	}
	return cols
}

// decode appends an entry's read key values to cols; key is the entry
// key less its position. A single INT column is read straight off the
// bytes; any other key goes through btree.DecodeKey, and a value that is
// not its column's kind is a malformed entry. The INT shortcut is
// measured: with every key through DecodeKey, the 200-bp window's
// COUNT(*) scan took a median 15.4 vs 11.6 us self time
// (BenchmarkWindowAccessPaths/index-only-200bp, 3 000x, -cpu 1,
// 10 alternating runs on a 2-vCPU Xeon, 8 of 10 won by the shortcut) and
// one more allocation.
func (x *indexOnlyIterator) decode(cols []*vec.Vector, key []byte) error {
	if x.intKey && len(key) == entryPosLen {
		if v, ok := btree.DecodeIntKeyPrefix(key); ok {
			if out := cols[x.cols[0]]; out != exec.NullColumn {
				out.Ints = append(out.Ints, v)
			}
			return nil
		}
	}
	vals, n, err := btree.DecodeKey(x.vals[:0], key, len(x.cols))
	x.vals = vals
	if err == nil && n != len(key) {
		err = fmt.Errorf("%d bytes past the key columns", len(key)-n)
	}
	for i := 0; err == nil && i < len(vals); i++ {
		c := x.cols[i]
		if kind := x.td.def.Columns[c].Type.StorageKind(); vals[i].K != sqltypes.KindNull && vals[i].K != kind {
			err = fmt.Errorf("key column %d holds %s, want %s", i, vals[i].K, kind)
		} else if cols[c] != exec.NullColumn {
			cols[c].Append(vals[i])
		}
	}
	if err != nil {
		return fmt.Errorf("core: malformed index entry in %s: %w", x.td.def.Name, err)
	}
	return nil
}

// covers reports whether the index key holds every column a consumer that
// marked needed (PruneColumns) reads: never when needed is nil (all
// columns).
func (ix *indexData) covers(needed []bool) bool {
	if needed == nil {
		return false
	}
	for c, r := range needed {
		if r && !slices.Contains(ix.cols, c) {
			return false
		}
	}
	return true
}

// IndexScan returns a serial operator scanning the named secondary index
// over [lo, hi] bounds on its first column (nil = open; loInc/hiInc select
// inclusive bounds), emitting heap rows in index-key order. When its
// consumers read only index key columns (the PruneColumns mask: the
// recheck filter's column under COUNT(*), say) the scan is index-only and
// never fetches a row; otherwise it fetches each visible position's row.
// The scan holds the table's write latch shared for its duration, exactly
// like clustered scans — the btree iterator walks pages unlatched, and the
// tail the fetch cache transposes cannot grow under it.
func (db *Database) IndexScan(t *catalog.Table, idxName string, lo, hi *sqltypes.Value, loInc, hiInc bool) (exec.Operator, error) {
	td := db.tables[t.ID]
	if td == nil || td.heap == nil {
		return nil, fmt.Errorf("core: %s has no heap storage for an index scan", t.Name)
	}
	var ix *indexData
	for _, cand := range td.indexes {
		if strings.EqualFold(cand.name, idxName) {
			ix = cand
			break
		}
	}
	if ix == nil {
		return nil, fmt.Errorf("core: no index %q on %s", idxName, t.Name)
	}
	startKey, endKey, err := indexScanBounds(lo, hi, loInc, hiInc)
	if err != nil {
		return nil, err
	}
	seqCols := sequenceColumns(td.def)
	intKey := len(ix.cols) == 1 && td.def.Columns[ix.cols[0]].Type.StorageKind() == sqltypes.KindInt
	return &exec.Scan{Factory: func(ctx *exec.Context, needed []bool) (exec.BatchIterator, error) {
		snap, _ := ctx.Snapshot.(*Snapshot)
		td.writeMu.RLock()
		it, err := ix.tree.SeekT(startKey, endKey, ctx.Sink)
		if err != nil {
			td.writeMu.RUnlock()
			return nil, err
		}
		walk := indexWalk{it: it, td: td, ranges: td.versions.visibleRanges(snap), locked: true}
		if ix.covers(needed) {
			return &indexOnlyIterator{indexWalk: walk, cols: ix.cols, needed: needed, intKey: intKey}, nil
		}
		return &indexScanIterator{indexWalk: walk, cache: storage.NewHeapFetchCache(ctx.Sink), seqCols: seqCols}, nil
	}}, nil
}
