package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/storage"
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

// indexEntryRowIdx recovers the heap position from an entry key (the
// trailing fixed-width integer).
func indexEntryRowIdx(key []byte) (int64, bool) {
	if len(key) < 9 {
		return 0, false
	}
	return btree.DecodeIntKeyPrefix(key[len(key)-9:])
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

// indexEntryIterator streams one page partition's index entries (as
// single-column byte rows) for the parallel sort feeding a bulk load. Rows
// at or past the cut belong to the delta merged in under the exclusive
// lock.
type indexEntryIterator struct {
	it   *storage.HeapVersionIterator
	cols []int
	cut  int64
}

func (e *indexEntryIterator) Next() (sqltypes.Row, bool, error) {
	for {
		row, idx, ok, err := e.it.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if idx >= e.cut {
			continue
		}
		key, err := indexEntryKey(e.cols, row, idx)
		if err != nil {
			return nil, false, err
		}
		return sqltypes.Row{sqltypes.NewBytes(key)}, true, nil
	}
}

func (e *indexEntryIterator) Close() error { return e.it.Close() }

// runCreateIndex executes CREATE INDEX in two phases. Phase 1, under the
// SHARED structure lock, partitions the heap's sealed pages and opens one
// merge (exec.MergeSorted) of external sorts, one per partition, over the
// encoded entries — concurrent queries and writers keep flowing while the
// bulk of the work happens. Phase 2, under the EXCLUSIVE lock, sorts the
// small delta of rows that arrived during phase 1, merges it with the
// partitions' stream into a bottom-up bulk load of
// a ".building" shadow file, logs durable intent to the WAL, renames the
// file into place, and commits by adding the index to the catalog. A crash
// at any point leaves either no index (orphan files are deleted at open)
// or a complete one (recovery rebuilds it if WAL replay shifts heap
// positions).
func (db *Database) runCreateIndex(s *Session, ci *sqlparse.CreateIndex) (*Result, error) {
	if err := s.refuseDDLInTxn(); err != nil {
		return nil, err
	}

	// ---- Phase 1: validate and build sorted entry runs under the shared lock.
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
	sealed := td.heap.SealedPages()
	parts := max(min(int64(db.dop), sealed), 1)
	budget := db.sortBudget
	if budget > 0 {
		budget = max(budget/parts, 1<<20)
	}
	keys := []exec.SortKey{{Expr: &expr.Col{Idx: 0}}}
	sorts := make([]*exec.Sort, parts)
	for i := int64(0); i < parts; i++ {
		lo := sealed * i / parts
		hi := sealed * (i + 1) / parts
		includeTail := i == parts-1
		src := &exec.Source{
			Factory: func(*exec.Context) (exec.RowIterator, error) {
				return &indexEntryIterator{
					it:   td.heap.NewVersionIterator(lo, hi, includeTail, obs.Sink{}),
					cols: cols,
					cut:  n0,
				}, nil
			},
		}
		sorts[i] = &exec.Sort{Keys: keys, Child: src, MemoryBudget: budget, Spill: db.SpillStore()}
	}
	// One merge of the partition sorts, in key order (sqltypes.Compare on
	// BYTES is bytes.Compare, the btree's order). Its Open drains and sorts
	// every partition scan, in parallel, spilling runs past the budget;
	// phase 2 only streams.
	merged := &exec.MergeSorted{Keys: keys, Children: sorts}
	err = merged.Open(&exec.Context{DOP: 1, Sink: db.sink})
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	defer merged.Close()

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
	// Delta: rows appended while phase 1 ran. Sorted in memory — the window
	// is one statement's worth of concurrent inserts.
	m := td.heap.RowCount()
	cache := storage.NewHeapFetchCache(obs.Sink{})
	delta := make([][]byte, 0, m-n0)
	for idx := n0; idx < m; idx++ {
		row, err := td.heap.FetchRowCached(idx, cache)
		if err != nil {
			return nil, err
		}
		key, err := indexEntryKey(cols, row, idx)
		if err != nil {
			return nil, err
		}
		delta = append(delta, key)
	}
	sort.Slice(delta, func(i, j int) bool { return bytes.Compare(delta[i], delta[j]) < 0 })

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
	building := path + ".building"
	_ = fault.Remove(db.inj, building)
	// Phase 2 merges two sorted streams: the partitions' and the delta.
	// A key stays valid after the cursor moves on: the merge copies each
	// key's bytes into its batch.
	sorted := exec.RowCursor{Op: merged}
	head, more, err := sorted.Next()
	if err != nil {
		return nil, err
	}
	di := 0
	next := func() ([]byte, []byte, bool, error) {
		if more && (di == len(delta) || bytes.Compare(head[0].B, delta[di]) < 0) {
			key := head[0].B
			var err error
			head, more, err = sorted.Next()
			return key, nil, err == nil, err
		}
		if di < len(delta) {
			di++
			return delta[di-1], nil, true, nil
		}
		return nil, nil, false, nil
	}
	tree, err := btree.BulkLoadFault(building, db.pool, db.inj, next)
	if err != nil {
		_ = fault.Remove(db.inj, building)
		return nil, err
	}
	// Close before the rename: the tree's shadow checkpoints write through
	// its opening path, which is about to stop existing.
	if err := tree.Close(); err != nil {
		_ = fault.Remove(db.inj, building)
		return nil, err
	}
	if err := fault.Rename(db.inj, building, path); err != nil {
		_ = fault.Remove(db.inj, building)
		return nil, err
	}
	// The commit point: once the catalog names the index, every later open
	// keeps the file; before, it is an orphan deleted at open.
	if err := db.cat.AddIndex(def.Name, catalog.Index{Name: ci.Name, Columns: cols}); err != nil {
		_ = fault.Remove(db.inj, path)
		return nil, err
	}
	tree, err = btree.OpenFault(path, db.pool, db.inj)
	if err != nil {
		db.poison(fmt.Errorf("core: committed index %s is unopenable: %w", ci.Name, err))
		return nil, err
	}
	td.indexes = append(td.indexes, &indexData{name: ci.Name, cols: cols, tree: tree, path: path})
	// Checkpoint to close the recovery window (truncates the RecDDL away);
	// a failure here leaves the index committed and recovery-correct.
	if err := db.checkpointLocked(); err != nil {
		return nil, err
	}
	return &Result{}, nil
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
// contents with the shadow protocol (bulk to ".building", rename, reopen).
// Called under the exclusive structure lock (checkpoint compaction) or
// single-threaded recovery.
func (db *Database) rebuildIndexLocked(td *tableData, ix *indexData) error {
	var entries [][]byte
	it := td.heap.NewVersionIterator(0, 0, true, obs.Sink{})
	for {
		row, idx, ok, err := it.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		key, err := indexEntryKey(ix.cols, row, idx)
		if err != nil {
			return err
		}
		entries = append(entries, key)
	}
	sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i], entries[j]) < 0 })
	if ix.tree != nil {
		if err := ix.tree.Close(); err != nil {
			return err
		}
		ix.tree = nil
	}
	building := ix.path + ".building"
	_ = fault.Remove(db.inj, building)
	pos := 0
	tree, err := btree.BulkLoadFault(building, db.pool, db.inj, func() ([]byte, []byte, bool, error) {
		if pos >= len(entries) {
			return nil, nil, false, nil
		}
		k := entries[pos]
		pos++
		return k, nil, true, nil
	})
	if err != nil {
		_ = fault.Remove(db.inj, building)
		return err
	}
	if err := tree.Close(); err != nil {
		return err
	}
	// A crash between these two steps leaves the file missing; recovery's
	// entry-count check catches that and rebuilds again.
	if err := fault.Remove(db.inj, ix.path); err != nil {
		return err
	}
	if err := fault.Rename(db.inj, building, ix.path); err != nil {
		return err
	}
	t2, err := btree.OpenFault(ix.path, db.pool, db.inj)
	if err != nil {
		return err
	}
	ix.tree = t2
	return nil
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

// indexScanIterator walks index entries in key order, filters each heap
// position against the scan's snapshot, and fetches the row through the
// buffer pool (a last-page cache makes runs over clustered values decode
// each page once).
type indexScanIterator struct {
	it     *btree.Iterator
	td     *tableData
	ranges []rowRange
	cache  *storage.HeapFetchCache
	locked bool
}

func (x *indexScanIterator) Next() (sqltypes.Row, bool, error) {
	for {
		if !x.it.Next() {
			return nil, false, x.it.Err()
		}
		idx, ok := indexEntryRowIdx(x.it.Key())
		if !ok {
			return nil, false, fmt.Errorf("core: malformed index entry in %s", x.td.def.Name)
		}
		if !rowIdxVisible(x.ranges, idx) {
			continue
		}
		row, err := x.td.heap.FetchRowCached(idx, x.cache)
		if err != nil {
			return nil, false, err
		}
		return row, true, nil
	}
}

func (x *indexScanIterator) Close() error {
	x.it.Close()
	if x.locked {
		x.td.writeMu.RUnlock()
		x.locked = false
	}
	return nil
}

// IndexScan returns a serial operator scanning the named secondary index
// over [lo, hi] bounds on its first column (nil = open; loInc/hiInc select
// inclusive bounds), emitting heap rows in index-key order. The scan holds
// the table's write latch shared for its duration, exactly like clustered
// scans — the btree iterator walks pages unlatched.
func (db *Database) IndexScan(t *catalog.Table, idxName string, lo, hi *sqltypes.Value, loInc, hiInc bool) (*exec.Source, error) {
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
	def := td.def
	return &exec.Source{
		Factory: func(ctx *exec.Context) (exec.RowIterator, error) {
			snap, _ := ctx.Snapshot.(*Snapshot)
			td.writeMu.RLock()
			it, err := ix.tree.SeekT(startKey, endKey, ctx.Sink)
			if err != nil {
				td.writeMu.RUnlock()
				return nil, err
			}
			return db.wrapIterator(def, &indexScanIterator{
				it:     it,
				td:     td,
				ranges: td.versions.visibleRanges(snap),
				cache:  storage.NewHeapFetchCache(ctx.Sink),
				locked: true,
			}), nil
		},
	}, nil
}
