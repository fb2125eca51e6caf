package core

import (
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// Accessors only in-package tests use.

// tableStatistics returns the (non-stale) collected statistics for a
// table by name, or nil.
func (db *Database) tableStatistics(name string) *stats.TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	def := db.cat.Get(name)
	if def == nil {
		return nil
	}
	return db.Stats(def)
}

// tableRowCount returns a table's committed row count under a fresh read
// snapshot (in-flight transactions are not counted).
func (db *Database) tableRowCount(table string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		return 0, err
	}
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	return td.visibleRowCount(snap), nil
}

// tableUsedBytes returns the payload bytes of a heap table (page-internal
// accounting used by the storage experiments).
func (db *Database) tableUsedBytes(table string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		return 0, err
	}
	if td.heap == nil {
		return td.tree.SizeBytes(), nil
	}
	return td.heap.UsedBytes()
}

// visibleRowCount returns the table's cardinality under a snapshot.
func (td *tableData) visibleRowCount(snap *Snapshot) int64 {
	if td.heap != nil {
		var n int64
		for _, r := range td.versions.visibleRanges(snap) {
			n += r.end - r.start
		}
		return n
	}
	return td.tree.Count() - td.versions.invisibleKeys(snap)
}

// invisibleKeys counts recent clustered keys not visible under snap —
// subtracted from the physical key count for a snapshot-consistent
// cardinality.
func (tv *tableVersions) invisibleKeys(snap *Snapshot) int64 {
	if tv.keyCount.Load() == 0 {
		return 0
	}
	tv.mu.Lock()
	defer tv.mu.Unlock()
	var n int64
	for _, e := range tv.keys {
		if !spanVisible(e.state, e.txnID, e.cseq, snap) {
			n++
		}
	}
	return n
}

// heapRow reads the row at heap position idx (storage form) through the
// fetch cache.
func heapRow(td *tableData, idx int64, c *storage.HeapFetchCache) (sqltypes.Row, error) {
	cols, off, err := td.heap.FetchRowCached(idx, c)
	if err != nil {
		return nil, err
	}
	return (&vec.Batch{Cols: cols}).ReadRow(off, nil)
}

// Accessors tests outside the package use.

// EachDecodedColumn visits the arrays of every decoded form the buffer
// pool keeps (storage.BufferPool.EachDecodedColumn).
func (db *Database) EachDecodedColumn(fn func(*vec.Vector)) { db.pool.EachDecodedColumn(fn) }

// ForcePath forces the planner's access path; "" lets it choose.
func (db *Database) ForcePath(path string) { db.planner.ForcePath = path }

// SetParallelThreshold sets the row count above which the planner
// partitions a scan, and rebuilds the planner at the current DOP.
func (db *Database) SetParallelThreshold(rows int64) {
	db.threshold = rows
	db.SetDOP(db.dop)
}
