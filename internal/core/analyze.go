package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/wal"
)

// runAnalyze executes ANALYZE [TABLE t]: a sampled parallel scan of each
// target table (reusing the partitioned scan machinery, one collector
// per partition) whose merged per-column statistics — row count, null
// fraction, min/max, HyperLogLog NDV, equi-depth histogram and
// most-common values — persist in the stats store and are WAL-logged so
// they survive a crash before the next file write.
//
// Statistics are advisory, so the long collection scans run under the
// SHARED structure lock and an MVCC read snapshot: concurrent SELECTs
// and writers both keep flowing, and every partition of the scan sees
// the same committed version of each table. Only the short WAL-log +
// persist phase takes the exclusive lock.
func (db *Database) runAnalyze(s *Session, a *sqlparse.Analyze) (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("core: ANALYZE inside a transaction is not supported")
	}
	db.mu.RLock()
	var defs []*catalog.Table
	if a.Table != "" {
		def := db.cat.Get(a.Table)
		if def == nil {
			db.mu.RUnlock()
			return nil, fmt.Errorf("core: unknown table %q", a.Table)
		}
		defs = append(defs, def)
	} else {
		names := db.cat.List()
		sort.Strings(names)
		for _, n := range names {
			defs = append(defs, db.cat.Get(n))
		}
	}
	snap := db.tm.readSnapshot()
	collected := make([]*stats.TableStats, 0, len(defs))
	for _, def := range defs {
		ts, err := db.analyzeTable(def, snap)
		if err != nil {
			db.tm.releaseSnapshot(snap)
			db.mu.RUnlock()
			return nil, err
		}
		collected = append(collected, ts)
	}
	db.tm.releaseSnapshot(snap)
	db.mu.RUnlock()

	db.mu.Lock()
	defer db.mu.Unlock()
	t := db.newTxn(true)
	res := &Result{Cols: []string{"table", "rows", "sampled", "columns"}}
	execErr := func() error {
		for _, ts := range collected {
			// A table dropped between the phases loses its stats with it.
			if db.cat.ByID(ts.TableID) == nil {
				continue
			}
			data, err := json.Marshal(ts)
			if err != nil {
				return err
			}
			if err := db.wal.Append(wal.Record{
				Type: wal.RecStats, Txn: t.id, Table: ts.TableID, Data: data,
			}); err != nil {
				return err
			}
			t.logged = true // the image needs a commit record to replay
			if err := db.tstats.Put(ts); err != nil {
				return err
			}
			res.Rows = append(res.Rows, sqltypes.Row{
				sqltypes.NewString(ts.Table),
				sqltypes.NewInt(ts.RowCount),
				sqltypes.NewInt(ts.SampleRows),
				sqltypes.NewInt(int64(len(ts.Columns))),
			})
			res.RowsAffected += ts.RowCount
		}
		return nil
	}()
	if err := db.finishAuto(t, execErr); err != nil {
		return nil, err
	}
	return res, nil
}

// analyzeTable scans one table under snap with up to DOP partition
// collectors and merges them into the table's statistics.
func (db *Database) analyzeTable(def *catalog.Table, snap *Snapshot) (*stats.TableStats, error) {
	td := db.tables[def.ID]
	if td == nil {
		return nil, fmt.Errorf("core: no storage for table %s", def.Name)
	}
	// ANALYZE also completes the heap's zone maps: pages sealed by an
	// earlier process lack in-memory min/max entries until someone decodes
	// them, and ANALYZE is about to read every page anyway.
	if td.heap != nil {
		if err := td.heap.FillZoneMaps(); err != nil {
			return nil, err
		}
	}
	modCount := td.modCount.Load()
	parts := db.dop
	if parts < 1 {
		parts = 1
	}
	ops, err := db.ScanPartitions(def, parts)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(def.Columns))
	for i := range def.Columns {
		names[i] = def.Columns[i].Name
	}
	collectors := make([]*stats.Collector, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	for i := range ops {
		wg.Add(1)
		go func(i int, op exec.Operator) {
			defer wg.Done()
			// Deterministic per-partition seed: ANALYZE output should not
			// wobble between runs over unchanged data.
			c := stats.NewCollector(names, stats.DefaultSampleSize, int64(i+1)*104729)
			collectors[i] = c
			if err := op.Open(&exec.Context{DOP: 1, Sink: db.sink, Snapshot: snap}); err != nil {
				errs[i] = err
				return
			}
			defer op.Close()
			rows := exec.RowCursor{Op: op}
			for {
				row, ok, err := rows.Next()
				if err != nil {
					errs[i] = err
					return
				}
				if !ok {
					return
				}
				c.Add(row)
			}
		}(i, ops[i])
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	merged := collectors[0]
	for _, c := range collectors[1:] {
		merged.Merge(c)
	}
	return merged.Finalize(def.ID, def.Name, modCount, stats.DefaultHistogramBuckets, stats.DefaultMCVs), nil
}
