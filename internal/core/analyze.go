package core

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/wal"
)

// runAnalyze executes ANALYZE [TABLE t]: for each target table one global
// aggregate over its partitioned scan whose state is a stats.Collector
// (analyzeTable), run and recorded like a query, then the merged
// per-column statistics — row count, null fraction, min/max, HyperLogLog
// NDV, equi-depth histogram and most-common values — persist in the stats
// store and are WAL-logged so they survive a crash before the next file
// write.
//
// Statistics are advisory, so the long collection scans run under the
// SHARED structure lock and an MVCC read snapshot: concurrent SELECTs
// and writers both keep flowing, and every partition of the scan sees
// the same committed version of each table. Only the short WAL-log +
// persist phase takes the exclusive lock.
func (db *Database) runAnalyze(s *Session, a *sqlparse.Analyze, sql string) (*Result, error) {
	if s.txn != nil {
		return nil, fmt.Errorf("core: ANALYZE inside a transaction is not supported")
	}
	collected, err := db.collectStats(a.Table, sql)
	if err != nil {
		return nil, err
	}

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

// collectStats runs analyzeTable over the named table, or over every table
// when the name is empty, under the shared lock and one snapshot.
func (db *Database) collectStats(table, sql string) ([]*stats.TableStats, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := []string{table}
	if table == "" {
		names = db.cat.List()
		sort.Strings(names)
	}
	snap := db.tm.readSnapshot()
	defer db.tm.releaseSnapshot(snap)
	collected := make([]*stats.TableStats, 0, len(names))
	for _, name := range names {
		def := db.cat.Get(name)
		if def == nil {
			return nil, fmt.Errorf("core: unknown table %q", name)
		}
		ts, err := db.analyzeTable(def, snap, sql)
		if err != nil {
			return nil, err
		}
		collected = append(collected, ts)
	}
	return collected, nil
}

// analyzeTable collects one table's statistics under snap: the plan
// STATISTICS(*) over the table's scan partitions, a global aggregate on the
// aggregation core's parallel path (paper Section 2.3.4: UDAs parallelize
// like built-ins). The core makes one collector per partition, in
// partition order, seeded by that order so ANALYZE does not wobble between
// runs over unchanged data, and merges them in the same order.
func (db *Database) analyzeTable(def *catalog.Table, snap *Snapshot, sql string) (*stats.TableStats, error) {
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
	names := make([]string, len(def.Columns))
	args := make([]expr.Expr, len(def.Columns))
	for i := range def.Columns {
		names[i] = def.Columns[i].Name
		args[i] = &expr.Col{Idx: i}
	}
	var ts *stats.TableStats
	seed := int64(0)
	collector := func() exec.AggState {
		seed += 104729
		return &collectorState{c: stats.NewCollector(names, stats.DefaultSampleSize, seed), done: func(c *stats.Collector) {
			ts = c.Finalize(def.ID, def.Name, modCount, stats.DefaultHistogramBuckets, stats.DefaultMCVs)
		}}
	}
	_, _, err := db.runPlan(queryLabel(sql, "ANALYZE"), snap, false, func() (*plan.Node, error) {
		parts, err := db.ScanPartitionsPruned(def, db.dop, nil)
		if err != nil {
			return nil, err
		}
		scan := &plan.Node{Op: "Table Scan", Detail: fmt.Sprintf("[%s]", def.Name), OwnProf: true, Est: td.rowCount()}
		return &plan.Node{
			Op:       "Hash Match (Aggregate)",
			Detail:   fmt.Sprintf("AGG:[STATISTICS(*)] PARTITIONS:%d", len(parts)),
			Children: []*plan.Node{scan},
			Cols:     []plan.ColMeta{{Name: "rows"}},
			Est:      1,
			Build: func() (exec.Operator, error) {
				for i := range parts {
					parts[i] = exec.InstrumentOp(parts[i], scan.Prof)
				}
				spec := exec.AggSpec{Name: "STATISTICS", Factory: collector, Args: args}
				return &exec.SpillableAggregate{Aggs: []exec.AggSpec{spec}, Parts: parts}, nil
			},
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// collectorState is a stats.Collector behind exec.AggState: one partition's
// sample and sketches, merged above the exchange. Its result is the row
// count; the statistics go to done.
type collectorState struct {
	c    *stats.Collector
	done func(*stats.Collector)
}

func (s *collectorState) Add(args []sqltypes.Value) error {
	s.c.Add(args)
	return nil
}

func (s *collectorState) Merge(o exec.AggState) error {
	s.c.Merge(o.(*collectorState).c)
	return nil
}

func (s *collectorState) Result() (sqltypes.Value, error) {
	s.done(s.c)
	return sqltypes.NewInt(s.c.Rows()), nil
}
