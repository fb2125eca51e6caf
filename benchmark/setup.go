package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

// engineConfig is how a workload opens the engine. Zero pool and budgets
// mean the engine's defaults (256 MB pool, 64 MB per operator).
type engineConfig struct {
	dop       int
	poolPages int
	budgets   operatorBudgets
}

// operatorBudgets are the join, sort and aggregate memory budgets in bytes.
type operatorBudgets struct{ Join, Sort, Agg int64 }

func (c engineConfig) options() core.Options {
	return core.Options{
		DOP: c.dop, BufferPoolPages: c.poolPages,
		JoinMemoryBudget: c.budgets.Join, SortMemoryBudget: c.budgets.Sort, AggMemoryBudget: c.budgets.Agg,
	}
}

func openLab(dir string, c engineConfig) (*core.Database, error) {
	db, err := core.Open(dir, c.options())
	if err != nil {
		return nil, err
	}
	udf.RegisterAll(db)
	return db, nil
}

// setupTimes splits one engine-side set-up, in seconds. Total is setup_s.
type setupTimes struct {
	Total, CreateIndex, Analyze float64
	AnalyzeRows                 int64
}

// loadBatch is the rows per InsertRows call (one transaction each).
const loadBatch = 20000

// setupLab builds the lab database in dir: open, load both lanes, import
// the lane file, CHECKPOINT, CREATE INDEX, ANALYZE, then one checked read
// cycle plus every index lookup variant to fill caches. Loading always
// happens at the default pool size, because inserts fail with "buffer pool
// exhausted" in a small one; a workload with a small pool closes and
// reopens before the warm-up.
func setupLab(dir string, lb *lab, run engineConfig) (*core.Database, setupTimes, error) {
	var st setupTimes
	begin := time.Now()
	load := engineConfig{dop: run.dop}
	db, err := openLab(dir, load)
	if err != nil {
		return nil, st, err
	}
	fail := func(err error) (*core.Database, setupTimes, error) {
		db.Close()
		return nil, st, err
	}
	for _, ddl := range labSchema {
		if _, err := db.Exec(ddl); err != nil {
			return fail(fmt.Errorf("%s: %w", ddl, err))
		}
	}
	for _, t := range []struct {
		name string
		rows []sqltypes.Row
	}{
		{"Read", lb.dgeRows}, {"ReseqRead", lb.reseqRows}, {"Alignment", lb.alignRows},
		{"ReadHeap", lb.reseqRows}, {"AlignHeap", lb.alignRows}, {"AlignmentSorted", lb.sorted},
	} {
		st.AnalyzeRows += int64(len(t.rows))
		for lo := 0; lo < len(t.rows); lo += loadBatch {
			if err := db.InsertRows(t.name, t.rows[lo:min(lo+loadBatch, len(t.rows))]); err != nil {
				return fail(fmt.Errorf("loading %s: %w", t.name, err))
			}
		}
	}
	if _, err := db.ImportFileStream("ShortReadFiles", lb.fastqPath, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(855), "lane": sqltypes.NewInt(1),
	}); err != nil {
		return fail(fmt.Errorf("importing lane file: %w", err))
	}
	if err := db.Checkpoint(); err != nil {
		return fail(err)
	}
	t := time.Now()
	for _, ddl := range labIndexes {
		if _, err := db.Exec(ddl); err != nil {
			return fail(fmt.Errorf("%s: %w", ddl, err))
		}
	}
	st.CreateIndex = time.Since(t).Seconds()
	t = time.Now()
	if _, err := db.Exec("ANALYZE"); err != nil {
		return fail(err)
	}
	st.Analyze = time.Since(t).Seconds()
	if run != load {
		if err := db.Close(); err != nil {
			return nil, st, err
		}
		if db, err = openLab(dir, run); err != nil {
			return nil, st, err
		}
	}
	r := &runner{db: db, lb: lb, rec: newRecorder()}
	sess := db.NewSession()
	r.readCycle(sess, [3]int{1, 1, 1}, false)
	// The cycle's scans touch every table page; only an index's leaves
	// are reached one lookup at a time, so walk them all.
	for range lb.kinds["idx_lookup"].stmts {
		r.exec(sess, lb.kinds["idx_lookup"], false)
	}
	if r.rec.failed > 0 {
		return fail(fmt.Errorf("warm-up cycle: %d of %d statements failed: %v", r.rec.failed, r.rec.attempted, r.rec.errs))
	}
	st.Total = time.Since(begin).Seconds()
	return db, st, nil
}

// storedBytes is every byte the database directory holds (tables,
// indexes, blobs, catalog, statistics, log) apart from operator temp
// files. Call it after a checkpoint.
func storedBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "tmp" {
				return filepath.SkipDir
			}
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
