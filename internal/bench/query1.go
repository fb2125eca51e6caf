package bench

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/script"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Query1Result captures the Section 5.3.2 comparison: the sequential
// interpreted script (the paper's Perl baseline) versus the declarative,
// automatically parallelized SQL query, with CPU utilization traces
// (Figures 7 and 8). A compiled-Go version of the same script is measured
// as an ablation separating interpreter overhead from parallelism.
type Query1Result struct {
	// InterpretedElapsed is the Perl-equivalent baseline.
	InterpretedElapsed time.Duration
	InterpretedTrace   script.Trace
	ScriptCPU          []CPUSample // sampled during the interpreted run
	// CompiledElapsed is the same algorithm in compiled Go.
	CompiledElapsed time.Duration
	CompiledTrace   script.Trace
	SQLElapsed      time.Duration
	SQLCPU          []CPUSample
	SQLPlan         string
	// SQLPoolStats is the buffer-pool activity during the measured SQL
	// run; a warm run should be near 100% hits.
	SQLPoolStats storage.PoolStats
	UniqueTags   int64
	// Speedup is interpreted-script time over SQL time (the paper's
	// 10min vs 44s ≈ 13.6x).
	Speedup float64
}

// Query1SQL is the paper's Query 1 over the loaded Read table.
const Query1SQL = `
SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank,
       COUNT(*) AS freq,
       short_read_seq
  FROM [Read]
 WHERE CHARINDEX('N', short_read_seq) = 0
 GROUP BY short_read_seq`

// LoadReadTable loads a DGE read set into the normalized Read table.
func LoadReadTable(db *core.Database, ds *DGEDataset) error {
	if _, err := db.Exec(`CREATE TABLE [Read] (
	    r_id BIGINT, fc_id INT, lane INT, tile INT, x INT, y INT,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`); err != nil {
		return err
	}
	rows := make([]sqltypes.Row, len(ds.Reads))
	for i, r := range ds.Reads {
		_, _, fc, lane, tile, x, y, ok := parseReadName(r.Name)
		if !ok {
			return fmt.Errorf("bench: bad read name %q", r.Name)
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewInt(fc), sqltypes.NewInt(lane), sqltypes.NewInt(tile),
			sqltypes.NewInt(x), sqltypes.NewInt(y),
			sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual),
		}
	}
	if err := insertBatches(db, "Read", rows); err != nil {
		return err
	}
	_, err := db.Exec("CHECKPOINT")
	return err
}

// Query1Experiment runs all three implementations over the same dataset.
func Query1Experiment(ds *DGEDataset, workDir string, dop int) (*Query1Result, error) {
	res := &Query1Result{}

	// Sequential interpreted script (Figure 7): slurp, process on one
	// core through the expression interpreter, write.
	sampler := StartCPUSampler(50 * time.Millisecond)
	var out bytes.Buffer
	trace, nTags, err := script.BinUniqueReadsInterpreted(bytes.NewReader(ds.ReadsFASTQ), &out)
	res.ScriptCPU = sampler.Stop()
	if err != nil {
		return nil, err
	}
	res.InterpretedTrace = trace
	res.InterpretedElapsed = trace.Total
	res.UniqueTags = int64(nTags)

	// The same script compiled (Go): isolates interpreter overhead.
	out.Reset()
	trace, nCompiled, err := script.BinUniqueReads(bytes.NewReader(ds.ReadsFASTQ), &out)
	if err != nil {
		return nil, err
	}
	if nCompiled != nTags {
		return nil, fmt.Errorf("bench: compiled script found %d tags, interpreted %d", nCompiled, nTags)
	}
	res.CompiledTrace = trace
	res.CompiledElapsed = trace.Total

	// Declarative SQL (Figure 8): the engine parallelizes the scan and
	// aggregation across cores. Measured warm (the load just wrote the
	// pool), matching the paper's warm-pool methodology.
	db, err := core.Open(filepath.Join(workDir, "query1db"), core.Options{DOP: dop})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := LoadReadTable(db, ds); err != nil {
		return nil, err
	}
	plan, err := db.Exec("EXPLAIN " + Query1SQL)
	if err != nil {
		return nil, err
	}
	res.SQLPlan = plan.Plan
	if _, err := db.Exec(Query1SQL); err != nil { // warm the pool
		return nil, err
	}

	sampler = StartCPUSampler(50 * time.Millisecond)
	pool := poolTraffic(db)
	start := time.Now()
	qres, err := db.Exec(Query1SQL)
	res.SQLElapsed = time.Since(start)
	res.SQLPoolStats = pool()
	res.SQLCPU = sampler.Stop()
	if err != nil {
		return nil, err
	}
	if int64(len(qres.Rows)) != res.UniqueTags {
		return nil, fmt.Errorf("bench: SQL found %d unique tags, script found %d",
			len(qres.Rows), res.UniqueTags)
	}
	if res.SQLElapsed > 0 {
		res.Speedup = float64(res.InterpretedElapsed) / float64(res.SQLElapsed)
	}
	return res, nil
}

// Query1DOPAblation measures Query 1 at several degrees of parallelism.
func Query1DOPAblation(ds *DGEDataset, workDir string, dops []int) (map[int]time.Duration, error) {
	db, err := core.Open(filepath.Join(workDir, "query1dop"), core.Options{DOP: 1})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if err := LoadReadTable(db, ds); err != nil {
		return nil, err
	}
	out := map[int]time.Duration{}
	for _, dop := range dops {
		db.SetDOP(dop)
		// Warm once, then measure.
		if _, err := db.Exec(Query1SQL); err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := db.Exec(Query1SQL); err != nil {
			return nil, err
		}
		out[dop] = time.Since(start)
	}
	return out, nil
}

// poolTraffic starts measuring buffer-pool traffic: the returned function
// reports the hits and misses since, from the engine's metrics.
func poolTraffic(db *core.Database) func() storage.PoolStats {
	before := db.Metrics()
	return func() storage.PoolStats {
		now := db.Metrics()
		return storage.PoolStats{Hits: now["pool.hits"] - before["pool.hits"], Misses: now["pool.misses"] - before["pool.misses"]}
	}
}
