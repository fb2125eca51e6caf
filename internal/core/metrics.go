package core

import (
	"repro/internal/obs"
)

// queryHistorySize is the query-history ring capacity.
const queryHistorySize = 128

// defaultSlowLogSize bounds how many slow statements keep their full
// profile.
const defaultSlowLogSize = 32

// registerMetrics promotes the engine's scattered counters into the
// named gauge registry behind Metrics(). Every gauge is an atomic load
// against a live counter — snapshots never lock query execution.
func (db *Database) registerMetrics() {
	r := db.metrics
	g := func(name string, fn func() int64) { r.RegisterFunc(name, fn) }

	// Buffer pool.
	g("pool.hits", func() int64 { return db.pool.Stats().Hits })
	g("pool.misses", func() int64 { return db.pool.Stats().Misses })
	g("pool.evictions", func() int64 { return db.pool.Stats().Evictions })

	// Write-ahead log.
	g("wal.syncs", func() int64 { return db.wal.Syncs() })

	// Join operators.
	j := &db.execStats.Join
	g("exec.join.build_rows", j.BuildRows.Load)
	g("exec.join.probe_rows", j.ProbeRows.Load)
	g("exec.join.spilled_partitions", j.SpilledPartitions.Load)
	g("exec.join.spilled_build_rows", j.SpilledBuildRows.Load)
	g("exec.join.spilled_probe_rows", j.SpilledProbeRows.Load)
	g("exec.join.spill_recursions", j.SpillRecursions.Load)
	g("exec.join.bloom_checks", j.BloomChecks.Load)
	g("exec.join.bloom_drops", j.BloomDrops.Load)

	// Sort operators.
	so := &db.execStats.Sort
	g("exec.sort.sorts", so.Sorts.Load)
	g("exec.sort.runs", so.Runs.Load)
	g("exec.sort.spilled_rows", so.SpilledRows.Load)
	g("exec.sort.spilled_bytes", so.SpilledBytes.Load)
	g("exec.sort.merge_rows", so.MergeRows.Load)

	// Aggregate operators.
	a := &db.execStats.Agg
	g("exec.agg.spilled_partitions", a.SpilledPartitions.Load)
	g("exec.agg.spilled_rows", a.SpilledRows.Load)
	g("exec.agg.spilled_bytes", a.SpilledBytes.Load)
	g("exec.agg.spill_recursions", a.SpillRecursions.Load)

	// Vectorized scans.
	sc := &db.scanStats
	g("scan.batches", sc.Batches.Load)
	g("scan.rows", sc.Rows.Load)
	g("scan.values_decoded", sc.ValuesDecoded.Load)
	g("scan.dict_entries_decoded", sc.DictEntriesDecoded.Load)
	g("scan.zone_skipped_pages", sc.ZoneSkippedPages.Load)

	// Page integrity.
	g("integrity.pages_verified", func() int64 { return db.integ.Snapshot().PagesVerified })
	g("integrity.checksum_failures", func() int64 { return db.integ.Snapshot().ChecksumFailures })

	// Engine events.
	g("checkpoint.count", db.checkpoints.Load)
	g("vacuum.runs", db.vacuumRuns.Load)

	// Planner access-path picks.
	g("planner.path_picks.index", db.pathPicks.Index.Load)
	g("planner.path_picks.zonemap", db.pathPicks.ZoneMap.Load)
	g("planner.path_picks.full", db.pathPicks.Full.Load)

	// Query log.
	g("query.count", db.qlog.Total)
	g("query.slow_count", db.qlog.SlowTotal)
}

// Metrics evaluates every registered gauge into a fresh name→value map
// (JSON-marshalable; `genodb -metrics` and the REPL's \stats print it).
// Safe to call during concurrent queries.
func (db *Database) Metrics() map[string]int64 { return db.metrics.Snapshot() }

// MetricNames returns the registered gauge names, sorted.
func (db *Database) MetricNames() []string { return db.metrics.Names() }

// QueryHistory returns the recent-statement ring, newest first.
func (db *Database) QueryHistory() []obs.QueryRecord { return db.qlog.Recent() }

// SlowQueries returns the captured slow statements (those at or over
// Options.SlowQueryThreshold), newest last, each with its full rendered
// per-operator profile.
func (db *Database) SlowQueries() []obs.QueryRecord { return db.qlog.Slow() }
