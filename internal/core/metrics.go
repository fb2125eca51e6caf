package core

import (
	"repro/internal/obs"
)

// queryHistorySize is the query-history ring capacity.
const queryHistorySize = 128

// defaultSlowLogSize bounds how many slow statements keep their full
// profile.
const defaultSlowLogSize = 32

// registerMetrics adds to the registry the gauges that live outside the
// engine's counter set (obs enumerates that by itself): the buffer pool's
// own counters, which also see traffic no statement caused, the WAL and
// the query log.
func (db *Database) registerMetrics() {
	r := db.metrics
	r.RegisterFunc("pool.hits", func() int64 { return db.pool.Stats().Hits })
	r.RegisterFunc("pool.misses", func() int64 { return db.pool.Stats().Misses })
	r.RegisterFunc("pool.evictions", func() int64 { return db.pool.Stats().Evictions })
	r.RegisterFunc("wal.syncs", db.wal.Syncs)
	r.RegisterFunc("query.count", db.qlog.Total)
	r.RegisterFunc("query.slow_count", db.qlog.SlowTotal)
}

// Metrics evaluates every counter of the vocabulary, from one snapshot, and
// every registered gauge into a fresh name→value map (JSON-marshalable;
// `genodb -metrics` and the REPL's \stats print it). Safe to call during
// concurrent queries.
func (db *Database) Metrics() map[string]int64 { return db.metrics.Snapshot() }

// QueryHistory returns the recent-statement ring, newest first.
func (db *Database) QueryHistory() []obs.QueryRecord { return db.qlog.Recent() }

// SlowQueries returns the captured slow statements (those at or over
// Options.SlowQueryThreshold), newest last, each with its full rendered
// per-operator profile.
func (db *Database) SlowQueries() []obs.QueryRecord { return db.qlog.Slow() }
