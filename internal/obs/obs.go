// Package obs is the engine's observability substrate: the one counter
// vocabulary every layer counts events in, per-operator execution profiles
// (the numbers behind EXPLAIN ANALYZE), a metrics registry snapshotable as
// JSON, and a ring-buffer query log with a threshold-based slow-query
// capture.
//
// The package is a dependency leaf — it imports only the standard
// library — so every layer of the engine (exec, storage, btree, plan,
// core) writes to the same Sink without import cycles.
//
// The counting contract. An engine event has exactly one Counter and is
// written exactly once, at its site, with Sink.Add: that call credits the
// engine-wide set and, when the statement is instrumented, the profile of
// the plan operator the work was done for, so the two views cannot
// disagree. To add a counter, add one row to the table below (the constant
// and its name); it then appears in the registry (Database.Metrics,
// genodb -metrics, the shell's \stats) and on every profile, with Snapshot
// and Sub already correct for it. A counter is never written per row or per
// cell: count in a local and Add once per batch, page or exhausted cursor —
// the sets are shared by every parallel worker of every session.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one kind of engine event.
type Counter uint8

// The vocabulary. Spill counters keep one family per spilling operator;
// EXPLAIN ANALYZE's "spill:" line is their sum (OpProfile.Spill).
const (
	JoinBuildRows          Counter = iota // rows routed on a hash join's build side
	JoinProbeRows                         // rows routed on the probe side
	JoinSpilledPartitions                 // partitions that exceeded the join budget
	JoinSpilledBuildRows                  // build rows written to spill files
	JoinSpilledProbeRows                  // probe rows written to spill files
	JoinSpilledBytes                      // bytes of retired join spill files
	JoinSpillRecursions                   // spilled partitions re-joined from disk
	JoinBloomChecks                       // probe rows tested against a build Bloom filter
	JoinBloomDrops                        // probe rows the filter dropped
	SortSorts                             // sort / row-number operators that drained their input
	SortRuns                              // sorted runs spilled
	SortSpilledRows                       // rows written to spilled runs
	SortSpilledBytes                      // bytes written to spilled runs
	SortMergeRows                         // rows emitted by k-way run merges
	AggSpilledPartitions                  // aggregate partitions frozen past the budget
	AggSpilledRows                        // raw input rows written to partition files
	AggSpilledBytes                       // bytes of re-aggregated partition files
	AggSpillRecursions                    // spilled partitions re-aggregated from disk
	ScanBatches                           // batches produced by table scans (heap pages, tail, clustered leaves)
	ScanRows                              // rows in those batches
	ScanValuesDecoded                     // cells materialized while building or reading them
	ScanValuesGathered                    // of those, cells a clustered scan decoded straight into its batch
	ScanDictEntriesDecoded                // page-dictionary entries decoded
	ScanDecodedPageHits                   // sealed heap pages and clustered leaves served from the decoded form their frame keeps
	ScanZoneSkippedPages                  // sealed heap pages a zone map ruled out
	ScanZoneConsidered                    // sealed heap pages a scan carrying zone filters came to, skipped or read
	PoolHits                              // buffer-pool hits caused by plan operators
	PoolMisses                            // buffer-pool misses caused by plan operators
	PagesVerified                         // pages whose checksum was checked
	ChecksumFailures                      // pages whose checksum did not match
	Checkpoints                           // completed checkpoints
	VacuumRuns                            // completed version-vacuum passes
	PathPickIndex                         // base-table access paths the planner chose: index
	PathPickZoneMap                       // ... zone-map-pruned heap scan
	PathPickFull                          // ... full scan
	NumCounters
)

var counterNames = [NumCounters]string{
	JoinBuildRows:          "exec.join.build_rows",
	JoinProbeRows:          "exec.join.probe_rows",
	JoinSpilledPartitions:  "exec.join.spilled_partitions",
	JoinSpilledBuildRows:   "exec.join.spilled_build_rows",
	JoinSpilledProbeRows:   "exec.join.spilled_probe_rows",
	JoinSpilledBytes:       "exec.join.spilled_bytes",
	JoinSpillRecursions:    "exec.join.spill_recursions",
	JoinBloomChecks:        "exec.join.bloom_checks",
	JoinBloomDrops:         "exec.join.bloom_drops",
	SortSorts:              "exec.sort.sorts",
	SortRuns:               "exec.sort.runs",
	SortSpilledRows:        "exec.sort.spilled_rows",
	SortSpilledBytes:       "exec.sort.spilled_bytes",
	SortMergeRows:          "exec.sort.merge_rows",
	AggSpilledPartitions:   "exec.agg.spilled_partitions",
	AggSpilledRows:         "exec.agg.spilled_rows",
	AggSpilledBytes:        "exec.agg.spilled_bytes",
	AggSpillRecursions:     "exec.agg.spill_recursions",
	ScanBatches:            "scan.batches",
	ScanRows:               "scan.rows",
	ScanValuesDecoded:      "scan.values_decoded",
	ScanValuesGathered:     "scan.values_gathered",
	ScanDictEntriesDecoded: "scan.dict_entries_decoded",
	ScanDecodedPageHits:    "scan.decoded_page_hits",
	ScanZoneSkippedPages:   "scan.zone_skipped_pages",
	ScanZoneConsidered:     "scan.zone_considered_pages",
	PoolHits:               "exec.pool.hits",
	PoolMisses:             "exec.pool.misses",
	PagesVerified:          "integrity.pages_verified",
	ChecksumFailures:       "integrity.checksum_failures",
	Checkpoints:            "checkpoint.count",
	VacuumRuns:             "vacuum.runs",
	PathPickIndex:          "planner.path_picks.index",
	PathPickZoneMap:        "planner.path_picks.zonemap",
	PathPickFull:           "planner.path_picks.full",
}

// String returns the counter's registry name.
func (c Counter) String() string { return counterNames[c] }

// Counters is one atomic cell per Counter: the engine owns one set and
// every profile carries one. Safe for concurrent writers and readers.
type Counters [NumCounters]atomic.Int64

// Get reads one counter.
func (cs *Counters) Get(c Counter) int64 { return cs[c].Load() }

// Snapshot copies the set; safe to call while queries run.
func (cs *Counters) Snapshot() (s Snapshot) {
	for c := range cs {
		s[c] = cs[c].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a Counters set, indexed by Counter.
type Snapshot [NumCounters]int64

// Sub returns the counter deltas since an earlier snapshot.
func (s Snapshot) Sub(earlier Snapshot) Snapshot {
	for c := range s {
		s[c] -= earlier[c]
	}
	return s
}

// Sink is where an event is written: the engine's set and, when the
// statement is instrumented, the profile of the plan operator the work is
// done for. exec.Context carries the current one and hands it to whatever
// works below an operator (scans, the heap-fetch cache, btree seeks, spill
// readers). The zero Sink is valid and counts nothing.
type Sink struct {
	Engine *Counters
	Prof   *OpProfile
}

// Add credits n events of kind c, once, to both views.
func (s Sink) Add(c Counter, n int64) {
	if n == 0 {
		return
	}
	if s.Engine != nil {
		s.Engine[c].Add(n)
	}
	if s.Prof != nil {
		s.Prof.Counters[c].Add(n)
	}
}

// OpProfile accumulates one plan operator's actual execution: the events
// written through a Sink while work was done for it, and the rows and
// batches it produced. All fields are atomics: parallel partition workers
// under an exchange share the display node's profile.
type OpProfile struct {
	Counters

	Rows    atomic.Int64 // rows returned by the operator
	Batches atomic.Int64 // batches returned

	// WallNS is cumulative wall time spent inside the operator subtree,
	// summed across parallel workers sharing the profile. Only recorded
	// when Timed is set (EXPLAIN ANALYZE); the always-on path keeps
	// counters only, so instrumentation stays off the clock.
	WallNS atomic.Int64
	Timed  bool
}

// AddRows adds n produced rows; nil-safe.
func (p *OpProfile) AddRows(n int64) {
	if p != nil {
		p.Rows.Add(n)
	}
}

// AddBatches adds n produced batches; nil-safe.
func (p *OpProfile) AddBatches(n int64) {
	if p != nil {
		p.Batches.Add(n)
	}
}

// Spill sums what the operator wrote to spill files, whichever of join,
// sort and aggregate it is: bytes, runs (spilled partitions count as runs)
// and rows.
func (p *OpProfile) Spill() (bytes, runs, rows int64) {
	return p.Get(JoinSpilledBytes) + p.Get(SortSpilledBytes) + p.Get(AggSpilledBytes),
		p.Get(JoinSpilledPartitions) + p.Get(SortRuns) + p.Get(AggSpilledPartitions),
		p.Get(JoinSpilledBuildRows) + p.Get(JoinSpilledProbeRows) + p.Get(SortSpilledRows) + p.Get(AggSpilledRows)
}

// Registry names every metric of the engine: the counter vocabulary,
// enumerated from one snapshot of the engine's set, plus the few gauges
// that live elsewhere (the buffer pool's own counters, WAL syncs, the query
// log), which subsystems register as functions. Snapshot evaluates all of
// it into a plain map (JSON-marshalable). Reads never lock the underlying
// counters — every gauge is expected to be an atomic load.
type Registry struct {
	counters *Counters
	mu       sync.RWMutex
	gauges   map[string]func() int64
}

// NewRegistry returns a registry over the engine's counter set.
func NewRegistry(counters *Counters) *Registry {
	return &Registry{counters: counters, gauges: make(map[string]func() int64)}
}

// RegisterFunc installs (or replaces) a named gauge.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	r.mu.Lock()
	r.gauges[name] = fn
	r.mu.Unlock()
}

// Snapshot evaluates every counter and gauge into a fresh map.
func (r *Registry) Snapshot() map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]int64, int(NumCounters)+len(r.gauges))
	for c, v := range r.counters.Snapshot() {
		out[Counter(c).String()] = v
	}
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	return out
}

// Names returns the metric names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := append(make([]string, 0, int(NumCounters)+len(r.gauges)), counterNames[:]...)
	for name := range r.gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// QueryRecord is one executed statement in the query history.
type QueryRecord struct {
	SQL      string        `json:"sql"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int64         `json:"rows"`
	// SpillBytes is the total spill volume the statement's operators
	// reported (0 when the statement ran uninstrumented).
	SpillBytes int64  `json:"spill_bytes"`
	Err        string `json:"err,omitempty"`
	// Profile holds the rendered per-operator profile (the EXPLAIN
	// ANALYZE tree) for statements the slow-query log captured.
	Profile string `json:"profile,omitempty"`
}

// QueryLog is a fixed-size ring of recent statements plus a bounded
// slow-query log: records at or above the threshold keep their full
// profile. Safe for concurrent sessions.
type QueryLog struct {
	mu    sync.Mutex
	ring  []QueryRecord
	next  int
	total int64

	threshold time.Duration
	slow      []QueryRecord
	slowCap   int
	slowTotal int64
}

// NewQueryLog returns a log keeping the last size statements and the
// last slowCap slow statements at or over threshold (threshold <= 0
// disables slow capture).
func NewQueryLog(size, slowCap int, threshold time.Duration) *QueryLog {
	if size < 1 {
		size = 1
	}
	if slowCap < 1 {
		slowCap = 1
	}
	return &QueryLog{
		ring:      make([]QueryRecord, 0, size),
		threshold: threshold,
		slowCap:   slowCap,
	}
}

// Threshold returns the slow-query threshold (0 = disabled).
func (l *QueryLog) Threshold() time.Duration { return l.threshold }

// Record appends one statement to the history; if it ran at or over the
// slow threshold it is also kept in the slow log (with rec.Profile).
// Fast statements drop their Profile to keep the ring small.
func (l *QueryLog) Record(rec QueryRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total++
	slow := l.threshold > 0 && rec.Duration >= l.threshold
	if slow {
		l.slowTotal++
		l.slow = append(l.slow, rec)
		if len(l.slow) > l.slowCap {
			copy(l.slow, l.slow[len(l.slow)-l.slowCap:])
			l.slow = l.slow[:l.slowCap]
		}
	}
	rec.Profile = "" // history keeps the cheap fields only
	if len(l.ring) < cap(l.ring) {
		l.ring = append(l.ring, rec)
		l.next = len(l.ring) % cap(l.ring)
		return
	}
	l.ring[l.next] = rec
	l.next = (l.next + 1) % len(l.ring)
}

// Recent returns the history newest-first.
func (l *QueryLog) Recent() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, 0, len(l.ring))
	for i := 1; i <= len(l.ring); i++ {
		out = append(out, l.ring[(l.next-i+len(l.ring))%len(l.ring)])
	}
	return out
}

// Slow returns the captured slow queries, newest last.
func (l *QueryLog) Slow() []QueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]QueryRecord, len(l.slow))
	copy(out, l.slow)
	return out
}

// Total returns the number of statements ever recorded.
func (l *QueryLog) Total() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// SlowTotal returns the number of statements that crossed the threshold.
func (l *QueryLog) SlowTotal() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.slowTotal
}
