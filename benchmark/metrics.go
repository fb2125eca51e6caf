package main

import (
	"math"
	"sort"
)

// metricDef names one metric of BENCHMARK.json. bench_test.go asserts the
// two lists below and that file agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the numbers a lab sees: time per task, rows loaded per
// second, stored bytes per byte handed over. Every workload reports all
// of them, measured under that workload's conditions. In quiet minutes
// runs on the reference box repeat within 1-5 % (README, "Measured
// spread"), but the box has stretches of minutes in which everything runs
// 5-18 % slower, and ten runs that straddle one spread by about as much.
// Every timing bound therefore sits at the contract's cap of 0.25; the
// issue's 10 % does not hold on that box.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"stmt_per_s", "1/s", "higher", 0.25},
	{"rows_in_per_s", "1/s", "higher", 0.25},
	{"stored_bytes_per_user_byte", "B/B", "lower", 0.02},
	{"q1_bin_ms", "ms", "lower", 0.25},
	{"fs_scan_ms", "ms", "lower", 0.25},
	{"scan_ms", "ms", "lower", 0.25},
	{"merge_join_ms", "ms", "lower", 0.25},
	{"hash_join_ms", "ms", "lower", 0.25},
	{"consensus_ms", "ms", "lower", 0.25},
	{"pivot_ms", "ms", "lower", 0.25},
	{"pk_lookup_ms", "ms", "lower", 0.25},
	{"idx_lookup_ms", "ms", "lower", 0.25},
	{"range_ms", "ms", "lower", 0.25},
	{"commit_ms", "ms", "lower", 0.25},
}

// latencyKinds are the statement kinds whose median is an end-to-end
// metric (<kind>_ms) and whose tail is core.tail_ms.<kind>.
var latencyKinds = []string{
	"q1_bin", "fs_scan", "scan", "merge_join", "hash_join", "consensus",
	"pivot", "pk_lookup", "idx_lookup", "range", "commit",
}

// execRunKinds get an exec.run_ms.<kind>: the ExecStmt span minus the
// EXPLAIN span of the same statement.
var execRunKinds = []string{"q1_bin", "scan", "merge_join", "hash_join", "consensus", "pivot"}

// perLayer are single-layer numbers from the traced pass, named
// <module>.<what>. They have no bound: they explain a move, they do not
// gate it.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "sqlparse.parse_us.idx_lookup", Unit: "us", Better: "lower"},
		{Name: "sqlparse.parse_us.insert64", Unit: "us", Better: "lower"},
		{Name: "plan.explain_us.idx_lookup", Unit: "us", Better: "lower"},
		{Name: "plan.explain_us.q1_bin", Unit: "us", Better: "lower"},
		{Name: "plan.explain_us.hash_join", Unit: "us", Better: "lower"},
		{Name: "plan.qerror.range", Unit: "ratio", Better: "lower"},
		{Name: "plan.qerror.hash_join", Unit: "ratio", Better: "lower"},
		{Name: "plan.path_index_share", Unit: "share", Better: "higher"},
	}
	for _, k := range execRunKinds {
		defs = append(defs, metricDef{Name: "exec.run_ms." + k, Unit: "ms", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "exec.join_spilled_rows_per_stmt", Unit: "rows", Better: "lower"},
		metricDef{Name: "exec.sort_spilled_bytes_per_stmt", Unit: "B", Better: "lower"},
		metricDef{Name: "exec.agg_spilled_rows_per_stmt", Unit: "rows", Better: "lower"},
		metricDef{Name: "exec.bloom_drop_share", Unit: "share", Better: "higher"},
		metricDef{Name: "storage.pool_hit_rate", Unit: "share", Better: "higher"},
		metricDef{Name: "storage.pool_misses_per_stmt", Unit: "pages", Better: "lower"},
		metricDef{Name: "storage.pool_evictions_per_stmt", Unit: "pages", Better: "lower"},
		metricDef{Name: "storage.pages_verified_per_stmt", Unit: "pages", Better: "lower"},
		metricDef{Name: "storage.values_decoded_per_row", Unit: "count", Better: "lower"},
		metricDef{Name: "storage.zone_skip_share", Unit: "share", Better: "higher"},
		metricDef{Name: "storage.heap_scan_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "storage.bytes_per_user_byte.none", Unit: "B/B", Better: "lower"},
		metricDef{Name: "storage.bytes_per_user_byte.row", Unit: "B/B", Better: "lower"},
		metricDef{Name: "storage.bytes_per_user_byte.page", Unit: "B/B", Better: "lower"},
		metricDef{Name: "btree.get_us", Unit: "us", Better: "lower"},
		metricDef{Name: "btree.seek_next_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "btree.bulkload_keys_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "wal.flush_us", Unit: "us", Better: "lower"},
		metricDef{Name: "wal.syncs_per_commit", Unit: "ratio", Better: "lower"},
		metricDef{Name: "wal.bytes_per_user_byte", Unit: "B/B", Better: "lower"},
		metricDef{Name: "core.begin_us", Unit: "us", Better: "lower"},
		metricDef{Name: "core.insert_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.commit_us", Unit: "us", Better: "lower"},
		metricDef{Name: "core.checkpoint_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.checkpoint_max_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.recovery_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.open_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.close_s", Unit: "s", Better: "lower"},
		metricDef{Name: "core.create_index_s", Unit: "s", Better: "lower"},
	)
	for _, k := range latencyKinds {
		defs = append(defs, metricDef{Name: "core.tail_ms." + k, Unit: "ms", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "core.gen_late_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "core.peak_heap_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "core.cpu_busy_cores", Unit: "cores", Better: "lower"},
		metricDef{Name: "blob.import_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "blob.read_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "fastq.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
		metricDef{Name: "udf.tvf_rows_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "stats.analyze_rows_per_s", Unit: "1/s", Better: "higher"},
		metricDef{Name: "gen.build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "script.q1_interpreted_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "script.q1_compiled_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	)
}

// value is one reported number. Samples and Pct are stated for timings:
// how many measurements the median rests on, and which percentile a tail
// is (the highest with at least ten samples beyond it).
type value struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Pct     float64 `json:"pct,omitempty"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile that has at least ten samples
// beyond it, and which percentile that is. Under twenty samples no
// percentile above the median qualifies, so the median stands in.
func tail(xs []float64) (v, pct float64) {
	n := len(xs)
	if n < 20 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quartiles matches Python's statistics.quantiles(values, n=4), the rule
// the acceptance check uses for run-to-run spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		j, delta := (i*(ld+1))/4, (i*(ld+1))%4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
