package main

import (
	"fmt"
	"time"
)

// perLayerMetrics fills m with every per-layer metric of the traced pass:
// spans the benchmark recorded around calls into each layer, the engine's
// own counters over the measured phase, and the standalone probes.
func perLayerMetrics(m map[string]value, cfg passConfig, r *runner, st setupTimes, usage *resourceSampler, recoveryS float64) error {
	put := func(name string, v float64) { m[name] = value{Value: v, Unit: unitOf[name]} }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	c := func(name string) float64 { return float64(r.counters[name]) }
	engine := cfg.wl.engine(cfg.sc, cfg.nproc)
	ops := float64(r.rec.attempted + r.trec.attempted)

	// Planner and executor, from the spans of traced cycles.
	durations := r.tr.durationsMS()
	for _, k := range []string{"idx_lookup", "q1_bin", "hash_join"} {
		put("plan.explain_us."+k, median(durations["plan.explain."+k])*1e3)
	}
	for _, k := range execRunKinds {
		run := median(r.tr.childDurationsMS("stmt."+k, "core.exec")) - median(durations["plan.explain."+k])
		put("exec.run_ms."+k, run)
	}
	picks := c("planner.path_picks.index") + c("planner.path_picks.zonemap") + c("planner.path_picks.full")
	put("plan.path_index_share", ratio(c("planner.path_picks.index"), picks))
	put("exec.join_spilled_rows_per_stmt", ratio(c("exec.join.spilled_build_rows")+c("exec.join.spilled_probe_rows"), ops))
	put("exec.sort_spilled_bytes_per_stmt", ratio(c("exec.sort.spilled_bytes"), ops))
	put("exec.agg_spilled_rows_per_stmt", ratio(c("exec.agg.spilled_rows"), ops))
	put("exec.bloom_drop_share", ratio(c("exec.join.bloom_drops"), c("exec.join.bloom_checks")))

	// Storage, from the engine's counters.
	put("storage.pool_hit_rate", ratio(c("pool.hits"), c("pool.hits")+c("pool.misses")))
	put("storage.pool_misses_per_stmt", ratio(c("pool.misses"), ops))
	put("storage.pool_evictions_per_stmt", ratio(c("pool.evictions"), ops))
	put("storage.pages_verified_per_stmt", ratio(c("integrity.pages_verified"), ops))
	put("storage.values_decoded_per_row", ratio(c("scan.values_decoded"), c("scan.rows")))
	// Page-backed scans make one batch per page read, so batches stand
	// for pages not skipped.
	put("storage.zone_skip_share", ratio(c("scan.zone_skipped_pages"), c("scan.zone_skipped_pages")+c("scan.batches")))

	// Log and transactions.
	put("wal.syncs_per_commit", ratio(c("wal.syncs"), float64(r.commits)))
	put("wal.bytes_per_user_byte", ratio(float64(r.walBytes), float64(r.userBytes)))
	put("core.begin_us", median(durations["core.begin"])*1e3)
	put("core.insert_ms", median(r.tr.childDurationsMS("txn.write", "core.exec")))
	put("core.commit_us", median(durations["core.commit"])*1e3)
	var ckptTotal, ckptMax float64
	for _, ms := range r.ckptMS {
		ckptTotal += ms
		ckptMax = max(ckptMax, ms)
	}
	put("core.checkpoint_s", ckptTotal/1e3)
	put("core.checkpoint_max_ms", ckptMax)
	put("core.create_index_s", st.CreateIndex)
	put("stats.analyze_rows_per_s", ratio(float64(st.AnalyzeRows), st.Analyze))
	put("gen.build_s", r.lb.ln.BuildS)

	// Tails, from the cycles that ran without spans.
	for _, k := range latencyKinds {
		v, pct := tail(r.rec.lat[k])
		m["core.tail_ms."+k] = value{Value: v, Unit: "ms", Samples: len(r.rec.lat[k]), Pct: pct}
	}
	put("core.gen_late_ms", median(r.lateMS))
	put("core.peak_heap_mb", float64(usage.peakHeap)/1e6)
	put("core.cpu_busy_cores", ratio(usage.cpu.Seconds(), usage.wall.Seconds()))
	put("udf.tvf_rows_per_s", ratio(float64(len(r.lb.ln.DGEReads)), median(r.rec.lat["fs_scan"])/1e3))

	// What the spans themselves cost: the same statements with and
	// without them, in alternating cycles of this one pass.
	var with, without float64
	for k, xs := range r.trec.lat {
		if k == idxLookupMean { // its lookups are already counted one by one
			continue
		}
		if plain := r.rec.lat[k]; len(plain) > 0 && len(xs) > 0 {
			n := float64(len(xs))
			with += median(xs) * n
			without += median(plain) * n
		}
	}
	put("trace.overhead_share", ratio(with, without)-1)

	// Restart cost. ingest measured a real recovery; elsewhere leave one
	// committed transaction in the log, drop the handle and reopen.
	if cfg.wl.shape != "ingest" {
		var err error
		if recoveryS, err = r.crashProbe(engine); err != nil {
			return err
		}
	}
	put("core.recovery_s", recoveryS)
	r.checkpoint()
	start := time.Now()
	err := r.db.Close()
	put("core.close_s", time.Since(start).Seconds())
	r.db = nil
	if err != nil {
		return err
	}
	start = time.Now()
	db, err := openLab(r.dir, engine)
	if err != nil {
		return fmt.Errorf("clean reopen: %w", err)
	}
	put("core.open_s", time.Since(start).Seconds())
	r.db = db

	probes, err := runProbes(cfg.workDir, r.db, r.lb)
	if err != nil {
		return err
	}
	for name, v := range probes {
		put(name, v)
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
	}
	return nil
}

// crashProbe commits one more Ingest transaction, abandons the handle
// with that transaction only in the log, reopens and checks the rows are
// back. It returns the reopen time.
func (r *runner) crashProbe(cfg engineConfig) (float64, error) {
	txn := r.lb.buildIngestTxns(900_000_000, 1)[0]
	if _, err := r.db.Exec(txn.sql); err != nil {
		return 0, fmt.Errorf("crash probe insert: %w", err)
	}
	abandoned := r.db
	start := time.Now()
	db, err := openLab(r.dir, cfg)
	if err != nil {
		return 0, fmt.Errorf("crash probe reopen: %w", err)
	}
	s := time.Since(start).Seconds()
	r.db = db
	_ = abandoned.Close() // after recovery has read the files; writes nothing
	r.verify("crash_probe", "SELECT COUNT(*) FROM Ingest WHERE r_id >= 900000000", expectCount(ingestRowsPerTxn))
	return s, nil
}

// unitOf maps every metric name to its unit.
var unitOf = func() map[string]string {
	u := map[string]string{}
	for _, d := range endToEnd {
		u[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		u[d.Name] = d.Unit
	}
	return u
}()
