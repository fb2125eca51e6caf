package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/sqlparse"
)

// recorder collects latencies by kind and counts operations. An operation
// fails when the engine returns an error or its answer is wrong.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]float64 // milliseconds
	attempted int64
	failed    int64
	errs      []string // the first few failures, for the report
}

func newRecorder() *recorder { return &recorder{lat: map[string][]float64{}} }

func (rc *recorder) observe(kind string, d time.Duration, err error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.attempted++
	if err != nil {
		rc.failed++
		if len(rc.errs) < 5 {
			rc.errs = append(rc.errs, kind+": "+err.Error())
		}
		return
	}
	rc.lat[kind] = append(rc.lat[kind], float64(d)/1e6)
}

// note adds a latency that is derived from operations already observed,
// so it counts as no operation of its own.
func (rc *recorder) note(kind string, ms float64) {
	rc.mu.Lock()
	rc.lat[kind] = append(rc.lat[kind], ms)
	rc.mu.Unlock()
}

// explainKinds also run EXPLAIN in traced cycles, as a sibling span of
// the statement: the planner's cost, and what exec.run_ms subtracts.
var explainKinds = map[string]bool{
	"q1_bin": true, "scan": true, "merge_join": true, "hash_join": true,
	"consensus": true, "pivot": true, "idx_lookup": true, "range": true,
}

// runner drives one open database through a workload's measured phase.
type runner struct {
	db  *core.Database
	dir string
	lb  *lab
	tr  *tracer   // nil in the untraced pass
	rec *recorder // operations run without spans: the end-to-end numbers
	// trec holds the latencies of operations run inside spans, so the
	// traced pass can state what tracing itself costs.
	trec *recorder

	stmtSeq atomic.Int64
	cycles  int // read cycles run so far

	// counters accumulates the engine's Metrics() over the measured
	// phase, across the handle change at ingest's crash.
	counters map[string]int64
	baseline map[string]int64

	mu        sync.Mutex
	readWall  time.Duration // time inside read cycles
	readStmts int64
	writeWall time.Duration // time inside write transactions and checkpoints
	rowsAcked int64
	commits   int64
	userBytes int64 // bytes of the rows acknowledged, as the lab's files
	walBytes  int64 // log bytes written, read off db.wal before each truncation
	ckptMS    []float64
	lateMS    []float64 // open loop only: how late each send was
	// A group is the transactions between two periodic checkpoints plus
	// the checkpoint that ends it. groupRates holds each group's rows per
	// second of write time; rows_in_per_s is their median, so it covers
	// whole groups only, however many transactions the time limit let in
	// after the last checkpoint, and one slow fsync moves it little.
	groupRates []float64
	groupRows  int64 // rowsAcked when the last group closed
	groupWall  time.Duration
}

// closeGroup marks a periodic checkpoint just done; wall is the write
// time up to it.
func (r *runner) closeGroup(wall time.Duration) {
	r.mu.Lock()
	if rows, d := r.rowsAcked-r.groupRows, wall-r.groupWall; rows > 0 && d > 0 {
		r.groupRates = append(r.groupRates, float64(rows)/d.Seconds())
	}
	r.groupRows, r.groupWall = r.rowsAcked, wall
	r.mu.Unlock()
}

// adopt makes db the handle under measurement; its counters count from here.
func (r *runner) adopt(db *core.Database) {
	r.db = db
	r.baseline = db.Metrics()
}

// absorb folds the current handle's counters in.
func (r *runner) absorb() {
	for k, v := range r.db.Metrics() {
		r.counters[k] += v - r.baseline[k]
	}
}

func (r *runner) recFor(traced bool) *recorder {
	if traced {
		return r.trec
	}
	return r.rec
}

// exec runs the next statement of a kind and checks its answer. Untraced,
// it is one Session.Exec from SQL text to last row. Traced, the same work
// is split at the layer boundary: sqlparse.Parse, then Session.ExecStmt.
// It returns the statement's time and whether it succeeded.
func (r *runner) exec(sess *core.Session, k *kind, traced bool) (time.Duration, bool) {
	st := k.take()
	var res *core.Result
	var err error
	var ast sqlparse.Statement
	start := time.Now()
	if !traced {
		res, err = sess.Exec(st.sql)
	} else {
		id := r.stmtSeq.Add(1)
		sp := r.tr.begin("stmt."+k.name, noSpan, id)
		p := r.tr.begin("sqlparse.parse", sp, id)
		ast, err = sqlparse.Parse(st.sql)
		r.tr.end(p)
		if err == nil {
			x := r.tr.begin("core.exec", sp, id)
			res, err = sess.ExecStmt(ast)
			r.tr.end(x)
		}
		r.tr.end(sp)
		if err == nil && explainKinds[k.name] {
			e := r.tr.begin("plan.explain."+k.name, noSpan, id)
			_, err = sess.ExecStmt(&sqlparse.Explain{Stmt: ast})
			r.tr.end(e)
		}
	}
	d := time.Since(start)
	if err == nil {
		err = st.check(res)
	}
	r.recFor(traced).observe(k.name, d, err)
	return d, err == nil
}

// idxLookupMean is the latency kind behind idx_lookup_ms: the mean time
// per lookup of one lookup block (20 lookups of different keys). A
// single lookup takes 0.05 to 0.15 ms depending on its key (quartiles
// 0.059 and 0.105 ms within one run), so the median of single lookups
// moves with the seed's mix of keys by 10-15 %; the median of block means
// does not. Single lookups keep their own kind for the tail.
const idxLookupMean = "idx_lookup_mean"

// spillEvery is the period, in read cycles, of the spill block: the first
// cycle and every third after it. Three, so that the traced pass, which
// puts spans on every other cycle, sees it with and without them.
const spillEvery = 3

// readCycle runs each block of the read cycle weight times and, on every
// spillEvery-th call, the spill block once. It starts from a collected
// heap (see gcPolicy); the collection is not timed.
func (r *runner) readCycle(sess *core.Session, weights [3]int, traced bool) {
	runtime.GC()
	start := time.Now()
	var n int64
	for b, block := range [][]string{dgeBlock, reseqBlock, lookupBlock, spillBlock} {
		repeat := 0
		switch {
		case b < len(weights):
			repeat = weights[b]
		case r.cycles%spillEvery == 0:
			repeat = 1
		}
		for w := 0; w < repeat; w++ {
			var lookups time.Duration
			lookupsOK := 0
			for _, name := range block {
				d, ok := r.exec(sess, r.lb.kinds[name], traced)
				n++
				if ok && name == "idx_lookup" {
					lookups += d
					lookupsOK++
				}
			}
			if lookupsOK > 0 {
				r.recFor(traced).note(idxLookupMean, float64(lookups)/1e6/float64(lookupsOK))
			}
		}
	}
	r.cycles++
	r.mu.Lock()
	r.readWall += time.Since(start)
	r.readStmts += n
	r.mu.Unlock()
}

// writeTxn is BEGIN; one multi-row INSERT from SQL text; COMMIT, on one
// session. The commit returns after the group-commit WAL has fsynced: the
// engine has no other flush policy. due is when the transaction was
// scheduled (open loop) or when it started (closed loop); the latency
// recorded as "commit" runs from due to the commit's acknowledgement.
func (r *runner) writeTxn(sess *core.Session, sql string, rows int, user int64, due time.Time, traced bool) {
	start := time.Now()
	var err error
	if !traced {
		if err = sess.Begin(); err == nil {
			if _, err = sess.Exec(sql); err == nil {
				err = sess.Commit()
			} else {
				_ = sess.Rollback() // the insert's error is the one reported
			}
		}
	} else {
		id := r.stmtSeq.Add(1)
		sp := r.tr.begin("txn.write", noSpan, id)
		b := r.tr.begin("core.begin", sp, id)
		err = sess.Begin()
		r.tr.end(b)
		if err == nil {
			p := r.tr.begin("sqlparse.parse", sp, id)
			var ast sqlparse.Statement
			ast, err = sqlparse.Parse(sql)
			r.tr.end(p)
			if err == nil {
				x := r.tr.begin("core.exec", sp, id)
				_, err = sess.ExecStmt(ast)
				r.tr.end(x)
			}
			if err == nil {
				c := r.tr.begin("core.commit", sp, id)
				err = sess.Commit()
				r.tr.end(c)
			} else {
				_ = sess.Rollback() // the earlier error is the one reported
			}
		}
		r.tr.end(sp)
	}
	end := time.Now()
	r.recFor(traced).observe("commit", end.Sub(due), err)
	r.mu.Lock()
	r.writeWall += end.Sub(start)
	if err == nil {
		r.rowsAcked += int64(rows)
		r.commits++
		r.userBytes += user
	}
	r.mu.Unlock()
}

// checkpoint issues CHECKPOINT, first reading the log's size: the engine
// truncates db.wal at every checkpoint, so the sizes seen here add up to
// the log bytes written.
func (r *runner) checkpoint() {
	var wal int64
	if fi, err := os.Stat(filepath.Join(r.dir, "db.wal")); err == nil {
		wal = fi.Size()
	}
	sp := r.tr.begin("core.checkpoint", noSpan, 0)
	start := time.Now()
	err := r.db.Checkpoint()
	d := time.Since(start)
	r.tr.end(sp)
	r.rec.observe("checkpoint", d, err)
	r.mu.Lock()
	r.walBytes += wal
	r.writeWall += d
	r.ckptMS = append(r.ckptMS, float64(d)/1e6)
	r.mu.Unlock()
	runtime.GC() // see gcPolicy: the write loops collect here, untimed
}

// verify runs one checked statement outside any latency kind.
func (r *runner) verify(what, sql string, check func(*core.Result) error) {
	start := time.Now()
	res, err := r.db.Exec(sql)
	if err == nil {
		err = check(res)
	}
	r.rec.observe("verify."+what, time.Since(start), err)
}

// runCycles is the closed loop of dge_warm and reseq_cold: one session
// repeats the weighted read cycle and one Ingest transaction until the
// time is up, with a CHECKPOINT after every checkpointEvery-th cycle (none
// before the end when it is 0). In the traced pass every other cycle runs
// inside spans.
func (r *runner) runCycles(weights [3]int, checkpointEvery int, seconds float64) {
	sess := r.db.NewSession()
	txns := r.lb.buildIngestTxns(1, max(64, int(seconds*50)))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; time.Now().Before(deadline) || c < 2; c++ {
		if c == len(txns) {
			txns = append(txns, r.lb.buildIngestTxns(int64(len(txns)*ingestRowsPerTxn+1), len(txns))...)
		}
		traced := r.tr != nil && c%2 == 0
		r.readCycle(sess, weights, traced)
		t := txns[c]
		r.writeTxn(sess, t.sql, len(t.rows), t.userBytes, time.Now(), traced)
		switch {
		case checkpointEvery == 0:
			r.closeGroup(r.writeWall) // a group is one transaction
		case c%checkpointEvery == checkpointEvery-1:
			r.checkpoint()
			r.closeGroup(r.writeWall)
		}
	}
	r.checkpoint()
	r.verify("ingest_count", "SELECT COUNT(*) FROM Ingest", expectCount(r.rowsAcked))
}

// runIngest is the write-only lane load: two writer sessions in closed
// loops share a fixed number of transactions; writer 0 checkpoints after
// every IngestCheckpoint/2 of its own commits. CHECKPOINT is refused
// while any transaction is open, so the writers keep a read lock from
// BEGIN to COMMIT and the checkpointer takes the write lock, as a lab's
// loader would have to. Then the handle is abandoned without Close, the
// directory is reopened (WAL recovery), the row count must equal the rows
// acknowledged and seeded rows must read back byte for byte. The read
// cycle then runs on the recovered database for half the seconds.
// It returns how long the reopen took.
func (r *runner) runIngest(cfg engineConfig, seconds float64) (recoveryS float64, err error) {
	const writers = 2
	perWriter := r.lb.sc.IngestTxns / writers
	var txns [writers][]ingestTxn
	for w := range txns {
		txns[w] = r.lb.buildIngestTxns(int64(w)*100_000_000+1, perWriter)
	}
	var gate sync.RWMutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := r.db.NewSession()
			every := max(1, r.lb.sc.IngestCheckpoint/writers)
			for i, t := range txns[w] {
				traced := r.tr != nil && i%2 == 0
				gate.RLock()
				r.writeTxn(sess, t.sql, len(t.rows), t.userBytes, time.Now(), traced)
				gate.RUnlock()
				if w == 0 && (i+1)%every == 0 {
					gate.Lock()
					r.checkpoint()
					r.closeGroup(time.Since(start))
					gate.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	// rows_in_per_s for this workload is rows over the wall time of the
	// load, both writers and all checkpoints included.
	r.mu.Lock()
	r.writeWall = time.Since(start)
	r.mu.Unlock()

	// Crash: drop the handle with whatever the pool still holds dirty.
	// Only the log fsynced at each COMMIT and the pages written by
	// checkpoints are on disk.
	if fi, err := os.Stat(filepath.Join(r.dir, "db.wal")); err == nil {
		r.walBytes += fi.Size()
	}
	r.absorb()
	abandoned := r.db
	t := time.Now()
	db, err := openLab(r.dir, cfg)
	if err != nil {
		return 0, fmt.Errorf("reopening after the abandoned handle: %w", err)
	}
	recoveryS = time.Since(t).Seconds()
	r.adopt(db)
	// The abandoned handle is closed only now, after recovery has read
	// the files as the crash left them; closing it writes nothing.
	_ = abandoned.Close()

	r.verify("recovered_count", "SELECT COUNT(*) FROM Ingest", expectCount(r.rowsAcked))
	// recoveryProbes seeded rows by primary key, in one statement: a key
	// lookup on a clustered table is a full scan in this engine, and every
	// probed key is one more comparison per row scanned (see README).
	want := map[int64]ingestRow{}
	var ids []string
	for len(want) < min(recoveryProbes, writers*perWriter*ingestRowsPerTxn) {
		row := txns[r.lb.rng.Intn(writers)][r.lb.rng.Intn(perWriter)].rows[r.lb.rng.Intn(ingestRowsPerTxn)]
		if _, dup := want[row.id]; !dup {
			want[row.id] = row
			ids = append(ids, fmt.Sprint(row.id))
		}
	}
	r.verify("recovered_rows", "SELECT r_id, short_read_seq, quals FROM Ingest WHERE r_id IN ("+strings.Join(ids, ",")+")",
		func(res *core.Result) error {
			if len(res.Rows) != len(want) {
				return fmt.Errorf("%d of %d probed rows came back after recovery", len(res.Rows), len(want))
			}
			for _, got := range res.Rows {
				if w, ok := want[got[0].I]; !ok || got[1].S != w.seq || got[2].S != w.qual {
					return fmt.Errorf("row %d after recovery: got (%s, %s)", got[0].I, got[1].S, got[2].S)
				}
			}
			return nil
		})

	sess := r.db.NewSession()
	deadline := time.Now().Add(time.Duration(seconds / 2 * float64(time.Second)))
	for c := 0; time.Now().Before(deadline) || c < 2; c++ {
		r.readCycle(sess, [3]int{1, 1, 1}, r.tr != nil && c%2 == 0)
	}
	r.checkpoint()
	return recoveryS, nil
}

const (
	recoveryProbes   = 20
	writerRowsPerTxn = 16
)

// runMixed puts reads beside writes. The writer is an open loop: it sends
// a 16-row transaction into AlignHeap on a fixed schedule whatever the
// engine's speed, and its latency runs from the scheduled send time, so a
// stall is charged to every transaction it delays. The rows lie outside
// every read predicate. Every WriterMaintenance commits the writer does
// the table's upkeep itself: CHECKPOINT, then ANALYZE so the planner keeps
// its statistics as the table grows; an open loop charges that pause to
// the transactions queued behind it. The reader is the closed-loop read
// cycle.
func (r *runner) runMixed(weights [3]int, seconds float64) {
	rate := r.lb.sc.WriterTxnsPerSecond
	count := int(float64(rate) * seconds)
	sqls := make([]string, count)
	var sb strings.Builder
	var lineBytes int64
	for i := range sqls {
		sb.Reset()
		sb.WriteString("INSERT INTO AlignHeap VALUES ")
		for j := 0; j < writerRowsPerTxn; j++ {
			n := int64(i*writerRowsPerTxn + j)
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,1,%d,0,0)", 1_000_000_000+n, writerPosBase+n)
		}
		sqls[i] = sb.String()
	}
	// An alignment file line without its sequence and qualities:
	// read name, reference, position, strand, mismatches, mapq.
	lineBytes = writerRowsPerTxn * int64(len("IL4_901:2:2:100:1000:1000\tchr1\t10000000\t+\t0\t0\n"))

	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	interval := time.Second / time.Duration(rate)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess := r.db.NewSession()
		for i, sql := range sqls {
			due := start.Add(time.Duration(i) * interval)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			late := time.Since(due)
			r.mu.Lock()
			r.lateMS = append(r.lateMS, float64(late)/1e6)
			r.mu.Unlock()
			r.writeTxn(sess, sql, writerRowsPerTxn, lineBytes, due, r.tr != nil && i%2 == 0)
			if (i+1)%r.lb.sc.WriterMaintenance == 0 {
				r.checkpoint()
				t := time.Now()
				_, err := sess.Exec("ANALYZE TABLE AlignHeap")
				r.rec.observe("analyze", time.Since(t), err)
				r.closeGroup(time.Since(start))
			}
		}
	}()
	sess := r.db.NewSession()
	for c := 0; time.Now().Before(deadline) || c < 2; c++ {
		r.readCycle(sess, weights, r.tr != nil && c%2 == 0)
	}
	wg.Wait()
	r.mu.Lock()
	r.writeWall = time.Since(start)
	r.mu.Unlock()
	r.checkpoint()
	r.verify("writer_count", fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos >= %d", writerPosBase),
		expectCount(r.rowsAcked))
}
