package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
)

// workload is one set of conditions the lab's tasks run under. All four
// run the same read cycle and report the same metrics; they differ in
// what the cycle repeats most, in the cache and operator memory the
// engine gets, and in what writes beside it.
type workload struct {
	Name  string
	Why   string
	shape string // "cycles", "ingest" or "mixed"
	// weights repeat the DGE, re-sequencing and lookup blocks of the read
	// cycle: the workload's own block three times, the others once, so
	// every task has a latency under these conditions.
	weights [3]int
	// gated workloads are the ones BENCHMARK.json lists, so the ones the
	// driver runs and holds later changes to. Its cap on the time of all
	// runs buys two workloads of 58 s or four of 28 s, and the reference
	// box has stretches of one to two minutes in which every statement
	// runs 25-80 % slower: they take the median of a 58 s run with them
	// once, of 28 s runs three times in a row, and three slow runs of ten
	// put the quartiles a whole stretch apart (README, "Gated and ungated
	// workloads").
	// The other workloads run under every other mode of this command.
	gated   bool
	clients int  // goroutines that talk to the engine at once
	cold    bool // reopen with ColdPoolPages and ColdBudgets
	serial  bool // DOP 1
	// checkpointEvery is the "cycles" shape's CHECKPOINT cadence in
	// cycles; 0 checkpoints only once the loop is over. A CHECKPOINT drops
	// every btree page from the pool, so dge_warm, whose point is a pool
	// that never misses, has none; reseq_cold needs them often enough that
	// one 64-row transaction per cycle never fills its small pool with
	// dirty pages ("buffer pool exhausted ... checkpoint required").
	checkpointEvery int
}

var workloads = []*workload{
	{
		Name:  "dge_warm",
		Why:   "DGE lane that fits the 256 MB pool: vectorized scan, aggregate, sort and TVF do the work; pool, WAL and btree almost none",
		shape: "cycles", weights: [3]int{3, 1, 1}, gated: true, clients: 1,
	},
	{
		Name:  "reseq_cold",
		Why:   "re-sequencing lane ~14x a 64-page pool, operator budgets below the join, sort and aggregate inputs: pool misses, checksum verification, btree leaf walks and spill I/O",
		shape: "cycles", weights: [3]int{1, 3, 1}, gated: true, clients: 1, cold: true, checkpointEvery: 4,
	},
	{
		Name:  "ingest",
		Why:   "fixed-work write-only load by 2 writers with count-triggered checkpoints, a crash and WAL recovery: parse, MVCC insert, btree upkeep, WAL fsync; scans do none of it",
		shape: "ingest", weights: [3]int{1, 1, 1}, clients: 2,
	},
	{
		Name:  "mixed",
		Why:   "lookups and ranges at DOP 1 beside an open-loop writer growing the same table: a gain for scans that costs commits, or the reverse, shows here",
		shape: "mixed", weights: [3]int{1, 1, 3}, clients: 2, serial: true,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// parallelDOP is the degree of parallelism asked of the engine where a
// workload does not say DOP 1: one processor is left for the session's
// own goroutine (the consumer of every exchange), the other client and
// the OS, and at most four are used. With DOP equal to GOMAXPROCS every
// parallel statement waits for whichever virtual CPU the host schedules
// last; on the 2-CPU reference box that made runs of the same code differ
// by 10-30 %, against 1-5 % at DOP 1.
func parallelDOP(nproc int) int { return max(1, min(nproc-1, 4)) }

func (w *workload) engine(sc scale, nproc int) engineConfig {
	c := engineConfig{dop: parallelDOP(nproc)}
	if w.serial {
		c.dop = 1
	}
	if w.cold {
		c.poolPages, c.budgets = sc.ColdPoolPages, sc.ColdBudgets
	}
	return c
}

// processors is the GOMAXPROCS a workload runs under: one processor per
// client plus one per extra parallel worker, never more than the box
// has. A single-session workload at DOP 1 gets one, so the goroutines a
// statement starts (the hash join builds its tables in one) run on the
// session's own processor and the statement never waits for a wake-up on
// the other virtual CPU: with two, hash_join_ms was 13.4 to 16.0 ms from
// run to run on the 2-CPU reference box, with one 11.8 to 12.1 ms.
func (w *workload) processors(sc scale, nproc int) int {
	return max(1, min(nproc, w.clients+w.engine(sc, nproc).dop-1))
}

type passConfig struct {
	wl       *workload
	sc       scale
	seconds  float64
	nproc    int
	lanes    *lanes
	workDir  string // scratch directory of this pass, removed afterwards
	traceOut string // where the traced pass writes its spans
}

// sizes states what the numbers were measured on.
type sizes struct {
	DGEReads    int             `json:"dge_reads"`
	ReseqReads  int             `json:"reseq_reads"`
	Alignments  int             `json:"alignments"`
	UserBytes   int64           `json:"user_bytes"`
	StoredBytes int64           `json:"stored_bytes"`
	PoolPages   int             `json:"pool_pages"`
	PoolBytes   int64           `json:"pool_bytes"`
	DataPerPool float64         `json:"stored_bytes_per_pool_byte"`
	Budgets     operatorBudgets `json:"operator_budget_bytes"`
	DOP         int             `json:"dop"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
}

type passResult struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Errors    []string
	Metrics   map[string]value
	Sizes     sizes
	SelfMS    map[string]float64 // traced pass: self time by span name
}

const defaultPoolPages = 32768 // the engine's default, 256 MB

// runPass runs one workload once: untraced for the end-to-end metrics,
// traced for the per-layer ones.
func runPass(cfg passConfig, traced bool) (*passResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	ln := cfg.lanes
	lb, err := newLab(ln, cfg.sc, cfg.workDir)
	if err != nil {
		return nil, fmt.Errorf("preparing statements: %w", err)
	}
	engine := cfg.wl.engine(cfg.sc, cfg.nproc)
	procs := cfg.wl.processors(cfg.sc, cfg.nproc)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	// Set-up, several times over in the untraced pass so setup_s is a
	// median; the last database is the one measured.
	repeats := 1
	if !traced {
		repeats = cfg.sc.SetupRepeats
	}
	var db *core.Database
	var setups []setupTimes
	dir := ""
	for i := 0; i < repeats; i++ {
		if db != nil {
			if err := db.Close(); err != nil {
				return nil, err
			}
			os.RemoveAll(dir)
		}
		dir = filepath.Join(cfg.workDir, fmt.Sprintf("db%d", i))
		var st setupTimes
		if db, st, err = setupLab(dir, lb, engine); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}

	// What set-up stored, before the measured phase writes anything.
	loaded, err := storedBytes(dir)
	if err != nil {
		db.Close()
		return nil, err
	}

	r := &runner{dir: dir, lb: lb, rec: newRecorder(), trec: newRecorder(), counters: map[string]int64{}}
	r.adopt(db)
	if traced {
		r.tr = newTracer()
	}
	var usage resourceSampler
	if traced {
		usage.start()
	}
	var recoveryS float64
	switch cfg.wl.shape {
	case "cycles":
		r.runCycles(cfg.wl.weights, cfg.wl.checkpointEvery, cfg.seconds)
	case "mixed":
		r.runMixed(cfg.wl.weights, cfg.seconds)
	case "ingest":
		if recoveryS, err = r.runIngest(engine, cfg.seconds); err != nil {
			r.db.Close()
			return nil, err
		}
	}
	r.absorb()
	if traced {
		usage.stop()
	}

	res := &passResult{Metrics: map[string]value{}}
	stored, err := storedBytes(dir)
	if err != nil {
		r.db.Close()
		return nil, err
	}
	pool := engine.poolPages
	if pool == 0 {
		pool = defaultPoolPages
	}
	res.Sizes = sizes{
		DGEReads: len(ln.DGEReads), ReseqReads: len(ln.ReseqReads), Alignments: len(ln.Aligns),
		UserBytes: ln.userBytes() + r.userBytes, StoredBytes: stored,
		PoolPages: pool, PoolBytes: int64(pool) * 8192, DataPerPool: float64(stored) / float64(int64(pool)*8192),
		Budgets: engine.budgets, DOP: engine.dop, GOMAXPROCS: procs,
	}

	if !traced {
		// ingest and mixed write a fixed number of rows; the closed loop
		// of the other two writes as many as the engine's speed lets it,
		// so the mix of lane bytes (stored at ~1.9 B/B) and Ingest rows
		// (~1.0 B/B) after it says how fast the run was: 1.69 B/B after a
		// quiet run, 1.97 after a slow one. What set-up stored does not
		// depend on speed.
		storedPerUser := float64(stored) / float64(ln.userBytes()+r.userBytes)
		if cfg.wl.shape == "cycles" {
			storedPerUser = float64(loaded) / float64(ln.userBytes())
		}
		err = endToEndMetrics(res.Metrics, r, setups, storedPerUser)
	} else {
		err = perLayerMetrics(res.Metrics, cfg, r, setups[0], &usage, recoveryS)
		res.SelfMS = r.tr.selfTimesMS()
		if werr := r.tr.write(cfg.traceOut); werr != nil && err == nil {
			err = fmt.Errorf("writing trace: %w", werr)
		}
	}
	if r.db != nil {
		if cerr := r.db.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
	}
	res.Attempted = r.rec.attempted + r.trec.attempted
	res.Failed = r.rec.failed + r.trec.failed
	res.Errors = append(r.rec.errs, r.trec.errs...)
	res.Correct = res.Failed == 0
	return res, nil
}

func endToEndMetrics(m map[string]value, r *runner, setups []setupTimes, storedPerUser float64) error {
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.Total
	}
	m["setup_s"] = value{Value: median(totals), Unit: "s", Samples: len(totals)}
	if r.readWall <= 0 || r.writeWall <= 0 || r.rowsAcked == 0 {
		return fmt.Errorf("measured phase did no reads or no writes (read %v, write %v, %d rows)", r.readWall, r.writeWall, r.rowsAcked)
	}
	m["stmt_per_s"] = value{Value: float64(r.readStmts) / r.readWall.Seconds(), Unit: "1/s", Samples: int(r.readStmts)}
	rate := median(r.groupRates)
	if len(r.groupRates) == 0 { // too short a run for one periodic checkpoint
		rate = float64(r.rowsAcked) / r.writeWall.Seconds()
	}
	m["rows_in_per_s"] = value{Value: rate, Unit: "1/s", Samples: len(r.groupRates)}
	m["stored_bytes_per_user_byte"] = value{Value: storedPerUser, Unit: "B/B"}
	for _, k := range latencyKinds {
		xs := r.rec.lat[k]
		if k == "idx_lookup" {
			xs = r.rec.lat[idxLookupMean]
		}
		if len(xs) == 0 {
			return fmt.Errorf("no successful %s in the measured phase: %v", k, r.rec.errs)
		}
		m[k+"_ms"] = value{Value: median(xs), Unit: "ms", Samples: len(xs)}
	}
	return nil
}

// resourceSampler records process CPU time and peak heap over the
// measured phase of the traced pass (the paper's Fig. 7/8 number:
// how many cores the work kept busy).
type resourceSampler struct {
	startWall time.Time
	startCPU  time.Duration
	wall      time.Duration
	cpu       time.Duration
	peakHeap  uint64

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (s *resourceSampler) start() {
	s.startWall, s.startCPU = time.Now(), processCPU()
	s.stopCh = make(chan struct{})
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			s.peakHeap = max(s.peakHeap, ms.HeapInuse)
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
			}
		}
	}()
}

func (s *resourceSampler) stop() {
	close(s.stopCh)
	s.wg.Wait()
	s.wall, s.cpu = time.Since(s.startWall), processCPU()-s.startCPU
}
