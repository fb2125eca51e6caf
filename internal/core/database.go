// Package core is the embedded relational engine — the system under study
// in the paper, reproduced from scratch: a catalog-driven storage layer
// (heaps and clustered B+-trees with ROW/PAGE compression), a FileStream
// blob store with dual SQL/file access, write-ahead logging with
// idempotent redo recovery, transactions with rollback, a SQL front end
// with a parallelizing planner, and the CLR-style extensibility surface
// (scalar UDFs, pull-model TVFs, mergeable UDAs, the SEQUENCE UDT).
package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blob"
	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Options configures Open.
type Options struct {
	// BufferPoolPages caps the page cache (default 32768 pages = 256 MB).
	BufferPoolPages int
	// DOP is the degree of parallelism for queries (default NumCPU).
	DOP int
	// JoinMemoryBudget caps the bytes of build-side rows a hash join may
	// hold in memory before it spills whole partitions to temp files in
	// <dir>/tmp (default 64 MB; negative disables spilling so joins of
	// any size stay in memory). A join whose build side exceeds the
	// budget still returns exactly the in-memory result — it pages
	// through disk instead of growing the heap.
	JoinMemoryBudget int64
	// SortMemoryBudget caps the bytes a sort (ORDER BY, ROW_NUMBER) may
	// buffer before spilling stably-sorted runs to temp files in
	// <dir>/tmp and k-way merging them on output (default 64 MB;
	// negative disables spilling so sorts of any size stay in memory).
	// Parallel sorts divide the budget across their partition sorts.
	SortMemoryBudget int64
	// AggMemoryBudget caps the bytes of resident group state a hash
	// aggregate (GROUP BY) may hold before freezing hash partitions and
	// spilling their overflow rows to temp files, re-aggregating per
	// partition on output (default 64 MB; negative disables spilling).
	// Parallel plans divide it across their partial aggregates.
	AggMemoryBudget int64
	// FaultInjector routes the database's storage I/O (heap and btree
	// pages, WAL, spill files) through fault.Injector failpoints, and
	// enables simulated power loss: all files buffer through the
	// injector's FS shim and a crash discards unsynced writes. nil (the
	// default) means direct OS I/O. Test/torture use only.
	FaultInjector *fault.Injector
	// SlowQueryThreshold enables the slow-query log: statements running at
	// or over the threshold keep their full per-operator profile in
	// Database.SlowQueries (0, the default, disables capture; the query
	// history ring records every statement regardless).
	SlowQueryThreshold time.Duration
}

// Database is an open engine instance rooted at a directory.
type Database struct {
	dir   string
	cat   *catalog.Catalog
	pool  *storage.BufferPool
	wal   *wal.WAL
	blobs *blob.Store

	// mu is the STRUCTURE lock: DDL, checkpoint and Close take it
	// exclusively; every other statement — SELECT, INSERT, ANALYZE —
	// holds it shared. Row-level write synchronization lives in the
	// per-table write latches; read visibility comes from MVCC
	// snapshots, so readers never wait for writers.
	mu     sync.RWMutex
	tables map[uint32]*tableData

	scalars *expr.Registry
	aggs    map[string]exec.AggFactory
	tvfs    map[string]plan.TVF

	tm          *txnManager
	defaultSess *Session // serves the Database-level statement API

	// fatalErr poisons the database after a failed mid-transaction undo
	// or an ambiguous commit: storage no longer matches any consistent
	// image, so every statement is refused until the directory is
	// reopened and WAL recovery rebuilds a clean state.
	fatalMu  sync.Mutex
	fatalErr error

	vacuumStop chan struct{}
	vacuumDone chan struct{}

	dop        int
	joinBudget int64 // join memory budget (0 = unlimited)
	sortBudget int64 // sort memory budget (0 = unlimited)
	aggBudget  int64 // aggregate memory budget (0 = unlimited)
	planner    *plan.Planner
	spill      *storage.SpillManager
	tstats     *stats.Store

	inj *fault.Injector // fault-injection registry (nil in production)

	// No Options field reaches these three. In-package tests set them after
	// Open to get the configuration they compare against: threshold and
	// joinParts (then SetDOP, which rebuilds the planner) put DOP-4 plans
	// on tables of a few thousand rows, noChecksums makes tables created
	// afterwards write the pre-checksum page format.
	threshold   int64 // planner ParallelThreshold override, 0 = the planner's
	joinParts   int   // join hash fan-out
	noChecksums bool  // new heaps write legacy (version-0) pages
	// betweenIndexPhases, when a test sets it, runs after CREATE INDEX
	// releases the shared lock and before it takes the exclusive one.
	betweenIndexPhases func()

	// Observability surface: sink carries the engine-wide counter set
	// every layer writes to (statements add their operators' profiles to
	// it), metrics is the registry over that set behind Metrics(), qlog
	// the query history + slow-query log.
	sink    obs.Sink
	metrics *obs.Registry
	qlog    *obs.QueryLog
}

// tableData is the open storage behind one catalog table.
type tableData struct {
	def      *catalog.Table
	heap     *storage.Heap // heap-organized tables
	tree     *btree.BTree  // clustered tables
	walCodec storage.RowCodec
	// writeMu is the table's write latch: writers hold it exclusively per
	// row insert (and rollback key deletes); clustered-table scans hold
	// it shared for their duration because the btree iterator walks pages
	// unlatched. Heap scans never take it — MVCC snapshots make heap
	// reads safe against concurrent appends.
	writeMu sync.RWMutex
	// versions is the table's MVCC state: which rows belong to which
	// transaction, and at which commit sequence they became visible.
	versions *tableVersions
	// insertSeq numbers inserts for WAL row indexes; guarded by writeMu.
	insertSeq int64
	// modCount counts modifications since open (seeded from the durable
	// row count, so it is comparable across restarts); ANALYZE records it
	// and the planner treats stats as stale once the live counter drifts
	// too far from the recorded one.
	modCount atomic.Int64
	// indexes are the open secondary indexes (heap tables only).
	indexes []*indexData
	// compactGen counts heap compactions; CREATE INDEX uses it to detect
	// rows moving between its shared and exclusive lock phases. Guarded by
	// db.mu (compaction runs under the exclusive lock).
	compactGen int64
}

// Open opens (creating if needed) a database directory and runs crash
// recovery.
func Open(dir string, opts Options) (*Database, error) {
	if opts.BufferPoolPages <= 0 {
		opts.BufferPoolPages = 32768
	}
	if opts.DOP <= 0 {
		opts.DOP = runtime.NumCPU()
	}
	if opts.JoinMemoryBudget == 0 {
		opts.JoinMemoryBudget = plan.DefaultJoinMemoryBudget
	} else if opts.JoinMemoryBudget < 0 {
		opts.JoinMemoryBudget = 0 // unlimited
	}
	if opts.SortMemoryBudget == 0 {
		opts.SortMemoryBudget = plan.DefaultSortMemoryBudget
	} else if opts.SortMemoryBudget < 0 {
		opts.SortMemoryBudget = 0 // unlimited
	}
	if opts.AggMemoryBudget == 0 {
		opts.AggMemoryBudget = plan.DefaultAggMemoryBudget
	} else if opts.AggMemoryBudget < 0 {
		opts.AggMemoryBudget = 0 // unlimited
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cat, err := catalog.Open(filepath.Join(dir, "catalog.json"))
	if err != nil {
		return nil, err
	}
	blobs, err := blob.OpenStore(filepath.Join(dir, "filestream"))
	if err != nil {
		return nil, err
	}
	w, err := wal.OpenFault(filepath.Join(dir, "db.wal"), opts.FaultInjector)
	if err != nil {
		return nil, err
	}
	tstats, err := stats.OpenStore(filepath.Join(dir, "stats.json"))
	if err != nil {
		return nil, err
	}
	db := &Database{
		dir:        dir,
		cat:        cat,
		pool:       storage.NewBufferPool(opts.BufferPoolPages),
		wal:        w,
		blobs:      blobs,
		tables:     map[uint32]*tableData{},
		scalars:    expr.NewRegistry(),
		aggs:       map[string]exec.AggFactory{},
		tvfs:       map[string]plan.TVF{},
		dop:        opts.DOP,
		joinBudget: opts.JoinMemoryBudget,
		sortBudget: opts.SortMemoryBudget,
		aggBudget:  opts.AggMemoryBudget,
		tstats:     tstats,
		tm:         newTxnManager(),

		inj:  opts.FaultInjector,
		sink: obs.Sink{Engine: new(obs.Counters)},
	}
	db.qlog = obs.NewQueryLog(queryHistorySize, defaultSlowLogSize, opts.SlowQueryThreshold)
	db.metrics = obs.NewRegistry(db.sink.Engine)
	db.registerMetrics()
	db.defaultSess = db.NewSession()
	db.spill = storage.NewSpillManager(filepath.Join(dir, "tmp"), db.inj)
	db.planner = db.newPlanner(db.dop)
	db.registerEngineFunctions()
	for _, name := range cat.List() {
		if err := db.openTableStorage(cat.Get(name)); err != nil {
			db.Close()
			return nil, err
		}
	}
	if err := db.recover(); err != nil {
		db.Close()
		return nil, err
	}
	db.vacuumStop = make(chan struct{})
	db.vacuumDone = make(chan struct{})
	go func() {
		defer close(db.vacuumDone)
		db.vacuumLoop(db.vacuumStop)
	}()
	return db, nil
}

// poison records the first fatal error; every later statement fails with
// it until the database is reopened (which runs WAL recovery).
func (db *Database) poison(err error) {
	db.fatalMu.Lock()
	if db.fatalErr == nil {
		db.fatalErr = err
	}
	db.fatalMu.Unlock()
}

// healthErr returns the statement-blocking error of a poisoned database.
func (db *Database) healthErr() error {
	db.fatalMu.Lock()
	defer db.fatalMu.Unlock()
	if db.fatalErr != nil {
		return fmt.Errorf("core: database is in a failed state and must be reopened for recovery: %w", db.fatalErr)
	}
	return nil
}

// Blobs exposes the FileStream store (dual access for external tools).
func (db *Database) Blobs() *blob.Store { return db.blobs }

// Catalog exposes table metadata.
func (db *Database) Catalog() *catalog.Catalog { return db.cat }

// newPlanner builds a planner honoring the database's threshold and join
// overrides.
func (db *Database) newPlanner(dop int) *plan.Planner {
	pl := plan.NewPlanner(db, dop)
	if db.threshold > 0 {
		pl.ParallelThreshold = db.threshold
	}
	pl.JoinMemoryBudget = db.joinBudget
	pl.JoinPartitions = db.joinParts
	pl.SortMemoryBudget = db.sortBudget
	pl.AggMemoryBudget = db.aggBudget
	pl.Sink = db.sink
	return pl
}

// TableIntegrity is one table's result from VerifyIntegrity.
type TableIntegrity struct {
	Table string
	// PagesChecked counts sealed data pages whose CRC32C was verified;
	// PagesSkipped counts legacy (pre-checksum) pages, which carry none.
	// Clustered (btree) tables carry no page checksums yet and report all
	// pages as skipped.
	PagesChecked int64
	PagesSkipped int64
	// Failures holds one message per corrupt or unreadable page.
	Failures []string
}

// VerifyIntegrity reads every table's sealed pages from disk and checks
// their checksums, bypassing the buffer pool — the scrub behind the
// `genodb -verify` flag. It reports per-table results; corruption does
// not poison the database (the pages of other tables are independent).
func (db *Database) VerifyIntegrity() ([]TableIntegrity, error) {
	if err := db.healthErr(); err != nil {
		return nil, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	var out []TableIntegrity
	for _, name := range db.cat.List() {
		td, err := db.table(name)
		if err != nil {
			return nil, err
		}
		ti := TableIntegrity{Table: name}
		if td.heap != nil {
			checked, skipped, failures := td.heap.VerifyChecksums()
			ti.PagesChecked, ti.PagesSkipped = checked, skipped
			for _, f := range failures {
				ti.Failures = append(ti.Failures, f.Error())
			}
		} else {
			ti.PagesSkipped = td.tree.SizeBytes() / storage.PageSize
		}
		out = append(out, ti)
	}
	return out, nil
}

// SetDOP overrides the degree of parallelism (used by the scaling
// experiments).
func (db *Database) SetDOP(dop int) {
	if dop < 1 {
		dop = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dop = dop
	db.planner = db.newPlanner(dop)
}

func (db *Database) tablePath(t *catalog.Table) string {
	ext := "heap"
	if t.Clustered {
		ext = "btree"
	}
	return filepath.Join(db.dir, fmt.Sprintf("t%d_%s.%s", t.ID, sanitize(t.Name), ext))
}

func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(s) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			sb.WriteRune(r)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func (db *Database) openTableStorage(def *catalog.Table) error {
	td := &tableData{
		def:      def,
		walCodec: storage.RowCodec{Kinds: def.StorageKinds(), Mode: storage.CompressRow},
	}
	if def.Clustered {
		tree, err := btree.OpenFault(db.tablePath(def), db.pool, db.inj)
		if err != nil {
			return err
		}
		td.tree = tree
		td.insertSeq = tree.Count()
	} else {
		h, err := storage.OpenHeapEnv(db.tablePath(def), def.StorageKinds(), def.StorageWidths(), def.Compression, db.pool,
			storage.HeapEnv{Injector: db.inj, Sink: db.sink, DisableChecksums: db.noChecksums})
		if err != nil {
			return err
		}
		td.heap = h
		td.insertSeq = h.RowCount()
		if err := db.openIndexes(td); err != nil {
			return err
		}
	}
	td.modCount.Store(td.insertSeq)
	td.versions = newTableVersions(td.insertSeq)
	db.tables[def.ID] = td
	return nil
}

// table resolves open storage by name.
func (db *Database) table(name string) (*tableData, error) {
	def := db.cat.Get(name)
	if def == nil {
		return nil, fmt.Errorf("core: unknown table %q", name)
	}
	td := db.tables[def.ID]
	if td == nil {
		return nil, fmt.Errorf("core: table %q has no open storage", name)
	}
	return td, nil
}

// rowCount returns the current physical row count of a table (including
// not-yet-visible and dead rows).
func (td *tableData) rowCount() int64 {
	if td.heap != nil {
		return td.heap.RowCount()
	}
	return td.tree.Count()
}

// Close releases all resources. It does NOT checkpoint; callers wanting a
// clean shutdown should call Checkpoint first (recovery replays the WAL
// otherwise).
func (db *Database) Close() error {
	if db.vacuumStop != nil {
		close(db.vacuumStop)
		<-db.vacuumDone
		db.vacuumStop = nil
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	var firstErr error
	for _, td := range db.tables {
		var err error
		if td.heap != nil {
			err = td.heap.Close()
			for _, ix := range td.indexes {
				if cerr := ix.tree.Close(); cerr != nil && err == nil {
					err = cerr
				}
			}
		} else if td.tree != nil {
			err = td.tree.Close()
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := db.wal.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Checkpoint makes all table data durable and truncates the WAL. It is
// refused while a transaction is open (heap rollback could not undo past
// a checkpoint).
func (db *Database) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *Database) checkpointLocked() error {
	if err := db.healthErr(); err != nil {
		return err
	}
	if db.tm.explicitOpen() {
		return fmt.Errorf("core: CHECKPOINT is not allowed inside a transaction")
	}
	if err := db.inj.Point("checkpoint.begin"); err != nil {
		return err
	}
	// Once any heap has been physically compacted, its rows have moved
	// but the version metadata is only rebased at the very end: a failure
	// in between leaves no consistent in-memory image, so it must poison
	// the database (reopening replays the WAL into a clean state). Before
	// the first compaction, a checkpoint failure is just an error — disk
	// and memory are both unchanged.
	compacted := false
	fail := func(err error) error {
		if compacted {
			err = fmt.Errorf("core: checkpoint failed after heap compaction moved rows: %w", err)
			db.poison(err)
		}
		return err
	}
	// Quiescent point: db.mu is held exclusively and no explicit
	// transaction is open, so every version span is resolved. Compact
	// rolled-back rows out of the heaps before making them durable — the
	// durable image then never contains dead rows, which is what lets
	// recovery replay committed transactions by plain re-append.
	for _, td := range db.tables {
		if td.heap != nil && td.versions.deadCount() > 0 {
			compacted = true
			if err := db.compactHeapLocked(td); err != nil {
				return fail(fmt.Errorf("core: compacting %s: %w", td.def.Name, err))
			}
		}
	}
	if err := db.inj.Point("checkpoint.compacted"); err != nil {
		return fail(err)
	}
	// WAL first: every logged effect must be durable before data files
	// advance past it.
	if err := db.wal.Flush(); err != nil {
		return fail(err)
	}
	if err := db.inj.Point("checkpoint.wal-flushed"); err != nil {
		return fail(err)
	}
	for _, td := range db.tables {
		var err error
		if td.heap != nil {
			err = td.heap.Checkpoint()
			// Sealing the tail collected zone maps for the new pages; fill
			// in any pages persisted by an earlier process while we hold
			// the exclusive lock anyway.
			if err == nil {
				err = td.heap.FillZoneMaps()
			}
			for _, ix := range td.indexes {
				if err != nil {
					break
				}
				err = ix.tree.Checkpoint()
			}
		} else {
			err = td.tree.Checkpoint()
		}
		if err != nil {
			return fail(err)
		}
	}
	if err := db.inj.Point("checkpoint.tables-done"); err != nil {
		return fail(err)
	}
	if err := db.wal.Truncate(); err != nil {
		return fail(err)
	}
	// All surviving rows are committed and durable; version metadata and
	// insert sequences restart from the compacted counts.
	for _, td := range db.tables {
		td.versions.resetAtCheckpoint(td.rowCount())
		if td.heap != nil {
			td.insertSeq = td.heap.RowCount()
		}
	}
	db.sink.Add(obs.Checkpoints, 1)
	return nil
}

// compactHeapLocked rewrites a heap's suffix so rows of rolled-back
// transactions disappear physically: it reads the batches from the page
// holding the first dead row, keeps the committed rows, truncates and
// re-appends them, then rebuilds every secondary index (rebuildIndexLocked,
// under the sort budget). Called only from checkpointLocked (quiescent,
// db.mu exclusive). The first dead row is always at or above the durable
// row count — dead rows can never be durable, because the previous
// checkpoint also compacted before flushing — so the truncate never cuts
// into checkpointed pages.
func (db *Database) compactHeapLocked(td *tableData) error {
	first := td.versions.firstDead()
	if first < 0 {
		return nil
	}
	live := td.versions.visibleRanges(nil) // all spans resolved: nil = committed
	var keep []sqltypes.Row
	it := td.heap.NewBatchIterator(td.heap.PageOf(first), 0, true, obs.Sink{})
	for {
		b, err := it.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for r := max(first-b.Base, 0); r < int64(b.Rows()); r++ {
			if rowIdxVisible(live, b.Base+r) {
				row, err := b.ReadRow(int(r), nil)
				if err != nil {
					return err
				}
				keep = append(keep, row)
			}
		}
	}
	if err := td.heap.Truncate(first); err != nil {
		return err
	}
	for _, r := range keep {
		if err := td.heap.Append(r); err != nil {
			return err
		}
	}
	td.insertSeq = td.heap.RowCount()
	// Rows moved: every secondary index's baked positions are stale.
	// Rebuild them from the compacted heap (shadow-swapped, so a crash
	// mid-rebuild leaves the old consistent file).
	for _, ix := range td.indexes {
		if err := db.rebuildIndexLocked(td, ix); err != nil {
			return err
		}
	}
	td.compactGen++
	return nil
}

// recover replays the WAL: only committed transactions are redone
// (idempotently); effects of uncommitted or aborted transactions are
// undone where storage could already contain them (clustered upserts,
// blobs) and simply skipped for heaps, whose rows never reach disk
// before a quiescent checkpoint.
func (db *Database) recover() error {
	committed := map[uint64]bool{}
	if err := db.wal.Replay(func(rec wal.Record) error {
		if rec.Type == wal.RecCommit {
			committed[rec.Txn] = true
		}
		return nil
	}); err != nil {
		return err
	}
	// Logged row indexes count every insert since the last checkpoint,
	// including ones whose transaction never committed. Those rows are
	// not replayed, so each committed row's physical position is its
	// logged index minus the non-committed rows logged before it —
	// exactly the compaction a crash-free checkpoint would have applied.
	// A record carries n >= 1 rows, the first at its RowIndex: redo
	// writes them as one batch, and an uncommitted one skips n.
	skipped := map[uint32]int64{}
	staleIdx := map[*indexData]bool{}
	statsReplayed := false
	err := db.wal.Replay(func(rec wal.Record) error {
		switch rec.Type {
		case wal.RecDDL:
			// An index built mid-log baked the heap positions of its build
			// time into its entries. If any aborted insert for the table
			// preceded the build, replay compacts those rows away and every
			// position shifts — the file is stale and must be rebuilt.
			var p ddlPayload
			if err := json.Unmarshal(rec.Data, &p); err != nil || p.Op != "create_index" {
				return nil
			}
			td := db.tables[rec.Table]
			if td == nil || skipped[rec.Table] == 0 {
				return nil // dropped table, or positions agree with replay
			}
			for _, ix := range td.indexes {
				if strings.EqualFold(ix.name, p.Index) {
					staleIdx[ix] = true
				}
			}
		case wal.RecInsert:
			td := db.tables[rec.Table]
			if td == nil {
				return nil // table was dropped
			}
			b, err := td.decodeRowBatch(rec.Data)
			if err != nil {
				return fmt.Errorf("core: recovery: %w", err)
			}
			if committed[rec.Txn] {
				first := rec.RowIndex - skipped[rec.Table]
				if err := td.indexKeys(b, first); err != nil {
					return fmt.Errorf("core: recovery: %w", err)
				}
				return db.writeRows(td, b, 0, len(b.rows), first, btree.Upsert)
			}
			skipped[rec.Table] += int64(len(b.rows))
			return td.undoInsert(b)
		case wal.RecBlobCreate:
			if !committed[rec.Txn] {
				return db.blobs.Delete(string(rec.Data))
			}
		case wal.RecBlobDelete:
			if committed[rec.Txn] {
				return db.blobs.Delete(string(rec.Data))
			}
		case wal.RecStats:
			// Re-apply ANALYZE images whose stats-file write was lost.
			if committed[rec.Txn] && db.cat.ByID(rec.Table) != nil {
				var ts stats.TableStats
				if err := json.Unmarshal(rec.Data, &ts); err != nil {
					return fmt.Errorf("core: recovery stats decode: %w", err)
				}
				db.tstats.Apply(&ts)
				statsReplayed = true
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if statsReplayed {
		if err := db.tstats.Save(); err != nil {
			return err
		}
	}
	// Replay may have re-applied inserts; re-seed the insert sequences,
	// modification counters and version floors from the recovered counts
	// (every surviving row is committed, so the whole table is visible).
	for _, td := range db.tables {
		td.insertSeq = td.rowCount()
		td.modCount.Store(td.insertSeq)
		td.versions.resetAtCheckpoint(td.insertSeq)
	}
	// Secondary indexes: rebuild the ones replay invalidated. After replay
	// every surviving heap row is committed and carries exactly one entry,
	// so a count mismatch is a second, independent staleness signal (e.g.
	// an index file lost mid-swap).
	for _, td := range db.tables {
		for _, ix := range td.indexes {
			if staleIdx[ix] || ix.tree.Count() != td.heap.RowCount() {
				if err := db.rebuildIndexLocked(td, ix); err != nil {
					return err
				}
			}
		}
	}
	// Converge: make everything durable and empty the log.
	return db.checkpointLocked()
}

// undoInsert removes an uncommitted record's clustered keys, which a
// checkpoint may have made durable. Heap rows of uncommitted transactions
// never reach disk (heaps only persist at transaction-boundary
// checkpoints).
func (td *tableData) undoInsert(b *rowBatch) error {
	for _, key := range b.keys {
		if _, err := td.tree.Delete(key); err != nil {
			return err
		}
	}
	return nil
}

// pkKey encodes the primary-key values of a storage row.
func (td *tableData) pkKey(storageRow sqltypes.Row) ([]byte, error) {
	pk := make(sqltypes.Row, len(td.def.PrimaryKey))
	for i, idx := range td.def.PrimaryKey {
		pk[i] = storageRow[idx]
	}
	return btree.AppendKey(nil, pk)
}
