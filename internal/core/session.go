package core

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// Result is the outcome of one statement.
type Result struct {
	Cols         []string
	Rows         []sqltypes.Row
	RowsAffected int64
	Plan         string // EXPLAIN output
}

// Session is one connection to the database: it owns at most one open
// transaction and runs its statements one at a time. Sessions are
// independent — each reads under its own MVCC snapshot, so a SELECT or
// ANALYZE in one session never blocks behind an open transaction in
// another. A Session is safe for concurrent use; statements serialize on
// the session, not on the engine.
type Session struct {
	db  *Database
	mu  sync.Mutex
	txn *Txn // open explicit transaction, nil otherwise
}

// NewSession opens an independent session. Sessions need no Close: an
// abandoned one at most pins the vacuum horizon until its transaction
// handle is garbage collected, and a clean shutdown only requires not
// leaving transactions open.
func (db *Database) NewSession() *Session {
	return &Session{db: db}
}

// Exec parses and executes one SQL statement on the database's default
// session. Independent callers wanting transaction isolation from each
// other should use NewSession.
func (db *Database) Exec(sql string) (*Result, error) { return db.defaultSess.Exec(sql) }

// ExecScript executes a semicolon-separated script on the default
// session, returning the last statement's result.
func (db *Database) ExecScript(sql string) (*Result, error) { return db.defaultSess.ExecScript(sql) }

// Exec parses and executes one SQL statement.
func (s *Session) Exec(sql string) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.execStmt(stmt, sql)
}

// Query is a convenience for SELECT statements.
func (s *Session) Query(sql string) (*Result, error) { return s.Exec(sql) }

// ExecScript executes a semicolon-separated script, returning the last
// statement's result.
func (s *Session) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var res *Result
	for _, st := range stmts {
		res, err = s.execStmt(st.Stmt, st.SQL)
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// ExecStmt executes a parsed statement.
func (s *Session) ExecStmt(stmt sqlparse.Statement) (*Result, error) {
	return s.execStmt(stmt, "")
}

// execStmt executes a parsed statement; sql is the original text when
// the caller had one (it labels the statement in the query history).
func (s *Session) execStmt(stmt sqlparse.Statement, sql string) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.db
	if err := db.healthErr(); err != nil {
		return nil, err
	}
	switch t := stmt.(type) {
	case *sqlparse.Select:
		db.mu.RLock()
		defer db.mu.RUnlock()
		snap, release := s.statementSnapshot()
		defer release()
		res, _, err := db.runPlan(queryLabel(sql, "SELECT"), snap, false, func() (*plan.Node, error) {
			return db.planner.PlanSelect(t)
		})
		return res, err
	case *sqlparse.Explain:
		db.mu.RLock()
		defer db.mu.RUnlock()
		snap, release := s.statementSnapshot()
		defer release()
		return db.explain(t, snap, sql)
	case *sqlparse.Insert:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return s.runInsert(t, sql)
	case *sqlparse.CreateTable:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := s.refuseDDLInTxn(); err != nil {
			return nil, err
		}
		return db.runCreateTable(t)
	case *sqlparse.DropTable:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := s.refuseDDLInTxn(); err != nil {
			return nil, err
		}
		return db.runDropTable(t)
	case *sqlparse.CreateIndex:
		// Takes its own locks: the parallel entry build runs under the
		// shared lock, only the catch-up + commit phase is exclusive.
		return db.runCreateIndex(s, t, sql)
	case *sqlparse.DropIndex:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := s.refuseDDLInTxn(); err != nil {
			return nil, err
		}
		return db.runDropIndex(t)
	case *sqlparse.BeginTxn:
		return &Result{}, s.beginLocked()
	case *sqlparse.CommitTxn:
		return &Result{}, s.commitLocked()
	case *sqlparse.RollbackTxn:
		return &Result{}, s.rollbackLocked()
	case *sqlparse.Checkpoint:
		return &Result{}, db.Checkpoint()
	case *sqlparse.Analyze:
		// Takes its own locks: collection under RLock, persist under Lock.
		return db.runAnalyze(s, t, sql)
	}
	return nil, fmt.Errorf("core: unsupported statement %T", stmt)
}

// refuseDDLInTxn rejects DDL while any transaction is open: catalog and
// storage changes are not versioned, so they cannot coexist with
// snapshots that must not see them.
func (s *Session) refuseDDLInTxn() error {
	if s.txn != nil || s.db.tm.explicitOpen() {
		return fmt.Errorf("core: DDL inside a transaction is not supported")
	}
	return nil
}

// Begin opens an explicit transaction with a snapshot fixed at BEGIN.
func (s *Session) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beginLocked()
}

func (s *Session) beginLocked() error {
	if err := s.db.healthErr(); err != nil {
		return err
	}
	if s.txn != nil {
		return fmt.Errorf("core: a transaction is already open")
	}
	// Under the structure lock so the snapshot cannot straddle a
	// checkpoint's version-metadata reset.
	s.db.mu.RLock()
	s.txn = s.db.newTxn(false)
	s.db.mu.RUnlock()
	return nil
}

// Commit commits the session's open transaction.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commitLocked()
}

func (s *Session) commitLocked() error {
	if s.txn == nil {
		return fmt.Errorf("core: no open transaction")
	}
	t := s.txn
	s.txn = nil
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.commitTxn(t)
}

// Rollback aborts the session's open transaction, undoing its effects.
func (s *Session) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollbackLocked()
}

func (s *Session) rollbackLocked() error {
	if s.txn == nil {
		return fmt.Errorf("core: no open transaction")
	}
	t := s.txn
	s.txn = nil
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.rollbackTxn(t)
}

// currentTxn returns the open transaction or a fresh autocommit one.
// Callers hold db.mu (any mode).
func (s *Session) currentTxn() *Txn {
	if s.txn != nil {
		return s.txn
	}
	return s.db.newTxn(true)
}

// statementSnapshot returns the snapshot a read statement runs under: the
// transaction's own (repeatable reads + read-your-writes) inside an
// explicit transaction, otherwise a fresh statement-scoped one. Callers
// hold db.mu (any mode).
func (s *Session) statementSnapshot() (*Snapshot, func()) {
	if s.txn != nil {
		return s.txn.snap, func() {}
	}
	snap := s.db.tm.readSnapshot()
	return snap, func() { s.db.tm.releaseSnapshot(snap) }
}

// execContext builds the per-query execution context: the configured DOP,
// the engine-wide operator counters, and the statement's snapshot.
func (db *Database) execContext(snap *Snapshot) *exec.Context {
	return &exec.Context{DOP: db.dop, Sink: db.sink, Snapshot: snap}
}

// runPlan is how a statement that moves rows runs: planFn plans it, the
// plan is instrumented, built and run to completion under snap, and the
// statement is recorded as sql in the query history (record), a planning
// error included. With timed set — EXPLAIN ANALYZE — the profiles also
// take wall time and the rendered profile is returned; otherwise only the
// cheap always-on counters accrue. Callers hold db.mu in some mode.
func (db *Database) runPlan(sql string, snap *Snapshot, timed bool, planFn func() (*plan.Node, error)) (*Result, string, error) {
	start := time.Now()
	res := &Result{}
	node, err := planFn()
	if err == nil {
		node.Instrument(timed)
		var op exec.Operator
		if op, err = node.Build(); err == nil {
			res.Rows, err = exec.Run(db.execContext(snap), op)
		}
		for _, c := range node.Cols {
			res.Cols = append(res.Cols, c.Name)
		}
	}
	profile := db.record(sql, start, int64(len(res.Rows)), node, err, timed)
	if err != nil {
		return nil, "", err
	}
	return res, profile, nil
}

// record writes a statement's query-history record: its text, start,
// duration, rows and error, and the spill volume of the plan it ran (nil
// for a statement that runs none). It returns the plan's rendered profile
// when explain asks for it; a statement that ran at or over the slow
// threshold keeps that profile in the slow-query log.
func (db *Database) record(sql string, start time.Time, rows int64, node *plan.Node, err error, explain bool) string {
	total := time.Since(start)
	rec := obs.QueryRecord{SQL: sql, Start: start, Duration: total, Rows: rows}
	if err != nil {
		rec.Err = err.Error()
	}
	var profile string
	if node != nil {
		rec.SpillBytes = node.SpillBytes()
		slow := err == nil && db.qlog.Threshold() > 0 && total >= db.qlog.Threshold()
		if explain || slow {
			profile = node.ExplainAnalyze(total, rows)
		}
		if slow {
			rec.Profile = profile
		}
	}
	db.qlog.Record(rec)
	return profile
}

// queryLabel returns the history label for a statement: its SQL text
// when the caller had one, a placeholder for pre-parsed statements.
func queryLabel(sql, kind string) string {
	if sql != "" {
		return sql
	}
	return "(" + kind + " via ExecStmt)"
}

// explain executes EXPLAIN [ANALYZE]: the plan of a SELECT, or of an
// INSERT ... SELECT's query, in the indented format of the paper's plan
// figures. With ANALYZE the SELECT first runs to completion through
// runPlan with timed per-operator instrumentation, and the plan renders
// with actual row counts, estimate ratios, wall time and spill/Bloom/pool
// detail per node; the rows are discarded, the plan is the output.
func (db *Database) explain(e *sqlparse.Explain, snap *Snapshot, sql string) (*Result, error) {
	sel, ok := e.Stmt.(*sqlparse.Select)
	if ins, isInsert := e.Stmt.(*sqlparse.Insert); isInsert && ins.Query != nil && !e.Analyze {
		sel, ok = ins.Query, true
	}
	switch {
	case !ok && e.Analyze:
		return nil, fmt.Errorf("core: EXPLAIN ANALYZE supports SELECT only")
	case !ok:
		return nil, fmt.Errorf("core: EXPLAIN supports SELECT and INSERT ... SELECT")
	}
	planFn := func() (*plan.Node, error) { return db.planner.PlanSelect(sel) }
	if e.Analyze {
		_, text, err := db.runPlan(queryLabel(sql, "EXPLAIN ANALYZE"), snap, true, planFn)
		if err != nil {
			return nil, err
		}
		return planResult(text), nil
	}
	node, err := planFn()
	if err != nil {
		return nil, err
	}
	return planResult(node.Explain()), nil
}

// planResult is the result of an EXPLAIN: the rendered plan, one row a
// line.
func planResult(text string) *Result {
	res := &Result{Cols: []string{"plan"}, Plan: text}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		res.Rows = append(res.Rows, sqltypes.Row{sqltypes.NewString(line)})
	}
	return res
}

// runInsert executes INSERT under the shared structure lock: the
// statement's rows are built in full, then written as one batch by
// insertRows under the table's write latch.
func (s *Session) runInsert(ins *sqlparse.Insert, sql string) (*Result, error) {
	start := time.Now()
	db := s.db
	td, err := db.table(ins.Table)
	if err != nil {
		return nil, err
	}
	// Map the column list to positions.
	colIdx := make([]int, 0, len(ins.Cols))
	for _, name := range ins.Cols {
		idx := td.def.ColumnIndex(name)
		if idx < 0 {
			return nil, fmt.Errorf("core: table %s has no column %q", td.def.Name, name)
		}
		colIdx = append(colIdx, idx)
	}
	width := len(colIdx)
	if width == 0 {
		width = len(td.def.Columns)
	}

	t := s.currentTxn()
	var rows []sqltypes.Row
	switch {
	case ins.Rows != nil:
	values:
		for _, astRow := range ins.Rows {
			vals := make(sqltypes.Row, len(astRow))
			rows = append(rows, vals)
			for i, e := range astRow {
				var bound expr.Expr
				if bound, err = db.planner.BindConstant(e); err == nil {
					vals[i], err = bound.Eval(nil)
				}
				if err != nil {
					break values
				}
			}
		}
	case ins.Query != nil:
		// The SELECT runs under the inserting transaction's snapshot, and is
		// fully materialized before the first insert: the source row set
		// is fixed (no Halloween self-chasing), and scan latches — a
		// clustered source holds its table's write latch shared — are
		// released before insertRows needs them exclusively. Its record in
		// the query history is the statement's.
		var sel *Result
		if sel, _, err = db.runPlan(queryLabel(sql, "INSERT"), t.snap, false, func() (*plan.Node, error) {
			return db.planner.PlanSelect(ins.Query)
		}); err == nil {
			rows = sel.Rows
		}
	default:
		err = fmt.Errorf("core: INSERT requires VALUES or SELECT")
	}
	full := rows
	if len(colIdx) > 0 {
		full = make([]sqltypes.Row, len(rows))
	}
	for i, vals := range rows {
		if err != nil {
			break
		}
		if len(vals) != width {
			err = fmt.Errorf("core: INSERT expects %d values, got %d", width, len(vals))
			break
		}
		if len(colIdx) > 0 {
			full[i] = make(sqltypes.Row, len(td.def.Columns))
			for j, idx := range colIdx {
				full[i][idx] = vals[j]
			}
		}
	}
	if err == nil {
		err = db.insertRows(t, td, full)
	}
	var n int64
	if err == nil {
		n = int64(len(full))
	}
	if ins.Rows != nil {
		// INSERT ... SELECT's record is its query's, written by runPlan.
		db.record(queryLabel(sql, "INSERT"), start, n, nil, err, false)
	}
	if err := db.finishAuto(t, err); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: n}, nil
}

func (db *Database) runCreateTable(ct *sqlparse.CreateTable) (*Result, error) {
	def := &catalog.Table{Name: ct.Name, Clustered: ct.Clustered}
	for _, c := range ct.Cols {
		typ, err := catalog.ParseType(c.Type)
		if err != nil {
			return nil, err
		}
		def.Columns = append(def.Columns, catalog.Column{
			Name:    c.Name,
			Type:    typ,
			NotNull: c.NotNull || c.PK,
		})
	}
	for _, pk := range ct.PK {
		idx := def.ColumnIndex(pk)
		if idx < 0 {
			return nil, fmt.Errorf("core: PRIMARY KEY column %q not found", pk)
		}
		def.PrimaryKey = append(def.PrimaryKey, idx)
	}
	switch ct.Compression {
	case "", "NONE":
		def.Compression = storage.CompressNone
	case "ROW":
		def.Compression = storage.CompressRow
	case "PAGE":
		def.Compression = storage.CompressPage
	}
	if def.Clustered && def.Compression == storage.CompressPage {
		return nil, fmt.Errorf("core: PAGE compression is supported on heap tables only (use ROW for clustered tables)")
	}
	if err := db.cat.Create(def); err != nil {
		return nil, err
	}
	if err := db.openTableStorage(def); err != nil {
		db.cat.Drop(def.Name)
		return nil, err
	}
	return &Result{}, nil
}

func (db *Database) runDropTable(dt *sqlparse.DropTable) (*Result, error) {
	def := db.cat.Get(dt.Name)
	if def == nil {
		return nil, fmt.Errorf("core: unknown table %q", dt.Name)
	}
	td := db.tables[def.ID]
	if td != nil {
		if td.heap != nil {
			td.heap.Close()
			for _, ix := range td.indexes {
				ix.tree.Close()
				if err := removeFile(ix.path); err != nil {
					return nil, err
				}
			}
		} else if td.tree != nil {
			td.tree.Close()
		}
		delete(db.tables, def.ID)
	}
	if err := db.cat.Drop(dt.Name); err != nil {
		return nil, err
	}
	if err := db.tstats.Drop(def.ID); err != nil {
		return nil, err
	}
	if err := removeFile(db.tablePath(def)); err != nil {
		return nil, err
	}
	return &Result{}, nil
}

// InsertRows is the bulk Go-API insert path used by loaders and
// experiments: it bypasses SQL parsing but follows the same WAL and
// transaction protocol. On the Database it uses the default session;
// Session.InsertRows joins that session's open transaction.
func (db *Database) InsertRows(table string, rows []sqltypes.Row) error {
	return db.defaultSess.InsertRows(table, rows)
}

// InsertRows bulk-inserts rows within the session's transaction scope.
func (s *Session) InsertRows(table string, rows []sqltypes.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.db
	if err := db.healthErr(); err != nil {
		return err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		return err
	}
	t := s.currentTxn()
	return db.finishAuto(t, db.insertRows(t, td, rows))
}

// ImportFileStream imports a file as a FileStream blob and inserts a row
// into the given table, placing the new GUID in the FILESTREAM column and
// the provided values in the remaining columns (by name). It is the
// engine's OPENROWSET(BULK ..., SINGLE_BLOB) ingest path from the paper's
// Section 3.3 example.
func (db *Database) ImportFileStream(table, srcPath string, values map[string]sqltypes.Value) (string, error) {
	return db.defaultSess.ImportFileStream(table, srcPath, values)
}

// ImportFileStream imports a blob + row + provenance record in one
// transaction on this session.
func (s *Session) ImportFileStream(table, srcPath string, values map[string]sqltypes.Value) (guid string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	db := s.db
	if err := db.healthErr(); err != nil {
		return "", err
	}
	// Exclusive: the import may create the provenance table (DDL).
	db.mu.Lock()
	defer db.mu.Unlock()
	td, err := db.table(table)
	if err != nil {
		return "", err
	}
	fsCol := -1
	for i := range td.def.Columns {
		if td.def.Columns[i].Type.FileStream {
			fsCol = i
			break
		}
	}
	if fsCol < 0 {
		return "", fmt.Errorf("core: table %s has no FILESTREAM column", table)
	}
	t := s.currentTxn()
	guid = newGUIDForImport()
	execErr := func() error {
		if _, err := db.createBlobInTxn(t, guid, srcPath); err != nil {
			return err
		}
		row := make(sqltypes.Row, len(td.def.Columns))
		for name, v := range values {
			idx := td.def.ColumnIndex(name)
			if idx < 0 {
				return fmt.Errorf("core: table %s has no column %q", table, name)
			}
			row[idx] = v
		}
		row[fsCol] = sqltypes.NewBytes([]byte(guid))
		// A FILESTREAM column stores the GUID; the catalog treats it as
		// VARBINARY, so hand it the GUID bytes.
		if err := db.insertRows(t, td, []sqltypes.Row{row}); err != nil {
			return err
		}
		// Imports are automatically provenance-tracked (the paper's
		// future-work item): what was loaded, from where, into which
		// table, with which metadata.
		_, err := db.recordProvenanceInTxn(t, ProvenanceRecord{
			Entity:   BlobEntity(guid),
			Activity: "import",
			Tool:     "ImportFileStream",
			Params:   describeValues(values),
			Inputs:   "file:" + srcPath,
		})
		return err
	}()
	if err := db.finishAuto(t, execErr); err != nil {
		return "", err
	}
	return guid, nil
}

// OpenBlob opens a FileStream blob for streaming reads.
func (db *Database) OpenBlob(guid string) (*BlobStream, error) {
	s, err := db.blobs.Open(guid)
	if err != nil {
		return nil, err
	}
	return (*BlobStream)(s), nil
}

// TableSizeBytes returns the allocated storage size of a table.
func (db *Database) TableSizeBytes(table string) (int64, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	td, err := db.table(table)
	if err != nil {
		return 0, err
	}
	if td.heap != nil {
		return td.heap.SizeBytes(), nil
	}
	return td.tree.SizeBytes(), nil
}

// ScanTableNoLock iterates every row of a table WITHOUT acquiring the
// structure lock, for callers that already hold it (re-acquiring could
// deadlock against a waiting DDL): provenance lookups and scan probes. The
// scan sees the latest committed rows; a table-valued function that looks
// rows up scans under its statement's snapshot instead (exec.Context).
// Callers must not run DDL concurrently.
func (db *Database) ScanTableNoLock(table string, fn func(sqltypes.Row) error) error {
	def := db.cat.Get(table)
	if def == nil {
		return fmt.Errorf("core: unknown table %q", table)
	}
	ops, err := db.ScanPartitionsPruned(def, 1, nil)
	if err != nil {
		return err
	}
	op := ops[0]
	if err := op.Open(&exec.Context{DOP: 1, Sink: db.sink}); err != nil {
		return err
	}
	defer op.Close()
	rows := exec.RowCursor{Op: op}
	for {
		row, ok, err := rows.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(row); err != nil {
			return err
		}
	}
}
