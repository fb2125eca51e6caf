package core

import (
	"fmt"
	"math/bits"

	"repro/internal/btree"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/sqltypes"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/vec"
)

// The Database implements plan.Provider: catalog lookups, function
// resolution and physical access paths.

// Table resolves a base table definition.
func (db *Database) Table(name string) *catalog.Table { return db.cat.Get(name) }

// Scalar resolves a scalar function (built-in or registered UDF).
func (db *Database) Scalar(name string) (expr.ScalarFunc, bool) {
	return db.scalars.Lookup(name)
}

// Agg resolves an aggregate (registered UDA or built-in).
func (db *Database) Agg(name string) (exec.AggFactory, bool) {
	if f, ok := db.aggs[lower(name)]; ok {
		return f, true
	}
	if f := exec.BuiltinAggregate(name); f != nil {
		return f, true
	}
	return nil, false
}

// TVF resolves a table-valued function.
func (db *Database) TVF(name string) (plan.TVF, bool) {
	f, ok := db.tvfs[lower(name)]
	return f, ok
}

func lower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

// RowCountEstimate returns the current table cardinality (an estimate:
// physical rows minus known-dead ones; in-flight inserts count).
func (db *Database) RowCountEstimate(t *catalog.Table) int64 {
	td := db.tables[t.ID]
	if td == nil {
		return 0
	}
	n := td.rowCount() - td.versions.deadCount()
	if n < 0 {
		n = 0
	}
	return n
}

// statsStaleDivisor: stats are stale once the table's modification
// counter has drifted by more than rowCount/divisor since ANALYZE (with
// a floor so tiny tables don't flap between fresh and stale).
const statsStaleDivisor = 5

// Stats returns the table's ANALYZE statistics, or nil when none were
// collected or the table has been modified too much since collection —
// the cheap invalidation the planner relies on to never trust a
// distribution the data has outgrown.
func (db *Database) Stats(t *catalog.Table) *stats.TableStats {
	td := db.tables[t.ID]
	if td == nil {
		return nil
	}
	ts := db.tstats.Get(t.ID)
	if ts == nil {
		return nil
	}
	drift := td.modCount.Load() - ts.ModCount
	if drift < 0 {
		drift = -drift
	}
	limit := ts.RowCount / statsStaleDivisor
	if limit < 64 {
		limit = 64
	}
	if drift > limit {
		return nil
	}
	return ts
}

// tableStatistics returns the (non-stale) collected statistics for a
// table by name, or nil.
func (db *Database) tableStatistics(name string) *stats.TableStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	def := db.cat.Get(name)
	if def == nil {
		return nil
	}
	return db.Stats(def)
}

// spillStore adapts the storage spill manager to the operator-layer
// contract (exec names the interfaces, storage owns the file lifecycle).
type spillStore struct{ m *storage.SpillManager }

type spillFile struct{ *storage.SpillFile }

func (s spillStore) Create() (exec.SpillFile, error) {
	f, err := s.m.Create()
	if err != nil {
		return nil, err
	}
	return spillFile{f}, nil
}

func (f spillFile) Iter() (exec.RowIterator, error) { return f.NewIterator(), nil }

func (f spillFile) SealRun() (exec.RunSpan, error) {
	start, end, rows, bytes, err := f.SpillFile.SealRun()
	return exec.RunSpan{Start: start, End: end, Rows: rows, Bytes: bytes}, err
}

func (f spillFile) IterRun(span exec.RunSpan) (exec.RowIterator, error) {
	return f.NewRunIterator(span.Start, span.End, span.Rows), nil
}

// SpillStore exposes temp spill files (under <dir>/tmp, written and read
// straight to and from disk, never through the buffer pool) to the
// planner's joins, aggregates and sorts, and to CREATE INDEX's sorts.
func (db *Database) SpillStore() exec.SpillStore { return spillStore{db.spill} }

// convertIterator unpacks SEQUENCE columns when the table uses the UDT.
type convertIterator struct {
	inner exec.RowIterator
	def   *catalog.Table
}

func (c *convertIterator) Next() (sqltypes.Row, bool, error) {
	row, ok, err := c.inner.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	out, err := c.def.FromStorageRow(row)
	if err != nil {
		return nil, false, err
	}
	return out, true, nil
}

func (c *convertIterator) Close() error { return c.inner.Close() }

func (db *Database) wrapIterator(def *catalog.Table, it exec.RowIterator) exec.RowIterator {
	if def.HasSequenceColumns() {
		return &convertIterator{inner: it, def: def}
	}
	return it
}

// visibleBatchIterator is the heap scan: NextBatch serves columnar page
// batches with MVCC visibility applied as a selection-vector intersection
// — invisible rows are deselected, never decoded.
type visibleBatchIterator struct {
	bi      *storage.HeapBatchIterator
	ranges  []rowRange
	ri      int
	seqCols []int
}

// NextBatch intersects the next page batch's selection with the visible
// ranges. Batch row s is global row Base+s; ranges are sorted and
// batches arrive in ascending Base order, so the intersection is one
// monotonic walk across the whole scan.
func (v *visibleBatchIterator) NextBatch() (*vec.Batch, error) {
	for {
		b, err := v.bi.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		sel := b.Sel[:0]
		for _, s := range b.Sel {
			idx := b.Base + int64(s)
			for v.ri < len(v.ranges) && idx >= v.ranges[v.ri].end {
				v.ri++
			}
			if v.ri >= len(v.ranges) {
				break
			}
			if idx >= v.ranges[v.ri].start {
				sel = append(sel, s)
			}
		}
		b.Sel = sel
		// SEQUENCE columns stay in packed storage form; the Packed mark
		// makes value materialization unpack them to the query
		// representation (what FromStorageRow does for a row source).
		for _, c := range v.seqCols {
			b.Cols[c].Packed = true
		}
		if len(b.Sel) > 0 {
			return b, nil
		}
		if v.ri >= len(v.ranges) {
			return nil, nil // nothing visible beyond this point
		}
	}
}

func (v *visibleBatchIterator) Close() error { return v.bi.Close() }

// sequenceColumns lists the columns of the SEQUENCE type: stored packed,
// marked Packed on the batches that carry them.
func sequenceColumns(def *catalog.Table) []int {
	var cols []int
	for i := range def.Columns {
		if def.Columns[i].Type.Name == catalog.TypeSequence {
			cols = append(cols, i)
		}
	}
	return cols
}

// HeapPageStats prices a zone-map-pruned scan: how many sealed pages
// survive the filters, and the total. (0, 0) means "no information" (not
// an open heap table) and the planner falls back to cardinality costing.
func (db *Database) HeapPageStats(t *catalog.Table, filters []storage.ZoneFilter) (kept, total int64) {
	td := db.tables[t.ID]
	if td == nil || td.heap == nil {
		return 0, 0
	}
	return td.heap.ZonePrunedPages(filters)
}

// ScanPartitionsPruned returns `parts` operators that together scan the
// table once: heap tables partition by sealed-page ranges (the tail rides
// with the last partition); clustered tables partition by key range. Each
// partition filters rows against the snapshot in the exec context its
// factory runs under — scans read a consistent version of the table
// while writers keep appending. Sealed heap pages whose zone-map min/max
// ranges provably cannot satisfy every filter are skipped without a
// buffer-pool read; filters are ignored for clustered tables.
func (db *Database) ScanPartitionsPruned(t *catalog.Table, parts int, filters []storage.ZoneFilter) ([]exec.Operator, error) {
	td := db.tables[t.ID]
	if td == nil {
		return nil, fmt.Errorf("core: no storage for table %s", t.Name)
	}
	if parts < 1 {
		parts = 1
	}
	if td.heap != nil {
		sealed := td.heap.SealedPages()
		if int64(parts) > sealed && sealed > 0 {
			parts = int(sealed)
		}
		if sealed == 0 {
			parts = 1
		}
		seqCols := sequenceColumns(td.def)
		ops := make([]exec.Operator, 0, parts)
		for i := 0; i < parts; i++ {
			lo := sealed * int64(i) / int64(parts)
			hi := sealed * int64(i+1) / int64(parts)
			// The tail partition re-captures the sealed-page count at open
			// ("extend"): pages sealed since planning stay covered, and the
			// visibility filter hides whatever the snapshot should not see.
			includeTail := i == parts-1
			ops = append(ops, &exec.Scan{Factory: func(ctx *exec.Context) (exec.BatchIterator, error) {
				snap, _ := ctx.Snapshot.(*Snapshot)
				return &visibleBatchIterator{
					bi:      td.heap.NewBatchIterator(lo, hi, includeTail, ctx.Sink).SetZoneFilters(filters),
					ranges:  td.versions.visibleRanges(snap),
					seqCols: seqCols,
				}, nil
			}})
		}
		return ops, nil
	}
	// Clustered: range partitions (each ordered; ranges are contiguous so
	// an ordered gather preserves global order).
	ranges, err := db.KeyRanges(t, parts)
	if err != nil {
		return nil, err
	}
	ops := make([]exec.Operator, 0, len(ranges))
	for _, rg := range ranges {
		op, err := db.OrderedScanRange(t, rg[0], rg[1])
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// treeIterator is the clustered scan: it adapts a btree range scan to
// batches, hiding keys the scan's snapshot cannot see. The btree iterator
// walks leaf pages unlatched, so the scan holds the table's write latch
// shared for its duration — writers to this clustered table wait for the
// scan, but scans never wait behind an open transaction (only behind
// individual row inserts).
type treeIterator struct {
	it      *btree.Iterator
	td      *tableData
	snap    *Snapshot
	sink    obs.Sink
	seqCols []int
	locked  bool

	held     bool // the cursor's entry did not fit the last batch: it opens the next
	ends     []int
	sizeHint int // bytes of the last batch
}

// advance moves the cursor to the next visible entry.
func (ti *treeIterator) advance() (bool, error) {
	for ti.it.Next() {
		if ti.td.versions.keyVisible(ti.it.Key(), ti.snap) {
			return true, nil
		}
	}
	return false, ti.it.Err()
}

// NextBatch gathers the values of up to vec.DefaultBatchSize visible leaf
// entries, in key order, into one buffer and hands it to the row-page
// kernel: a value is a row in the page's own format, so the columns come
// back lazy and a cell is decoded only if the query reads its column.
func (ti *treeIterator) NextBatch() (*vec.Batch, error) {
	var payload []byte // the batch keeps it: sized like the one before, not reused
	ti.ends = ti.ends[:0]
	for len(ti.ends) < vec.DefaultBatchSize {
		if !ti.held {
			ok, err := ti.advance()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
		}
		val := ti.it.Value()
		if ti.held = len(ti.ends) > 0 && len(payload)+len(val) > storage.MaxLazyRowsBytes; ti.held {
			break
		}
		if payload == nil {
			// As long as the batch before plus an eighth: batches of one scan
			// differ by a few rows' bytes, and outgrowing the buffer by one
			// of them would copy it into another twice its size.
			payload = make([]byte, 0, max(min(ti.sizeHint+ti.sizeHint/8, storage.MaxLazyRowsBytes), len(val)))
		}
		payload = append(payload, val...)
		ti.ends = append(ti.ends, len(payload))
	}
	n := len(ti.ends)
	if n == 0 {
		return nil, nil
	}
	ti.sizeHint = len(payload)
	cols, err := ti.td.walCodec.LazyRows(payload, n, ti.ends, ti.sink)
	if err != nil {
		return nil, err
	}
	// SEQUENCE columns stay in packed storage form, as on heap pages.
	for _, c := range ti.seqCols {
		cols[c].Packed = true
	}
	ti.sink.Add(obs.ScanBatches, 1)
	ti.sink.Add(obs.ScanRows, int64(n))
	return vec.NewBatch(cols, n), nil
}

func (ti *treeIterator) Close() error {
	ti.it.Close()
	if ti.locked {
		ti.td.writeMu.RUnlock()
		ti.locked = false
	}
	return nil
}

// OrderedScanRange scans a clustered table in key order over [lo, hi) of
// the first key column.
func (db *Database) OrderedScanRange(t *catalog.Table, lo, hi *sqltypes.Value) (exec.Operator, error) {
	td := db.tables[t.ID]
	if td == nil || td.tree == nil {
		return nil, fmt.Errorf("core: %s is not a clustered table", t.Name)
	}
	var startKey, endKey []byte
	var err error
	if lo != nil {
		startKey, err = btree.AppendKey(nil, sqltypes.Row{*lo})
		if err != nil {
			return nil, err
		}
	}
	if hi != nil {
		endKey, err = btree.AppendKey(nil, sqltypes.Row{*hi})
		if err != nil {
			return nil, err
		}
	}
	seqCols := sequenceColumns(td.def)
	return &exec.Scan{Factory: func(ctx *exec.Context) (exec.BatchIterator, error) {
		snap, _ := ctx.Snapshot.(*Snapshot)
		td.writeMu.RLock()
		it, err := td.tree.SeekT(startKey, endKey, ctx.Sink)
		if err != nil {
			td.writeMu.RUnlock()
			return nil, err
		}
		return &treeIterator{it: it, td: td, snap: snap, sink: ctx.Sink, seqCols: seqCols, locked: true}, nil
	}}, nil
}

// KeyRanges splits the first (integer) clustered key column into up to
// `parts` contiguous ranges.
func (db *Database) KeyRanges(t *catalog.Table, parts int) ([][2]*sqltypes.Value, error) {
	td := db.tables[t.ID]
	if td == nil || td.tree == nil {
		return nil, fmt.Errorf("core: %s is not a clustered table", t.Name)
	}
	full := [][2]*sqltypes.Value{{nil, nil}}
	if parts <= 1 {
		return full, nil
	}
	minKey, ok, err := td.tree.MinKey()
	if err != nil || !ok {
		return full, err
	}
	maxKey, ok, err := td.tree.MaxKey()
	if err != nil || !ok {
		return full, err
	}
	lo, ok1 := btree.DecodeIntKeyPrefix(minKey)
	hi, ok2 := btree.DecodeIntKeyPrefix(maxKey)
	if !ok1 || !ok2 {
		return full, nil
	}
	// The span hi-lo+1 overflows int64 past 2^63 keys and uint64 over the
	// whole domain, so boundary i is lo + span·i/parts in 128 bits, with
	// span-1 held unsigned.
	spanM1 := uint64(hi) - uint64(lo)
	if spanM1 < uint64(parts-1) {
		return full, nil
	}
	boundary := func(i int) *sqltypes.Value {
		h, l := bits.Mul64(spanM1, uint64(i))
		l, carry := bits.Add64(l, uint64(i), 0)
		q, _ := bits.Div64(h+carry, l, uint64(parts))
		v := sqltypes.NewInt(int64(uint64(lo) + q))
		return &v
	}
	out := make([][2]*sqltypes.Value, 0, parts)
	for i := 0; i < parts; i++ {
		var lb, ub *sqltypes.Value
		if i > 0 {
			lb = boundary(i)
		}
		if i < parts-1 {
			ub = boundary(i + 1)
		}
		out = append(out, [2]*sqltypes.Value{lb, ub})
	}
	return out, nil
}
