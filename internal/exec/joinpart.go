package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// SpillFile is a temp row file: a hash join's or an aggregate's spilled
// partition, a sort's runs. Package storage implements it (paged temp
// files written and read straight to and from disk); exec only sees this
// contract so the operator layer stays storage-agnostic. Append must be
// safe for concurrent use.
type SpillFile interface {
	Append(row sqltypes.Row) error
	Rows() int64
	Bytes() int64
	// Iter reads every appended row back, in order.
	Iter() (RowIterator, error)
	// SealRun ends the run being appended and IterRun reads one sealed run
	// back: a sort appends all its runs to one file.
	SealRun() (RunSpan, error)
	IterRun(RunSpan) (RowIterator, error)
	Release() error
}

// RunSpan locates one sealed run inside a spill file.
type RunSpan struct {
	Start, End int64 // page range [Start, End)
	Rows       int64
	Bytes      int64 // encoded payload bytes
}

// SpillStore creates spill files; provided to the planner by the engine.
type SpillStore interface {
	Create() (SpillFile, error)
}

// PartitionedHashJoin is the engine's one hash join, a hybrid Grace join
// through which batches flow, never rows. The build side is drained a
// batch at a time: NULL keys drop, each remaining row's key hashes once
// (joinhash.go), and the columns the consumer reads are appended, typed,
// to the key table (joinTable), which is chained once the build is done.
// The hash also routes every row to a partition (partLedger); when the
// table outgrows MemoryBudget the largest partitions leave for temp files
// from Spill, take their probe rows with them, and are re-joined one at a
// time, one level down, after the in-memory probe. The probe hashes a batch's
// key vector, filters it through the Bloom filter, walks the chains
// comparing hash then key, and gathers the matching (probe row, build
// row) pairs column by column into output batches — inline when there is
// one probe chain, under a Gather exchange when the planner supplied
// several.
type PartitionedHashJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	// Left and Right are the single-stream inputs. When the planner has
	// partitioned chains (parallel scans) it sets LeftParts/RightParts
	// instead and Left/Right may be nil.
	Left, Right           Operator
	LeftParts, RightParts []Operator
	// LeftWidth is the column count of the left input's rows; set, it lets
	// column pruning pass through the join (see pruneJoinInputs).
	LeftWidth int
	// BuildLeft selects the left side as the build (hashed) side; the
	// planner picks the smaller estimated input. Output rows are always
	// the left row's values followed by the right row's.
	BuildLeft bool
	// Partitions is the hash fan-out (default SpillPartitions).
	Partitions int
	// MemoryBudget caps the bytes of build rows held in memory; 0 means
	// unlimited. Exceeding it spills partitions through Spill.
	MemoryBudget int64
	// Spill creates temp files for spilled partitions. Required only when
	// MemoryBudget can be exceeded.
	Spill SpillStore
	// Level is the recursion depth (seeds the partition hash so re-spilled
	// rows redistribute); zero for planner-built joins.
	Level int
	// Bloom builds a blocked Bloom filter over the build-side keys and
	// drops probe rows with no possible match before they are routed — and
	// in particular before they are spilled. The planner disables it when
	// statistics say nearly every probe row matches.
	Bloom bool
	// BuildRowsEstimate sizes the Bloom filter (the planner's post-filter
	// build-side cardinality estimate; 0 uses a default size).
	BuildRowsEstimate int64
	// PrePartition marks the first N partitions as spilled before the
	// build side is drained: when statistics already say the build side
	// exceeds MemoryBudget, routing those rows straight to disk avoids
	// buffering them and evicting mid-build. Requires Spill.
	PrePartition int

	needed     []bool // output columns the consumer reads; nil = all
	ctx        *Context
	sink       obs.Sink
	bloom      *BlockedBloom
	table      joinTable
	ledger     partLedger
	buildSpill []SpillFile
	probeSpill []SpillFile
	probe      Operator // the in-memory probe; nil once drained
	sub        *PartitionedHashJoin
	subBuild   SpillFile
	subProbe   SpillFile
	subIdx     int
	opened     bool
}

// PruneColumns makes the inputs produce, the table store and the output
// gather only the marked columns (plus keys).
func (j *PartitionedHashJoin) PruneColumns(needed []bool) {
	j.needed = needed
	pruneJoinInputs(needed, j.LeftWidth, j.LeftKeys, j.RightKeys, j.chains(true), j.chains(false))
}

// pruneJoinInputs forwards column pruning through an equi-join whose
// output is the left row followed by the right row: each side still has
// to produce the needed output columns that come from it, plus its own
// key columns. A join built without leftWidth prunes nothing.
func pruneJoinInputs(needed []bool, leftWidth int, leftKeys, rightKeys []expr.Expr, left, right []Operator) {
	if leftWidth <= 0 || leftWidth > len(needed) {
		return
	}
	l := withExprColumns(needed[:leftWidth], leftKeys...)
	r := withExprColumns(needed[leftWidth:], rightKeys...)
	for _, op := range left {
		op.PruneColumns(l)
	}
	for _, op := range right {
		op.PruneColumns(r)
	}
}

// chains returns one side's input chains.
func (j *PartitionedHashJoin) chains(left bool) []Operator {
	parts, one := j.RightParts, j.Right
	if left {
		parts, one = j.LeftParts, j.Left
	}
	if len(parts) > 0 {
		return parts
	}
	return []Operator{one}
}

// side returns one side's key expressions and the output columns the
// consumer reads from it (nil = all).
func (j *PartitionedHashJoin) side(left bool) (keys []expr.Expr, out []bool) {
	pruned := j.needed != nil && j.LeftWidth > 0 && j.LeftWidth <= len(j.needed)
	switch {
	case !left && pruned:
		return j.RightKeys, j.needed[j.LeftWidth:]
	case !left:
		return j.RightKeys, nil
	case pruned:
		return j.LeftKeys, j.needed[:j.LeftWidth]
	}
	return j.LeftKeys, nil
}

// Open drains the build side into the hash table (spilling over-budget
// partitions) and opens the probe.
func (j *PartitionedHashJoin) Open(ctx *Context) error {
	j.ctx = ctx
	j.sink = ctx.Sink
	j.table = joinTable{}
	j.ledger = newPartLedger(j.Partitions, j.Level, j.MemoryBudget)
	j.buildSpill = make([]SpillFile, len(j.ledger.parts))
	j.probeSpill = make([]SpillFile, len(j.ledger.parts))
	j.probe = nil
	j.sub, j.subBuild, j.subProbe = nil, nil, nil
	j.subIdx = 0
	j.opened = true
	j.bloom = nil
	if j.Bloom {
		est := j.BuildRowsEstimate
		if est <= 0 {
			est = 1 << 16
		}
		j.bloom = NewBlockedBloom(est)
	}
	err := j.open(ctx)
	if err != nil {
		j.releaseSpills()
		j.table = joinTable{}
	}
	return err
}

func (j *PartitionedHashJoin) open(ctx *Context) error {
	if j.PrePartition > 0 && j.Spill != nil {
		for i := 0; i < j.PrePartition && i < len(j.buildSpill); i++ {
			f, err := j.Spill.Create()
			if err != nil {
				return err
			}
			j.buildSpill[i] = f
			j.markSpilled(i, 0)
		}
	}
	buildKeys, buildOut := j.side(j.BuildLeft)
	probeKeys, probeOut := j.side(!j.BuildLeft)

	in := gatherChains(j.chains(j.BuildLeft))
	if err := in.Open(ctx); err != nil {
		return err
	}
	err := j.drainBuild(in, buildKeys, buildOut)
	if cerr := in.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	j.table.link()

	// Spilled build partitions need their probe rows captured too.
	for i, pt := range j.ledger.parts {
		if !pt.out {
			continue
		}
		f, err := j.Spill.Create()
		if err != nil {
			return err
		}
		j.probeSpill[i] = f
	}
	var carry []bool
	if probeOut != nil {
		carry = withExprColumns(probeOut, probeKeys...)
	}
	probeChains := j.chains(!j.BuildLeft)
	workers := make([]Operator, len(probeChains))
	for i, ch := range probeChains {
		workers[i] = &phjProbe{
			j: j, child: ch, out: probeOut, carry: carry,
			keys: keyHasher{proj: expr.CompileProjection(probeKeys)},
		}
	}
	probe := gatherChains(workers)
	if err := probe.Open(ctx); err != nil {
		return err
	}
	j.probe = probe
	return nil
}

// markSpilled records that partition pt left memory with rows build rows.
func (j *PartitionedHashJoin) markSpilled(pt int, rows int64) {
	j.ledger.markOut(pt, true)
	j.sink.Add(obs.JoinSpilledPartitions, 1)
	j.sink.Add(obs.JoinSpilledBuildRows, rows)
}

// drainBuild pulls the build input a batch at a time, hashes the keys and
// appends the rows of in-memory partitions to the table; rows of spilled
// partitions go to their files. After each batch the ledger's victims are
// evicted until the table fits the budget again.
func (j *PartitionedHashJoin) drainBuild(in Operator, keys []expr.Expr, out []bool) error {
	t, l := &j.table, &j.ledger
	kh := keyHasher{proj: expr.CompileProjection(keys)}
	var carry []bool
	if out != nil {
		carry = withExprColumns(out, keys...)
	}
	var pts []int
	var row sqltypes.Row
	for {
		b, err := in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			return nil
		}
		rows, hashes, err := joinKeys(&kh, b)
		if err != nil {
			return err
		}
		if len(rows) == 0 {
			continue
		}
		j.sink.Add(obs.JoinBuildRows, int64(len(rows)))
		if t.keys == nil {
			t.init(len(b.Cols), keys, out)
		}
		n := 0
		pts = pts[:0]
		for k, r := range rows {
			h := hashes[k]
			if j.bloom != nil {
				j.bloom.Add(h)
			}
			pt := l.route(h)
			if l.parts[pt].out {
				if row, err = b.ReadRowCols(r, row, carry); err != nil {
					return err
				}
				if err := j.buildSpill[pt].Append(row); err != nil {
					return err
				}
				continue
			}
			rows[n], hashes[n] = r, h
			pts = append(pts, pt)
			n++
		}
		j.sink.Add(obs.JoinSpilledBuildRows, int64(len(rows)-n))
		base := len(t.hashes)
		if err := t.append(b, kh.cols, rows[:n], hashes[:n]); err != nil {
			return err
		}
		if j.MemoryBudget <= 0 {
			continue
		}
		for k, pt := range pts {
			l.charge(pt, t.rowBytes(base+k))
		}
		for v := l.victim(); v >= 0; v = l.victim() {
			if err := j.evict(v); err != nil {
				return err
			}
		}
	}
}

// evict moves the table's rows of one partition to a new spill file.
func (j *PartitionedHashJoin) evict(victim int) error {
	if j.Spill == nil {
		return fmt.Errorf("exec: join memory budget %d exceeded and no spill store configured", j.MemoryBudget)
	}
	f, err := j.Spill.Create()
	if err != nil {
		return err
	}
	j.buildSpill[victim] = f
	t := &j.table
	keep := make([]int, 0, len(t.hashes))
	var row sqltypes.Row
	for i, h := range t.hashes {
		if j.ledger.route(h) != victim {
			keep = append(keep, i)
			continue
		}
		if row, err = t.row(i, row); err != nil {
			return err
		}
		if err := f.Append(row); err != nil {
			return err
		}
	}
	j.markSpilled(victim, int64(len(t.hashes)-len(keep)))
	return t.compact(keep, t.cols)
}

// NextBatch returns joined batches: first the in-memory matches of the
// probe, then — once every probe row has been routed — the recursive
// joins of the spilled partitions, one partition at a time.
func (j *PartitionedHashJoin) NextBatch() (*vec.Batch, error) {
	for {
		if j.probe != nil {
			b, err := j.probe.NextBatch()
			if err != nil || b != nil {
				return b, err
			}
			err = j.probe.Close()
			j.probe = nil
			// The table is dead weight from here on: the spilled-partition
			// recursion re-reads both sides from disk, and each recursion
			// level builds its own budget-sized table. Freeing it keeps
			// resident build memory near one budget instead of one per
			// level.
			j.table = joinTable{}
			if err != nil {
				return nil, err
			}
		}
		if j.sub != nil {
			b, err := j.sub.NextBatch()
			if err != nil || b != nil {
				return b, err
			}
			if err := j.finishSub(); err != nil {
				return nil, err
			}
			continue
		}
		started, err := j.startNextSpilled()
		if err != nil || !started {
			return nil, err
		}
	}
}

// startNextSpilled opens the recursive join over the next non-empty
// spilled partition; returns false when none remain.
func (j *PartitionedHashJoin) startNextSpilled() (bool, error) {
	for j.subIdx < len(j.ledger.parts) {
		i := j.subIdx
		j.subIdx++
		if !j.ledger.parts[i].out {
			continue
		}
		bf, pf := j.buildSpill[i], j.probeSpill[i]
		j.buildSpill[i], j.probeSpill[i] = nil, nil
		// Spill volume is accounted when the partition's files retire:
		// every spilled partition passes through here exactly once (error
		// paths release without retiring, and never produce a profile).
		j.sink.Add(obs.JoinSpilledBytes, bf.Bytes()+pf.Bytes())
		if bf.Rows() == 0 || pf.Rows() == 0 {
			bf.Release()
			pf.Release()
			continue
		}
		j.sink.Add(obs.JoinSpillRecursions, 1)
		buildSrc := spillSource(bf)
		probeSrc := spillSource(pf)
		sub := &PartitionedHashJoin{
			LeftKeys:     j.LeftKeys,
			RightKeys:    j.RightKeys,
			LeftWidth:    j.LeftWidth,
			BuildLeft:    j.BuildLeft,
			Partitions:   j.Partitions,
			MemoryBudget: j.ledger.subBudget(),
			Spill:        j.Spill,
			Level:        j.Level + 1,
			needed:       j.needed,
		}
		if j.BuildLeft {
			sub.Left, sub.Right = buildSrc, probeSrc
		} else {
			sub.Left, sub.Right = probeSrc, buildSrc
		}
		if err := sub.Open(j.ctx); err != nil {
			bf.Release()
			pf.Release()
			return false, err
		}
		j.sub, j.subBuild, j.subProbe = sub, bf, pf
		return true, nil
	}
	return false, nil
}

// finishSub closes the current recursive join and frees its spill files.
func (j *PartitionedHashJoin) finishSub() error {
	err := j.sub.Close()
	if rerr := j.subBuild.Release(); err == nil {
		err = rerr
	}
	if rerr := j.subProbe.Release(); err == nil {
		err = rerr
	}
	j.sub, j.subBuild, j.subProbe = nil, nil, nil
	return err
}

// spillSource adapts a spill file into a re-openable scan operator.
func spillSource(f SpillFile) *Source {
	return &Source{Factory: func(ctx *Context) (RowIterator, error) { return f.Iter() }}
}

// releaseSpills frees every live spill file (error paths and Close).
func (j *PartitionedHashJoin) releaseSpills() {
	for i := range j.buildSpill {
		if j.buildSpill[i] != nil {
			j.buildSpill[i].Release()
			j.buildSpill[i] = nil
		}
		if j.probeSpill[i] != nil {
			j.probeSpill[i].Release()
			j.probeSpill[i] = nil
		}
	}
}

// Close stops the probe, releases spill files and frees the table.
func (j *PartitionedHashJoin) Close() error {
	if !j.opened {
		return nil
	}
	j.opened = false
	var err error
	if j.probe != nil {
		err = j.probe.Close()
		j.probe = nil
	}
	if j.sub != nil {
		if serr := j.finishSub(); err == nil {
			err = serr
		}
	}
	j.releaseSpills()
	j.table = joinTable{}
	j.bloom = nil
	return err
}

// joinKeys evaluates the join keys of b, drops the selected rows whose key
// holds a NULL (they never join) and hashes the rest: hashes[k] belongs to
// physical row rows[k]. rows reuses b.Sel.
func joinKeys(kh *keyHasher, b *vec.Batch) (rows []int, hashes []uint64, err error) {
	if err := kh.eval(b); err != nil {
		return nil, nil, err
	}
	rows = dropNullKeys(kh.cols, b.Sel)
	hashes, err = kh.hash(rows)
	return rows, hashes, err
}

// dropNullKeys keeps, in place, the rows whose key holds no NULL: a NULL
// key never joins.
func dropNullKeys(keys []*vec.Vector, rows []int) []int {
	for _, c := range keys {
		if c.Nulls == nil {
			continue
		}
		n := 0
		for _, r := range rows {
			if c.IsNull(r) {
				continue
			}
			rows[n] = r
			n++
		}
		rows = rows[:n]
	}
	return rows
}

// joinTable is the build side held in memory: the key table plus the
// stored build columns. It is linked once, after the build, so every chain
// runs in insertion order.
type joinTable struct {
	keyTable
	width   int           // columns of a build-side row
	keyCols []int         // the build column a key is a plain reference to, or -1
	cols    []*vec.Vector // the stored build columns...
	colIdx  []int         // ...and which build column each one holds
}

// init sizes the table for build rows of the given width. Stored are the
// columns the consumer reads (out; nil = all) and those a computed key
// expression reads; a key that is a plain column reference is rebuilt
// from keys when a row has to be written out.
func (t *joinTable) init(width int, keys []expr.Expr, out []bool) {
	t.keyTable = newKeyTable(len(keys))
	t.width = width
	t.keyCols = make([]int, len(keys))
	stored := make([]bool, width)
	for c := range stored {
		stored[c] = out == nil || (c < len(out) && out[c])
	}
	for i, k := range keys {
		t.keyCols[i] = -1
		if c, ok := k.(*expr.Col); ok && c.Idx < width {
			t.keyCols[i] = c.Idx
		} else {
			expr.MarkCols(k, stored)
		}
	}
	for c, s := range stored {
		if s {
			t.cols = append(t.cols, &vec.Vector{})
			t.colIdx = append(t.colIdx, c)
		}
	}
}

// append adds rows of batch b, whose key columns and hashes are given.
func (t *joinTable) append(b *vec.Batch, keys []*vec.Vector, rows []int, hashes []uint64) error {
	if err := t.add(keys, rows, hashes); err != nil {
		return err
	}
	for i, c := range t.colIdx {
		if err := t.cols[i].AppendRows(b.Cols[c], rows); err != nil {
			return err
		}
	}
	return nil
}

// rowBytes approximates the memory row i retains: its cells, its hash, its
// chain link and two head slots.
func (t *joinTable) rowBytes(i int) int64 {
	return t.entryBytes(i, 2) + vectorRowBytes(t.cols, i)
}

// row rebuilds build row i as far as the table holds it; the other cells
// are NULL, as they were when the pruned input delivered them.
func (t *joinTable) row(i int, dst sqltypes.Row) (sqltypes.Row, error) {
	if cap(dst) < t.width {
		dst = make(sqltypes.Row, t.width)
	}
	dst = dst[:t.width]
	for c := range dst {
		dst[c] = sqltypes.Null
	}
	var err error
	for k, c := range t.keyCols {
		if c >= 0 {
			if dst[c], err = t.keys[k].Value(i); err != nil {
				return nil, err
			}
		}
	}
	for k, c := range t.colIdx {
		if dst[c], err = t.cols[k].Value(i); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// phjProbe is one probe worker: it pulls batches from its chain, matches
// the rows whose partition is in memory against the table (read-only by
// now, so workers share it without locks) and writes the rows of spilled
// partitions to the partition's probe file (SpillFile.Append is
// concurrency-safe). Counters are added once per batch.
type phjProbe struct {
	j     *PartitionedHashJoin
	child Operator
	keys  keyHasher
	out   []bool // probe columns the consumer reads; nil = all
	carry []bool // out plus the key columns: what a spilled row keeps

	b      *vec.Batch // the batch being probed; nil = pull the next one
	rows   []int      // its rows still to match, with their hashes
	hashes []uint64
	pos    int   // next of rows to probe
	chain  int32 // where in its chain rows[pos] resumes
	err    error // a key comparison failed

	probeIdx, buildIdx []int // the matched pairs of the batch being built
	row                sqltypes.Row
	keyBuf             [2][]byte
}

// Open opens the worker's probe chain.
func (w *phjProbe) Open(ctx *Context) error {
	w.b = nil
	return w.child.Open(ctx)
}

// NextBatch produces the worker's next batch of joined rows: at most
// vec.DefaultBatchSize, so a probe row with many matches may continue in
// the following batch.
func (w *phjProbe) NextBatch() (*vec.Batch, error) {
	if w.probeIdx == nil {
		w.probeIdx = make([]int, 0, vec.DefaultBatchSize)
		w.buildIdx = make([]int, 0, vec.DefaultBatchSize)
	}
	for {
		if w.b == nil {
			if err := w.load(); err != nil || w.b == nil {
				return nil, err
			}
		}
		w.match()
		if w.err != nil {
			return nil, w.err
		}
		b := w.b
		if w.pos >= len(w.rows) {
			w.b = nil
		}
		if len(w.probeIdx) > 0 {
			return w.emit(b)
		}
	}
}

// load pulls probe batches until one has rows to match: it hashes the
// keys, drops what the Bloom filter rules out and sets aside the rows of
// spilled partitions. The Bloom check runs before any routing: a dropped
// row is never spilled. Counters are written once per batch.
func (w *phjProbe) load() error {
	j := w.j
	l := &j.ledger
	for {
		b, err := w.child.NextBatch()
		if err != nil || b == nil {
			return err
		}
		rows, hashes, err := joinKeys(&w.keys, b)
		if err != nil {
			return err
		}
		n := 0
		for k, r := range rows {
			h := hashes[k]
			if j.bloom != nil && !j.bloom.MayContain(h) {
				continue
			}
			rows[n], hashes[n] = r, h
			n++
		}
		j.sink.Add(obs.JoinProbeRows, int64(len(rows)))
		if j.bloom != nil {
			j.sink.Add(obs.JoinBloomChecks, int64(len(rows)))
			j.sink.Add(obs.JoinBloomDrops, int64(len(rows)-n))
		}
		rows, hashes = rows[:n], hashes[:n]
		if l.nOut > 0 {
			n = 0
			for k, r := range rows {
				pt := l.route(hashes[k])
				if !l.parts[pt].out {
					rows[n], hashes[n] = r, hashes[k]
					n++
					continue
				}
				if w.row, err = b.ReadRowCols(r, w.row, w.carry); err != nil {
					return err
				}
				if err := j.probeSpill[pt].Append(w.row); err != nil {
					return err
				}
			}
			j.sink.Add(obs.JoinSpilledProbeRows, int64(len(rows)-n))
			rows, hashes = rows[:n], hashes[:n]
		}
		if len(rows) > 0 && len(j.table.hashes) > 0 {
			w.b, w.rows, w.hashes, w.pos, w.chain = b, rows, hashes, 0, chainStart
			return nil
		}
	}
}

// match walks the chains of the current batch's rows from where the last
// call stopped, collecting (probe row, build row) pairs until the rows or
// the output batch run out.
func (w *phjProbe) match() {
	t := &w.j.table
	pi, bi := w.probeIdx[:0], w.buildIdx[:0]
	e := w.chain
	// The common join — one key, INT on both sides — compares inline.
	var pInts, bInts []int64
	if len(t.keys) == 1 {
		pInts, bInts = w.keys.cols[0].Ints, t.keys[0].Ints
	}
	intKey := pInts != nil && bInts != nil
scan:
	for ; w.pos < len(w.rows) && w.err == nil; w.pos++ {
		r, h := w.rows[w.pos], w.hashes[w.pos]
		if e == chainStart {
			e = t.heads[h&t.mask]
		}
		for ; e >= 0; e = t.next[e] {
			if intKey {
				if t.hashes[e] != h || pInts[r] != bInts[e] {
					continue
				}
			} else if e, w.err = t.find(e, h, w.keys.cols, r, &w.keyBuf); e < 0 {
				break
			}
			if len(pi) == cap(pi) {
				break scan // batch full: this pair opens the next one
			}
			pi, bi = append(pi, r), append(bi, int(e))
		}
		e = chainStart
	}
	w.chain = e
	w.probeIdx, w.buildIdx = pi, bi
}

// emit gathers the matched pairs into an output batch: the left input's
// columns, then the right's; columns nobody reads are NullColumn.
func (w *phjProbe) emit(b *vec.Batch) (*vec.Batch, error) {
	t := &w.j.table
	cols := make([]*vec.Vector, len(b.Cols)+t.width)
	for i := range cols {
		cols[i] = NullColumn
	}
	probeAt, buildAt := 0, len(b.Cols)
	if w.j.BuildLeft {
		probeAt, buildAt = t.width, 0
	}
	var err error
	for c, v := range b.Cols {
		if w.out == nil || (c < len(w.out) && w.out[c]) {
			if cols[probeAt+c], err = v.Gather(w.probeIdx); err != nil {
				return nil, err
			}
		}
	}
	for i, c := range t.colIdx {
		if cols[buildAt+c], err = t.cols[i].Gather(w.buildIdx); err != nil {
			return nil, err
		}
	}
	return vec.NewBatch(cols, len(w.probeIdx)), nil
}

// PruneColumns does nothing: the join has already asked its chains.
func (w *phjProbe) PruneColumns([]bool) {}

// Close closes the probe chain.
func (w *phjProbe) Close() error { return w.child.Close() }
