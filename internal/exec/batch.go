package exec

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// BatchOperator is an Operator that can also deliver its stream as
// columnar batches. NextBatch returns (nil, nil) at end of stream;
// returned batches are freshly allocated and owned by the caller (unlike
// Next rows, they are safe to retain and to hand across goroutines).
// Every batch operator also implements the row interface, so the row
// consumers (grouped aggregates, sorts, merge joins) pull from vectorized
// subtrees directly.
type BatchOperator interface {
	Operator
	NextBatch() (*vec.Batch, error)
}

// BatchIterator is a batch stream produced by a Source factory (table
// scans), mirroring RowIterator.
type BatchIterator interface {
	NextBatch() (*vec.Batch, error)
	Close() error
}

// NextBatch makes Source a BatchOperator: native when the factory's
// iterator implements BatchIterator, otherwise rows are packed into
// generic batches.
func (s *Source) NextBatch() (*vec.Batch, error) {
	if bi, ok := s.it.(BatchIterator); ok {
		return bi.NextBatch()
	}
	return s.pack.next(s.it.Next)
}

// rowPacker turns a row stream into generic batches. It remembers the end
// of the stream: a row iterator need not survive a Next after its last.
type rowPacker struct {
	// mark, when set, marks the columns the consumer reads in a slice as
	// wide as the rows; the others are not copied. nil copies every column.
	mark   func(cols []bool)
	needed []bool
	done   bool
	last   int // rows in the previous batch: the next one's starting capacity
}

// next builds one batch of up to vec.DefaultBatchSize rows, copying only
// the marked columns; the others are nullColumn. Batches outlive the row
// they were read from, so byte values are copied out of it.
func (p *rowPacker) next(next func() (sqltypes.Row, bool, error)) (*vec.Batch, error) {
	const size = vec.DefaultBatchSize
	var cols []*vec.Vector
	n := 0
	for n < size && !p.done {
		row, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			p.done = true
			break
		}
		if cols == nil {
			if p.mark != nil && len(p.needed) != len(row) {
				p.needed = make([]bool, len(row))
				p.mark(p.needed)
			}
			cols = make([]*vec.Vector, len(row))
			for i := range cols {
				if p.mark == nil || p.needed[i] {
					cols[i] = vec.NewGenericVector(max(p.last, 64))
				} else {
					cols[i] = nullColumn
				}
			}
		}
		for i, v := range row {
			if cols[i] == nullColumn {
				continue
			}
			if v.K == sqltypes.KindBytes {
				v.B = append([]byte(nil), v.B...)
			}
			cols[i].Append(v)
		}
		n++
	}
	if n == 0 {
		return nil, nil
	}
	p.last = n
	return vec.NewBatch(cols, n), nil
}

// rowBatches lets a row-only operator (a merge join, a CROSS APPLY, the
// row engine's scans) feed a batch consumer: its rows are packed into
// generic batches holding the columns the consumer marks.
type rowBatches struct {
	Operator
	mark func(cols []bool)
	pack rowPacker
}

func (r *rowBatches) Open(ctx *Context) error {
	r.pack = rowPacker{mark: r.mark}
	return r.Operator.Open(ctx)
}

func (r *rowBatches) NextBatch() (*vec.Batch, error) { return r.pack.next(r.Next) }

// batchInput presents one side's chains as a single batch stream: the
// chain itself when there is one, an unordered exchange over several.
// mark names the columns the consumer reads, for the chains that have to
// be packed from rows; nil means all.
func batchInput(chains []Operator, mark func(cols []bool)) BatchOperator {
	ops := make([]BatchOperator, len(chains))
	for i, ch := range chains {
		if bo, ok := ch.(BatchOperator); ok {
			ops[i] = bo
		} else {
			ops[i] = &rowBatches{Operator: ch, mark: mark}
		}
	}
	if len(ops) == 1 {
		return ops[0]
	}
	return &VecGather{Children: ops}
}

// nullColumn stands in for every column of a batch that its consumer has
// said it will not read (ColumnPruner). It is shared and never written.
var nullColumn = func() *vec.Vector {
	v := &vec.Vector{Kind: sqltypes.KindNull, Vals: make([]sqltypes.Value, vec.DefaultBatchSize)}
	for i := range v.Vals {
		v.SetNull(i)
	}
	return v
}()

// ColumnPruner is implemented by batch operators whose row interface
// can skip materializing columns the consumer never reads. PruneColumns
// promises that rows served through Next will only have the marked
// columns inspected; unmarked cells come back NULL without being
// decoded. Predicate and projection evaluation inside the operator is
// unaffected — it runs on the batch vectors before rows are built.
type ColumnPruner interface {
	PruneColumns(needed []bool)
}

// batchToRow is the embeddable batch-to-row cursor every batch operator
// uses to serve its row interface. When needed is non-nil, only the
// marked columns are materialized.
type batchToRow struct {
	b      *vec.Batch
	pos    int
	row    sqltypes.Row
	needed []bool
}

func (c *batchToRow) reset() { c.b, c.pos = nil, 0 }

func (c *batchToRow) next(src func() (*vec.Batch, error)) (sqltypes.Row, bool, error) {
	for c.b == nil || c.pos >= c.b.Len() {
		b, err := src()
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		c.b, c.pos = b, 0
	}
	s := c.b.Sel[c.pos]
	c.pos++
	row, err := c.b.ReadRowCols(s, c.row, c.needed)
	if err != nil {
		return nil, false, err
	}
	c.row = row
	return row, true, nil
}

// VecFilter drops rows whose predicate is not TRUE by shrinking each
// batch's selection vector in place — no rows are copied, and on
// dictionary-encoded columns the predicate is evaluated once per
// distinct value rather than once per row.
type VecFilter struct {
	Pred  expr.Expr
	Child BatchOperator

	eval  *expr.FilterEval
	pass  bool // constant-TRUE predicate: pass batches through
	empty bool // constant non-TRUE predicate: empty stream
	cur   batchToRow
}

// Open folds constant predicates and compiles the rest.
func (f *VecFilter) Open(ctx *Context) error {
	f.cur.reset()
	f.eval, f.pass, f.empty = nil, false, false
	p := expr.FoldConstants(f.Pred)
	if lit, ok := p.(*expr.Lit); ok {
		if expr.Truthy(lit.V) {
			f.pass = true
		} else {
			f.empty = true
		}
	} else {
		f.eval = expr.CompileFilter(p)
	}
	return f.Child.Open(ctx)
}

// NextBatch filters the next non-empty batch.
func (f *VecFilter) NextBatch() (*vec.Batch, error) {
	if f.empty {
		return nil, nil
	}
	for {
		b, err := f.Child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if !f.pass {
			if err := f.eval.Apply(b); err != nil {
				return nil, err
			}
		}
		if b.Len() > 0 {
			return b, nil
		}
	}
}

// Next serves rows from filtered batches.
func (f *VecFilter) Next() (sqltypes.Row, bool, error) {
	return f.cur.next(f.NextBatch)
}

// Close closes the child.
func (f *VecFilter) Close() error { return f.Child.Close() }

// PruneColumns limits row materialization to the marked columns. The
// predicate still sees every column: it evaluates on the batch vectors,
// not on served rows.
func (f *VecFilter) PruneColumns(needed []bool) { f.cur.needed = needed }

// VecProject computes output expressions batch-at-a-time: column
// references pass their input vector through unchanged (preserving
// dictionary encoding), other expressions evaluate over selected rows
// only.
type VecProject struct {
	Exprs []expr.Expr
	Child BatchOperator

	proj *expr.Projection
	cur  batchToRow
}

// Open compiles the projection.
func (p *VecProject) Open(ctx *Context) error {
	p.cur.reset()
	folded := make([]expr.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		folded[i] = expr.FoldConstants(e)
	}
	p.proj = expr.CompileProjection(folded)
	return p.Child.Open(ctx)
}

// NextBatch projects the next batch.
func (p *VecProject) NextBatch() (*vec.Batch, error) {
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	cols, err := p.proj.Eval(b)
	if err != nil {
		return nil, err
	}
	return &vec.Batch{Cols: cols, Sel: b.Sel, Base: b.Base}, nil
}

// Next serves rows from projected batches.
func (p *VecProject) Next() (sqltypes.Row, bool, error) {
	return p.cur.next(p.NextBatch)
}

// Close closes the child.
func (p *VecProject) Close() error { return p.Child.Close() }

// PruneColumns limits row materialization to the marked output columns.
func (p *VecProject) PruneColumns(needed []bool) { p.cur.needed = needed }

// VecLimit stops after N selected rows, truncating the final batch's
// selection vector.
type VecLimit struct {
	N     int64
	Child BatchOperator

	seen int64
	cur  batchToRow
}

// Open opens the child.
func (l *VecLimit) Open(ctx *Context) error {
	l.cur.reset()
	l.seen = 0
	return l.Child.Open(ctx)
}

// NextBatch forwards batches until N rows have been emitted.
func (l *VecLimit) NextBatch() (*vec.Batch, error) {
	if l.seen >= l.N {
		return nil, nil
	}
	for {
		b, err := l.Child.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if rem := l.N - l.seen; int64(len(b.Sel)) > rem {
			b.Sel = b.Sel[:rem]
		}
		l.seen += int64(len(b.Sel))
		if b.Len() > 0 {
			return b, nil
		}
		if l.seen >= l.N {
			return nil, nil
		}
	}
}

// Next serves rows from limited batches.
func (l *VecLimit) Next() (sqltypes.Row, bool, error) {
	return l.cur.next(l.NextBatch)
}

// Close closes the child.
func (l *VecLimit) Close() error { return l.Child.Close() }

// PruneColumns limits row materialization to the marked columns.
func (l *VecLimit) PruneColumns(needed []bool) { l.cur.needed = needed }

// VecGather is the exchange for batch streams. Because batches are
// caller-owned (fresh allocations, never reused by the producer), no
// per-row cloning happens on the channel — one send moves up to a full
// page of rows. Unordered, batches arrive as produced; Ordered, the
// children are drained in index order (range-partitioned clustered scans:
// the ranges are contiguous, so key order survives), all of them still
// producing concurrently into their own bounded buffers.
type VecGather struct {
	Children []BatchOperator
	Ordered  bool

	out     []chan vecGatherMsg // one per child when Ordered, else one shared
	current int                 // the channel being drained
	done    chan struct{}
	wg      sync.WaitGroup
	cur     batchToRow
}

type vecGatherMsg struct {
	b   *vec.Batch
	err error
}

// vecGatherBuffer is sized in batches, not rows: a handful of in-flight
// pages per exchange keeps producers busy without buffering the table.
const vecGatherBuffer = 8

// Open starts one producer goroutine per child.
func (g *VecGather) Open(ctx *Context) error {
	g.cur.reset()
	g.done = make(chan struct{})
	g.current = 0
	g.out = make([]chan vecGatherMsg, 1)
	if g.Ordered {
		g.out = make([]chan vecGatherMsg, len(g.Children))
	}
	for i := range g.out {
		g.out[i] = make(chan vecGatherMsg, vecGatherBuffer)
	}
	for i, child := range g.Children {
		out := g.out[0]
		if g.Ordered {
			out = g.out[i]
		}
		g.wg.Add(1)
		go func(child BatchOperator) {
			defer g.wg.Done()
			if g.Ordered {
				defer close(out) // its only sender
			}
			if err := child.Open(ctx); err != nil {
				g.send(out, vecGatherMsg{err: err})
				return
			}
			defer child.Close()
			for {
				b, err := child.NextBatch()
				if err != nil {
					g.send(out, vecGatherMsg{err: err})
					return
				}
				if b == nil {
					return
				}
				if !g.send(out, vecGatherMsg{b: b}) {
					return // consumer gone
				}
			}
		}(child)
	}
	if !g.Ordered {
		go func() {
			g.wg.Wait()
			close(g.out[0])
		}()
	}
	return nil
}

func (g *VecGather) send(out chan vecGatherMsg, msg vecGatherMsg) bool {
	select {
	case out <- msg:
		return true
	case <-g.done:
		return false
	}
}

// NextBatch returns the next gathered batch.
func (g *VecGather) NextBatch() (*vec.Batch, error) {
	for g.current < len(g.out) {
		msg, ok := <-g.out[g.current]
		if ok {
			return msg.b, msg.err
		}
		g.current++
	}
	return nil, nil
}

// Next serves rows from gathered batches.
func (g *VecGather) Next() (sqltypes.Row, bool, error) {
	return g.cur.next(g.NextBatch)
}

// PruneColumns limits row materialization to the marked columns.
func (g *VecGather) PruneColumns(needed []bool) { g.cur.needed = needed }

// Close stops producers and waits for them.
func (g *VecGather) Close() error {
	select {
	case <-g.done:
	default:
		close(g.done)
	}
	// Drain so producers blocked on a send can observe done.
	for _, ch := range g.out {
		for range ch {
		}
	}
	g.wg.Wait()
	return nil
}

// VecTopN keeps the first N rows under the sort order from a batch
// child. Sort keys are evaluated as vectors (dictionary columns resolve
// each distinct key once), and once N rows are buffered, rows whose key
// is >= the current Nth key are rejected before being materialized —
// stable top-N keeps the earliest row among equals, so a later row with
// an equal key can never displace a kept one.
type VecTopN struct {
	N     int64
	Keys  []SortKey
	Child BatchOperator

	rows   []sqltypes.Row
	keys   []sqltypes.Row
	pos    int
	sorter rowSorter
}

// Open drains the child keeping the N smallest rows.
func (t *VecTopN) Open(ctx *Context) error {
	t.rows, t.keys, t.pos = nil, nil, 0
	if t.N <= 0 {
		return nil
	}
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	defer t.Child.Close()
	exprs := make([]expr.Expr, len(t.Keys))
	for i, k := range t.Keys {
		exprs[i] = k.Expr
	}
	keyProj := expr.CompileProjection(exprs)
	keyScratch := make(sqltypes.Row, len(t.Keys))
	var bound sqltypes.Row
	for {
		b, err := t.Child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		kcols, err := keyProj.Eval(b)
		if err != nil {
			return err
		}
		for _, s := range b.Sel {
			for i, kc := range kcols {
				kv, err := kc.Value(s)
				if err != nil {
					return err
				}
				keyScratch[i] = kv
			}
			if bound != nil && compareKeyRows(keyScratch, bound, t.Keys) >= 0 {
				continue
			}
			row, err := b.ReadRow(s, nil)
			if err != nil {
				return err
			}
			t.rows = append(t.rows, row)
			t.keys = append(t.keys, keyScratch.Clone())
			if int64(len(t.rows)) >= 2*t.N {
				t.trim()
				bound = t.keys[len(t.keys)-1]
			}
		}
	}
	t.trim()
	return nil
}

func (t *VecTopN) trim() {
	t.sorter.sortStable(t.rows, t.keys, t.Keys)
	if int64(len(t.rows)) > t.N {
		t.rows = t.rows[:t.N]
		t.keys = t.keys[:t.N]
	}
}

// Next emits the next kept row.
func (t *VecTopN) Next() (sqltypes.Row, bool, error) {
	if t.pos >= len(t.rows) {
		return nil, false, nil
	}
	r := t.rows[t.pos]
	t.pos++
	return r, true, nil
}

// Close releases buffers.
func (t *VecTopN) Close() error {
	t.rows, t.keys = nil, nil
	return nil
}
