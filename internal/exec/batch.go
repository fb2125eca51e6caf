package exec

import (
	"sync"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The contract every operator implements and every operator consumes.
//
// Stream. Open, then NextBatch until it returns (nil, nil) — the end of the
// stream — or an error, then Close. Close is called once after a successful
// Open, on every path, and is harmless when repeated. An Open that fails
// leaves nothing open: the operator closes what it had opened and is not
// closed again by its caller.
//
// Ownership. A returned batch belongs to the caller: the producer never
// touches it again, so it may be kept, changed in place and handed to
// another goroutine (the Gather exchange sends batches, never copies). A
// vector, though, may be shared with other batches — a projected column is
// its input's vector, a pruned column is NullColumn — so consumers change a
// batch's Sel and its Cols slice, never a vector's cells. Nor does anyone
// else: once a vector holds its arrays, neither its producer nor a kept
// page form it is a header over writes them (vec.Vector), so a value
// boxed from a text cell may alias the vector's bytes for as long as it
// is held.
//
// Selection. Sel lists the live physical rows in ascending order. Filters
// and limits shrink it in place; operators walk Sel, never 0..n, and a
// vector's entries outside Sel are unspecified. A batch may reach a consumer
// with an empty Sel.
//
// Pruning. Before Open, a consumer may say which of the operator's output
// columns it reads (PruneColumns; never called, or nil, means all). The
// operator adds the columns its own expressions read and passes the call
// down. Unmarked columns may arrive as NullColumn; a lazily decoded scan
// column simply stays encoded, which is why the heap and index scans ignore
// the call (a table-valued function, and a clustered scan gathering leaves
// into one batch, fill only the marked columns).
//
// Rows. An operator may work a row at a time inside — read the rows it
// keeps off its child's batches, emit them through a rowPacker — but rows
// never cross an operator boundary.
type Operator interface {
	Open(ctx *Context) error
	NextBatch() (*vec.Batch, error)
	PruneColumns(needed []bool)
	Close() error
}

// rowPacker is the one rows-to-batches adapter: a Source packs its
// iterator's rows with it, a row-internal operator the rows it emits. It
// remembers the end of the stream, so the row function is not called again
// after its last row.
type rowPacker struct {
	needed []bool // output columns the consumer reads; nil = all
	done   bool
	last   int // rows in the previous batch, or the expected first: the next one's starting capacity
}

func (p *rowPacker) reset() { p.done, p.last = false, 0 }

// next builds one batch of up to vec.DefaultBatchSize rows, copying only
// the needed columns; the others are NullColumn. Batches outlive the row
// they were read from, so byte values are copied out of it.
func (p *rowPacker) next(next func() (sqltypes.Row, bool, error)) (*vec.Batch, error) {
	var cols []*vec.Vector
	n := 0
	for n < vec.DefaultBatchSize && !p.done {
		row, ok, err := next()
		if err != nil {
			return nil, err
		}
		if !ok {
			p.done = true
			break
		}
		if cols == nil {
			cols = make([]*vec.Vector, len(row))
			for i := range cols {
				if Reads(p.needed, i) {
					cols[i] = vec.NewVector(sqltypes.KindNull, max(p.last, 8))
				} else {
					cols[i] = NullColumn
				}
			}
		}
		for i, v := range row {
			if cols[i] == NullColumn {
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

// RowCursor is the one batches-to-rows adapter: it reads the batches of an
// opened operator a row at a time. Run and Drain use it at the result
// boundary, as do the side scans of a table-valued function's lookup and
// the engine's ScanTableNoLock. The returned row is reused by the next
// call.
type RowCursor struct {
	Op Operator

	b   *vec.Batch
	pos int
	row sqltypes.Row
}

// Next returns the operator's next selected row.
func (c *RowCursor) Next() (sqltypes.Row, bool, error) {
	for c.b == nil || c.pos >= c.b.Len() {
		b, err := c.Op.NextBatch()
		if err != nil || b == nil {
			return nil, false, err
		}
		c.b, c.pos = b, 0
	}
	s := c.b.Sel[c.pos]
	c.pos++
	row, err := c.b.ReadRow(s, c.row)
	if err != nil {
		return nil, false, err
	}
	c.row = row
	return row, true, nil
}

// gatherChains presents one side's chains as a single stream: the chain
// itself when there is one, an unordered exchange over several.
func gatherChains(chains []Operator) Operator {
	if len(chains) == 1 {
		return chains[0]
	}
	return &Gather{Children: chains}
}

// withExprColumns returns needed with the columns the expressions read
// marked as well; nil (all columns) stays nil.
func withExprColumns(needed []bool, exprs ...expr.Expr) []bool {
	if needed == nil {
		return nil
	}
	mark := make([]bool, len(needed))
	copy(mark, needed)
	for _, e := range exprs {
		expr.MarkCols(e, mark)
	}
	return mark
}

// Reads reports whether a consumer that marked needed (PruneColumns; nil =
// all) reads column c.
func Reads(needed []bool, c int) bool { return needed == nil || (c < len(needed) && needed[c]) }

// NullColumn stands in for every column of a batch that its consumer has
// said it will not read (PruneColumns). It is shared and never written.
var NullColumn = func() *vec.Vector {
	v := &vec.Vector{Kind: sqltypes.KindNull, Vals: make([]sqltypes.Value, vec.DefaultBatchSize)}
	for i := range v.Vals {
		v.SetNull(i)
	}
	return v
}()

// Filter drops rows whose predicate is not TRUE (three-valued logic: NULL
// fails the filter) by shrinking each batch's selection vector in place —
// no rows are copied, and on dictionary-encoded columns the predicate is
// evaluated once per distinct value rather than once per row. Constant
// conjuncts left behind by predicate pushdown are folded once at Open.
type Filter struct {
	Pred  expr.Expr
	Child Operator

	eval  *expr.FilterEval
	pass  bool // constant-TRUE predicate: pass batches through
	empty bool // constant non-TRUE predicate: empty stream
}

// Open folds constant predicates and compiles the rest.
func (f *Filter) Open(ctx *Context) error {
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
func (f *Filter) NextBatch() (*vec.Batch, error) {
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

// PruneColumns asks the child for the marked columns and the predicate's.
func (f *Filter) PruneColumns(needed []bool) {
	f.Child.PruneColumns(withExprColumns(needed, f.Pred))
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes output expressions batch-at-a-time: column references
// pass their input vector through unchanged (preserving dictionary
// encoding), other expressions evaluate over selected rows only.
type Project struct {
	Exprs []expr.Expr
	Child Operator
	// InputWidth is the column count of the child's rows; set, it lets
	// column pruning pass through the projection (as LeftWidth does for a
	// join).
	InputWidth int

	proj *expr.Projection
}

// Open compiles the projection.
func (p *Project) Open(ctx *Context) error {
	p.proj = expr.CompileProjection(p.Exprs)
	return p.Child.Open(ctx)
}

// NextBatch projects the next batch.
func (p *Project) NextBatch() (*vec.Batch, error) {
	b, err := p.Child.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	cols, err := p.proj.Eval(b)
	if err != nil {
		return nil, err
	}
	b.Cols = cols // the batch is ours: its selection, the projected columns
	return b, nil
}

// PruneColumns asks the child for the columns the marked expressions read.
// This is where pruning starts for a statement: the result boundary reads
// every output column, and the projection knows what that takes.
func (p *Project) PruneColumns(needed []bool) {
	if p.InputWidth <= 0 {
		return
	}
	mark := make([]bool, p.InputWidth)
	for i, e := range p.Exprs {
		if Reads(needed, i) {
			expr.MarkCols(e, mark)
		}
	}
	p.Child.PruneColumns(mark)
}

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }

// Limit stops after N selected rows (TOP n), truncating the final batch's
// selection vector.
type Limit struct {
	N     int64
	Child Operator

	seen int64
}

// Open opens the child.
func (l *Limit) Open(ctx *Context) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// NextBatch forwards batches until N rows have been emitted.
func (l *Limit) NextBatch() (*vec.Batch, error) {
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

// PruneColumns passes the call down.
func (l *Limit) PruneColumns(needed []bool) { l.Child.PruneColumns(needed) }

// Close closes the child.
func (l *Limit) Close() error { return l.Child.Close() }

// Gather is the exchange operator that merges partitioned parallel streams
// — "Gather Streams" in the paper's Figure 9/10 plans. Each child runs in
// its own goroutine. Because batches are caller-owned, nothing is cloned on
// the channel — one send moves up to a full page of rows. Unordered,
// batches arrive as produced; Ordered, the children are drained in index
// order (range-partitioned clustered scans and merge joins: the ranges are
// contiguous, so key order survives), all of them still producing
// concurrently into their own bounded buffers.
type Gather struct {
	Children []Operator
	Ordered  bool

	out      []chan gatherMsg // one per child when Ordered, else one shared
	current  int              // the channel being drained
	done     chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	closeErr error // the first error a child's Close returned
}

type gatherMsg struct {
	b   *vec.Batch
	err error
}

// gatherBuffer is sized in batches, not rows: a handful of in-flight
// pages per exchange keeps producers busy without buffering the table.
const gatherBuffer = 8

// Open starts one producer goroutine per child.
func (g *Gather) Open(ctx *Context) error {
	g.done = make(chan struct{})
	g.current = 0
	g.closeErr = nil
	g.out = make([]chan gatherMsg, 1)
	if g.Ordered {
		g.out = make([]chan gatherMsg, len(g.Children))
	}
	for i := range g.out {
		g.out[i] = make(chan gatherMsg, gatherBuffer)
	}
	for i, child := range g.Children {
		out := g.out[0]
		if g.Ordered {
			out = g.out[i]
		}
		g.wg.Add(1)
		go func(child Operator) {
			defer g.wg.Done()
			if g.Ordered {
				defer close(out) // its only sender
			}
			if err := child.Open(ctx); err != nil {
				g.send(out, gatherMsg{err: err})
				return
			}
			defer g.closeChild(child)
			for {
				b, err := child.NextBatch()
				if err != nil {
					g.send(out, gatherMsg{err: err})
					return
				}
				if b == nil {
					return
				}
				if !g.send(out, gatherMsg{b: b}) {
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

// closeChild closes a producer's child, keeping the first Close error for
// Gather.Close.
func (g *Gather) closeChild(child Operator) {
	err := child.Close()
	g.mu.Lock()
	if g.closeErr == nil {
		g.closeErr = err
	}
	g.mu.Unlock()
}

func (g *Gather) send(out chan gatherMsg, msg gatherMsg) bool {
	select {
	case out <- msg:
		return true
	case <-g.done:
		return false
	}
}

// NextBatch returns the next gathered batch.
func (g *Gather) NextBatch() (*vec.Batch, error) {
	for g.current < len(g.out) {
		msg, ok := <-g.out[g.current]
		if ok {
			return msg.b, msg.err
		}
		g.current++
	}
	return nil, nil
}

// PruneColumns passes the call to every child.
func (g *Gather) PruneColumns(needed []bool) {
	for _, c := range g.Children {
		c.PruneColumns(needed)
	}
}

// Close stops producers, waits for them and returns the first error their
// children's Close returned.
func (g *Gather) Close() error {
	if g.done == nil {
		return nil // never opened
	}
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
	return g.closeErr
}

// TopN keeps the first N rows under the sort order; a fused Sort+Limit
// that never holds more than 2N rows. Once N rows are buffered, a row
// whose key cells are >= the current Nth row's is rejected before the rest
// of it is boxed — stable top-N keeps the earliest row among equals, so a
// later row with an equal key can never displace a kept one.
type TopN struct {
	N     int64
	Keys  []SortKey
	Child Operator

	kept runSorter
	rest SliceIterator // the kept rows, once Open trimmed them, still to emit
	out  rowPacker
}

// Open drains the child keeping the N smallest rows. TOP 0 short-circuits
// without opening the child: it can produce no rows, so there is nothing
// to materialize (and a Sort or Gather child would otherwise do its full
// work during Open).
func (t *TopN) Open(ctx *Context) error {
	t.kept, t.rest = runSorter{}, SliceIterator{}
	t.out.reset()
	if t.N <= 0 {
		return nil
	}
	// Room for the 2N rows kept between trims, up to a batch's worth.
	n := int(min(2*t.N, vec.DefaultBatchSize))
	t.kept = runSorter{rows: make([]sqltypes.Row, 0, n), seqs: make([]int32, 0, n), by: t.Keys}
	if err := t.Child.Open(ctx); err != nil {
		return err
	}
	defer t.Child.Close()
	read := withKeyColumns(t.out.needed, t.Keys) // a kept row keeps its keys for the trims
	var bound sqltypes.Row
	for {
		b, err := t.Child.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		for _, s := range b.Sel {
			if bound != nil {
				c, err := compareKeyCells(b, s, bound, t.Keys)
				if err != nil {
					return err
				}
				if c >= 0 {
					continue
				}
			}
			row, err := b.ReadRowCols(s, nil, read)
			if err != nil {
				return err
			}
			t.kept.add(row)
			if int64(len(t.kept.rows)) >= 2*t.N {
				t.trim()
				bound = t.kept.rows[len(t.kept.rows)-1]
			}
		}
	}
	t.trim()
	t.rest = SliceIterator{Rows: t.kept.rows}
	return nil
}

// compareKeyCells orders physical row s of b against row at the key
// columns, boxing only s's key cells.
func compareKeyCells(b *vec.Batch, s int, row sqltypes.Row, by []SortKey) (int, error) {
	for _, k := range by {
		v, err := b.Cols[k.Col].Value(s)
		if err != nil {
			return 0, err
		}
		if c := k.order(v, row[k.Col]); c != 0 {
			return c, nil
		}
	}
	return 0, nil
}

// trim sorts the kept rows and keeps the first N.
func (t *TopN) trim() {
	t.kept.sort()
	if int64(len(t.kept.rows)) > t.N {
		t.kept.truncate(int(t.N))
	}
}

// NextBatch packs the kept rows.
func (t *TopN) NextBatch() (*vec.Batch, error) { return t.out.next(t.rest.Next) }

// PruneColumns emits only the marked columns, and asks the child for them
// and the keys'.
func (t *TopN) PruneColumns(needed []bool) {
	t.out.needed = needed
	t.Child.PruneColumns(withKeyColumns(needed, t.Keys))
}

// Close releases buffers.
func (t *TopN) Close() error {
	t.kept, t.rest = runSorter{}, SliceIterator{}
	return nil
}
