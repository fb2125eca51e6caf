// Package exec implements the physical query operators of the engine as
// Volcano-style pull iterators — the same iterator contract the paper's
// table-valued functions plug into ("The API for providing TVFs follows
// the standard iterator interface of a relational query engine", Section
// 4.1). It includes the parallel operators (gather exchange, parallel hash
// aggregation, partitioned merge join) that reproduce the paper's
// "parallelism for free" results (Figures 8-10).
package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// Context carries per-query execution state.
type Context struct {
	// DOP is the degree of parallelism granted to parallel operators.
	DOP int
	// Stats, when non-nil, accumulates operator counters (join, sort and
	// aggregate spill activity) for the engine's monitoring surface.
	Stats *ExecStats
	// Snapshot is the engine's opaque MVCC visibility token. The session
	// layer sets it when a statement runs under snapshot isolation; scan
	// factories type-assert it back to filter row versions. Operators
	// must thread the same Context down to their sources. nil means
	// "latest committed" (recovery, TVF side scans).
	Snapshot any
	// Prof, when non-nil, is the profile of the nearest enclosing
	// instrumented plan operator. Instrument wrappers set it on the
	// Context they pass to their child, so spill/Bloom/pool activity
	// deep inside an operator subtree attributes to the right plan node.
	// All obs.OpProfile methods are nil-safe; tee sites use profFrom.
	Prof *obs.OpProfile
}

// Operator is a Volcano iterator: Open, a stream of Next calls, Close.
type Operator interface {
	Open(ctx *Context) error
	// Next returns the next row. ok=false signals the end of the stream.
	// Returned rows may be reused by the operator on subsequent calls;
	// callers that retain rows must Clone them.
	Next() (row sqltypes.Row, ok bool, err error)
	Close() error
}

// RowIterator is a minimal row stream used by Source factories (table
// scans, TVFs) so that storage-facing code does not depend on Operator.
type RowIterator interface {
	Next() (sqltypes.Row, bool, error)
	Close() error
}

// Source adapts a RowIterator factory into an Operator. The factory runs
// at Open time, so sources are re-openable.
type Source struct {
	Label   string
	Factory func(ctx *Context) (RowIterator, error)

	it RowIterator
	// pruned is it as a batch stream when PruneColumns was called and it
	// can deliver batches; Next then serves rows through cur.
	pruned BatchIterator
	cur    batchToRow
	pack   rowPacker // NextBatch over an iterator without batches
}

// Open creates the underlying iterator.
func (s *Source) Open(ctx *Context) error {
	it, err := s.Factory(ctx)
	if err != nil {
		return err
	}
	s.it = it
	s.cur.reset()
	s.pack = rowPacker{}
	s.pruned = nil
	if needed := s.cur.needed; needed != nil {
		s.pruned, _ = it.(BatchIterator)
		s.pack.mark = func(cols []bool) { copy(cols, needed) }
	}
	return nil
}

// Next pulls from the iterator. A pruned source whose iterator can
// deliver batches serves its rows from them instead, so the columns the
// consumer never reads are never decoded.
func (s *Source) Next() (sqltypes.Row, bool, error) {
	if s.pruned != nil {
		return s.cur.next(s.pruned.NextBatch)
	}
	return s.it.Next()
}

// PruneColumns limits row materialization to the marked columns. Like
// every ColumnPruner it is called before Open.
func (s *Source) PruneColumns(needed []bool) { s.cur.needed = needed }

// Close releases the iterator.
func (s *Source) Close() error {
	if s.it == nil {
		return nil
	}
	err := s.it.Close()
	s.it = nil
	return err
}

// SliceIterator serves rows from memory; used for VALUES lists, tests, and
// materialized intermediates.
type SliceIterator struct {
	Rows []sqltypes.Row
	pos  int
}

// Next returns the next slice element.
func (s *SliceIterator) Next() (sqltypes.Row, bool, error) {
	if s.pos >= len(s.Rows) {
		return nil, false, nil
	}
	r := s.Rows[s.pos]
	s.pos++
	return r, true, nil
}

// Close is a no-op.
func (s *SliceIterator) Close() error { return nil }

// NewValues returns an operator yielding the given rows.
func NewValues(rows []sqltypes.Row) *Source {
	return &Source{
		Label: "Constant Scan",
		Factory: func(*Context) (RowIterator, error) {
			return &SliceIterator{Rows: rows}, nil
		},
	}
}

// Filter drops rows whose predicate is not TRUE (three-valued logic: NULL
// fails the filter). Constant conjuncts left behind by predicate pushdown
// are folded once at Open: a constant-TRUE predicate passes rows through
// untested, a constant non-TRUE predicate short-circuits the stream.
type Filter struct {
	Pred  expr.Expr
	Child Operator

	pred  expr.Expr
	pass  bool
	empty bool
}

// Open folds the predicate and opens the child.
func (f *Filter) Open(ctx *Context) error {
	f.pred = expr.FoldConstants(f.Pred)
	f.pass, f.empty = false, false
	if lit, ok := f.pred.(*expr.Lit); ok {
		if expr.Truthy(lit.V) {
			f.pass = true
		} else {
			f.empty = true
		}
	}
	return f.Child.Open(ctx)
}

// Next pulls until a row passes.
func (f *Filter) Next() (sqltypes.Row, bool, error) {
	if f.empty {
		return nil, false, nil
	}
	for {
		row, ok, err := f.Child.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if f.pass {
			return row, true, nil
		}
		v, err := f.pred.Eval(row)
		if err != nil {
			return nil, false, err
		}
		if expr.Truthy(v) {
			return row, true, nil
		}
	}
}

// Close closes the child.
func (f *Filter) Close() error { return f.Child.Close() }

// Project computes output expressions over each input row.
type Project struct {
	Exprs []expr.Expr
	Child Operator

	out sqltypes.Row
}

// Open opens the child.
func (p *Project) Open(ctx *Context) error {
	p.out = make(sqltypes.Row, len(p.Exprs))
	return p.Child.Open(ctx)
}

// Next evaluates the projection.
func (p *Project) Next() (sqltypes.Row, bool, error) {
	row, ok, err := p.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	for i, e := range p.Exprs {
		v, err := e.Eval(row)
		if err != nil {
			return nil, false, err
		}
		p.out[i] = v
	}
	return p.out, true, nil
}

// Close closes the child.
func (p *Project) Close() error { return p.Child.Close() }

// Limit stops after N rows (TOP n).
type Limit struct {
	N     int64
	Child Operator
	seen  int64
}

// Open opens the child.
func (l *Limit) Open(ctx *Context) error {
	l.seen = 0
	return l.Child.Open(ctx)
}

// Next forwards up to N rows.
func (l *Limit) Next() (sqltypes.Row, bool, error) {
	if l.seen >= l.N {
		return nil, false, nil
	}
	row, ok, err := l.Child.Next()
	if err != nil || !ok {
		return nil, false, err
	}
	l.seen++
	return row, true, nil
}

// Close closes the child.
func (l *Limit) Close() error { return l.Child.Close() }

// Drain pulls every row from an operator (already opened), cloning them.
// Test and utility helper.
func Drain(op Operator) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	for {
		row, ok, err := op.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row.Clone())
	}
}

// Run opens, drains and closes an operator.
func Run(ctx *Context, op Operator) ([]sqltypes.Row, error) {
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	rows, err := Drain(op)
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return rows, err
}

// appendGroupKey renders group-by values into a comparable key: equal
// keys are equal groups.
func appendGroupKey(dst []byte, vals sqltypes.Row) ([]byte, error) {
	var err error
	for _, v := range vals {
		if dst, err = appendValueKey(dst, v); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func appendValueKey(dst []byte, v sqltypes.Value) ([]byte, error) {
	switch v.K {
	case sqltypes.KindNull:
		dst = append(dst, 0)
	case sqltypes.KindInt, sqltypes.KindBool:
		dst = append(dst, 1)
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(uint64(v.I)>>(8*i)))
		}
	case sqltypes.KindFloat:
		dst = append(dst, 2)
		dst = appendFloatKey(dst, v.F)
	case sqltypes.KindString:
		dst = append(dst, 3)
		dst = appendLenPrefixed(dst, v.S)
	case sqltypes.KindBytes:
		dst = append(dst, 4)
		dst = appendLenPrefixed(dst, string(v.B))
	default:
		return nil, fmt.Errorf("exec: cannot group on kind %s", v.K)
	}
	return dst, nil
}

func appendLenPrefixed(dst []byte, s string) []byte {
	n := len(s)
	for n >= 0x80 {
		dst = append(dst, byte(n)|0x80)
		n >>= 7
	}
	dst = append(dst, byte(n))
	return append(dst, s...)
}

func appendFloatKey(dst []byte, f float64) []byte {
	// Group equality must match sqltypes.Equal: integral floats equal
	// ints. Encode integral floats as ints.
	if f == float64(int64(f)) {
		dst[len(dst)-1] = 1
		v := int64(f)
		for i := 0; i < 8; i++ {
			dst = append(dst, byte(uint64(v)>>(8*i)))
		}
		return dst
	}
	bits := fmt.Sprintf("%x", f)
	return appendLenPrefixed(dst, bits)
}
