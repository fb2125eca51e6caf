// Package exec implements the physical query operators of the engine. There
// is one operator interface and it exchanges batches: Open, a stream of
// NextBatch calls, Close (batch.go states the contract). Rows exist only at
// the two edges of a plan, each with one adapter, and inside the operators
// that still keep rows:
//
//   - rows in: Source packs a RowIterator — a spilled partition read back —
//     into batches (rowPacker). No scan is one: a base-table leaf (Scan)
//     reads batches off heap pages, clustered leaves or the pages an index
//     points into, a table-valued function is a TableFunc that fills
//     typed vectors itself — the leaf of a FROM-clause call is the same
//     Scan, and CROSS APPLY (Apply) expands an outer batch at a time — and
//     a SELECT without FROM is a Scan of one batch of one row. The
//     operators whose insides still work a row at a time (Sort,
//     MergeSorted, TopN, the aggregates' group output) read the rows they
//     keep straight off their children's batches and emit through the
//     same packer.
//   - rows out: RowCursor reads an operator's batches a row at a time. Run
//     and Drain use it at the result boundary. The engine's own pipelines
//     are plans of these operators too: ANALYZE is a global aggregate whose
//     state is a statistics collector, an index build is partition Sorts
//     under one MergeSorted, and neither has a row loop of its own.
//
// Everything between the edges — scans off pages and leaves, table-valued
// functions, Filter, Project, Limit, the Gather exchange, the lateral
// Apply, the hash and merge joins, the three aggregates' input,
// RowNumber's counter — computes on typed vectors. The
// hash join and the hash aggregate share one key hasher, one chained key
// table and one partition ledger (joinhash.go). The parallel operators
// (Gather, the partial and final aggregate, the partitioned merge join)
// reproduce the paper's "parallelism for free" results (Figures 8-10).
package exec

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Context carries per-query execution state.
type Context struct {
	// DOP is the degree of parallelism granted to parallel operators.
	DOP int
	// Sink is where operators, and the scans, fetches, seeks and spill
	// reads below them, write their events (obs states the contract):
	// Sink.Engine is the engine-wide counter set the session layer put
	// there, Sink.Prof the profile of the nearest enclosing instrumented
	// plan operator — Instrument swaps it on the Context it hands its
	// child, so work deep inside a subtree counts on the right plan node.
	// Either may be nil; the zero Sink counts nothing.
	Sink obs.Sink
	// Snapshot is the engine's opaque MVCC visibility token. The session
	// layer sets it when a statement runs under snapshot isolation; scan
	// factories type-assert it back to filter row versions. Operators
	// must thread the same Context down to their sources. nil means
	// "latest committed" (recovery, TVF side scans).
	Snapshot any
}

// RowIterator is a row stream: what a spill file hands to a Source, and
// the sorted streams a loser tree merges. A returned row may be reused by
// the next call; an iterator need not survive a Next after its last row.
type RowIterator interface {
	Next() (sqltypes.Row, bool, error)
	Close() error
}

// BatchIterator is a batch stream produced by a Scan factory (the heap,
// clustered and index scans, a table-valued function), mirroring
// RowIterator.
type BatchIterator interface {
	NextBatch() (*vec.Batch, error)
	Close() error
}

// Source is the rows-in edge: it packs the rows of a RowIterator — a
// spilled partition read back — into batches. The factory runs at Open
// time, so sources are re-openable.
type Source struct {
	Factory func(ctx *Context) (RowIterator, error)

	it   RowIterator
	pack rowPacker
}

// Open creates the underlying iterator.
func (s *Source) Open(ctx *Context) error {
	it, err := s.Factory(ctx)
	if err != nil {
		return err
	}
	s.it = it
	s.pack.reset()
	return nil
}

// NextBatch packs the iterator's next rows.
func (s *Source) NextBatch() (*vec.Batch, error) { return s.pack.next(s.it.Next) }

// PruneColumns keeps the packer from copying the unmarked columns.
func (s *Source) PruneColumns(needed []bool) { s.pack.needed = needed }

// Close releases the iterator.
func (s *Source) Close() error {
	if s.it == nil {
		return nil
	}
	err := s.it.Close()
	s.it = nil
	return err
}

// Scan is the one leaf whose iterator delivers batches itself: heap pages,
// clustered leaves and the heap pages an index scan fetches, decoded a
// column at a time, and the batches of a table-valued function.
type Scan struct {
	// Factory opens the iterator; needed is what PruneColumns was told. A
	// table-valued function fills only the marked columns, and so does the
	// clustered scan when it gathers leaves into a batch; the heap and index
	// scans ignore it, as a scanned column is decoded when first read.
	Factory func(ctx *Context, needed []bool) (BatchIterator, error)

	needed []bool
	it     BatchIterator
}

// Open creates the underlying iterator.
func (s *Scan) Open(ctx *Context) (err error) {
	s.it, err = s.Factory(ctx, s.needed)
	return err
}

// NextBatch returns the iterator's next batch.
func (s *Scan) NextBatch() (*vec.Batch, error) { return s.it.NextBatch() }

// PruneColumns keeps the mask for the factory.
func (s *Scan) PruneColumns(needed []bool) { s.needed = needed }

// Close releases the iterator.
func (s *Scan) Close() error {
	if s.it == nil {
		return nil
	}
	err := s.it.Close()
	s.it = nil
	return err
}

// SliceIterator serves rows from memory: a Sort's sorted buffer, TopN's
// kept rows.
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

// Drain pulls every row from an operator (already opened). The rows are the
// caller's: each is read into a slice of its own, and its cells point into
// batches nobody else holds any more.
func Drain(op Operator) ([]sqltypes.Row, error) {
	var out []sqltypes.Row
	cur := RowCursor{Op: op}
	for {
		row, ok, err := cur.Next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, row)
		cur.row = nil // kept: the next row gets a slice of its own
	}
}

// Run opens, drains and closes an operator: the result boundary. It reads
// every output column, and says so, which is what starts column pruning.
func Run(ctx *Context, op Operator) ([]sqltypes.Row, error) {
	op.PruneColumns(nil)
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	rows, err := Drain(op)
	if cerr := op.Close(); err == nil {
		err = cerr
	}
	return rows, err
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
