package exec

import (
	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// MergeJoin is an inner equi-join over two inputs already sorted by their
// join keys — the plan the paper gets "in about 7 seconds ... about 1.6
// million alignments per second" by clustering both tables on the join
// column (Section 5.3.3, Figure 10). Duplicate keys on the right side are
// buffered per group. Row-internal: both inputs are read through RowCursors
// (off lazily decoded batches only the needed columns are decoded) and the
// joined rows leave through a rowPacker.
type MergeJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	Left      Operator
	Right     Operator
	LeftWidth int // as PartitionedHashJoin.LeftWidth

	left, right RowCursor
	leftRow     sqltypes.Row
	leftKey     sqltypes.Row
	leftOK      bool
	rightRow    sqltypes.Row
	rightKey    sqltypes.Row
	rightOK     bool
	group       []sqltypes.Row // buffered right rows with the current key
	groupKey    sqltypes.Row
	groupPos    int
	row         sqltypes.Row
	out         rowPacker
	opened      bool
}

// PruneColumns reads from each input the marked columns that come from it
// and its key columns, and asks the inputs for the same.
func (m *MergeJoin) PruneColumns(needed []bool) {
	m.out.needed = needed
	m.left.needed, m.right.needed = pruneJoinInputs(needed, m.LeftWidth, m.LeftKeys, m.RightKeys, []Operator{m.Left}, []Operator{m.Right})
}

// Open opens both children and primes the streams. If priming fails the
// children are closed before returning, so a failed Open never leaks.
func (m *MergeJoin) Open(ctx *Context) error {
	if err := m.Left.Open(ctx); err != nil {
		return err
	}
	if err := m.Right.Open(ctx); err != nil {
		m.Left.Close()
		return err
	}
	m.left = RowCursor{Op: m.Left, needed: m.left.needed}
	m.right = RowCursor{Op: m.Right, needed: m.right.needed}
	m.out.reset()
	m.opened = true
	m.group = nil
	m.groupPos = 0
	err := m.advanceLeft()
	if err == nil {
		err = m.advanceRight()
	}
	if err != nil {
		m.Close()
		return err
	}
	return nil
}

func (m *MergeJoin) advanceLeft() error {
	row, ok, err := m.left.Next()
	if err != nil {
		return err
	}
	m.leftOK = ok
	if !ok {
		return nil
	}
	// No clone: the row is only read until the cursor's next call, which
	// is as long as it stays valid.
	m.leftRow = row
	m.leftKey, err = evalKeys(m.LeftKeys, row, m.leftKey)
	return err
}

func (m *MergeJoin) advanceRight() error {
	row, ok, err := m.right.Next()
	if err != nil {
		return err
	}
	m.rightOK = ok
	if !ok {
		return nil
	}
	m.rightRow = row // cloned only if it enters a duplicate-key group
	m.rightKey, err = evalKeys(m.RightKeys, row, m.rightKey)
	return err
}

func evalKeys(keys []expr.Expr, row sqltypes.Row, dst sqltypes.Row) (sqltypes.Row, error) {
	if cap(dst) < len(keys) {
		dst = make(sqltypes.Row, len(keys))
	}
	dst = dst[:len(keys)]
	for i, e := range keys {
		v, err := e.Eval(row)
		if err != nil {
			return nil, err
		}
		dst[i] = v
	}
	return dst, nil
}

// NextBatch packs the next joined rows.
func (m *MergeJoin) NextBatch() (*vec.Batch, error) { return m.out.next(m.next) }

// next produces the next joined row.
func (m *MergeJoin) next() (sqltypes.Row, bool, error) {
	for {
		// Emit from the buffered right group.
		if m.groupPos < len(m.group) {
			right := m.group[m.groupPos]
			m.groupPos++
			return m.combine(m.leftRow, right), true, nil
		}
		// Group exhausted: advance left; if its key matches the buffered
		// group key, replay the group.
		if m.group != nil {
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
			if m.leftOK && sqltypes.CompareRows(m.leftKey, m.groupKey) == 0 {
				m.groupPos = 0
				continue
			}
			m.group = nil
			m.groupPos = 0
		}
		if !m.leftOK || !m.rightOK {
			return nil, false, nil
		}
		c := sqltypes.CompareRows(m.leftKey, m.rightKey)
		switch {
		case c < 0:
			if err := m.advanceLeft(); err != nil {
				return nil, false, err
			}
		case c > 0:
			if err := m.advanceRight(); err != nil {
				return nil, false, err
			}
		default:
			if hasNullKey(m.leftKey) { // NULLs never join
				if err := m.advanceLeft(); err != nil {
					return nil, false, err
				}
				continue
			}
			// Buffer all right rows with this key.
			m.groupKey = m.rightKey.Clone()
			m.group = m.group[:0]
			for m.rightOK && sqltypes.CompareRows(m.rightKey, m.groupKey) == 0 {
				m.group = append(m.group, m.rightRow.Clone())
				if err := m.advanceRight(); err != nil {
					return nil, false, err
				}
			}
			m.groupPos = 0
		}
	}
}

func hasNullKey(key sqltypes.Row) bool {
	for _, v := range key {
		if v.IsNull() {
			return true
		}
	}
	return false
}

func (m *MergeJoin) combine(left, right sqltypes.Row) sqltypes.Row {
	m.row = append(append(m.row[:0], left...), right...)
	return m.row
}

// Close closes both children (idempotent: a second Close is a no-op).
func (m *MergeJoin) Close() error {
	if !m.opened {
		return nil
	}
	m.opened = false
	err := m.Left.Close()
	if cerr := m.Right.Close(); err == nil {
		err = cerr
	}
	m.group = nil
	return err
}

// Apply implements CROSS APPLY: for every outer row an inner row stream is
// created by Inner (typically a table-valued function over the outer row's
// columns — the paper's PivotAlignment in Query 3). Output rows are the
// outer values followed by the inner values. Row-internal: the inner
// streams are RowIterators, the paper's TVF contract.
type Apply struct {
	Child Operator
	// Inner creates the per-row iterator.
	Inner func(ctx *Context, outer sqltypes.Row) (RowIterator, error)

	ctx   *Context
	in    RowCursor
	outer sqltypes.Row
	inner RowIterator
	row   sqltypes.Row
	out   rowPacker
}

// Open opens the outer child.
func (a *Apply) Open(ctx *Context) error {
	a.ctx = ctx
	a.in = RowCursor{Op: a.Child}
	a.out.reset()
	return a.Child.Open(ctx)
}

// NextBatch packs the next combinations.
func (a *Apply) NextBatch() (*vec.Batch, error) { return a.out.next(a.next) }

// next produces the next outer x inner combination.
func (a *Apply) next() (sqltypes.Row, bool, error) {
	for {
		if a.inner != nil {
			row, ok, err := a.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				a.row = append(append(a.row[:0], a.outer...), row...)
				return a.row, true, nil
			}
			if err := a.inner.Close(); err != nil {
				return nil, false, err
			}
			a.inner = nil
		}
		row, ok, err := a.in.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		a.outer = row.Clone()
		inner, err := a.Inner(a.ctx, a.outer)
		if err != nil {
			return nil, false, err
		}
		a.inner = inner
	}
}

// PruneColumns stops at the outer child: Inner may read any of its columns.
func (a *Apply) PruneColumns(needed []bool) { a.out.needed = needed }

// Close closes any open inner iterator and the outer child, returning the
// first error.
func (a *Apply) Close() error {
	var err error
	if a.inner != nil {
		err = a.inner.Close()
		a.inner = nil
	}
	if cerr := a.Child.Close(); err == nil {
		err = cerr
	}
	return err
}
