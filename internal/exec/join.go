package exec

import (
	"repro/internal/expr"
	"repro/internal/sqltypes"
)

// HashJoin is an inner equi-join: the right (build) side is materialized
// into a hash table, the left (probe) side streams. Output rows are the
// left row's values followed by the right row's.
type HashJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	Left      Operator
	Right     Operator
	// LeftWidth is the column count of Left's rows; set, it lets column
	// pruning pass through the join (see pruneJoinInputs).
	LeftWidth int

	table    map[string][]sqltypes.Row
	pending  []sqltypes.Row
	current  sqltypes.Row
	out      sqltypes.Row
	leftOpen bool
}

// pruneJoinInputs forwards column pruning through an equi-join whose
// output is the left row followed by the right row: each side still has
// to produce the needed output columns that come from it, plus its own
// key columns. A join built without leftWidth prunes nothing.
func pruneJoinInputs(needed []bool, leftWidth int, leftKeys, rightKeys []expr.Expr, left, right []Operator) {
	if leftWidth <= 0 || leftWidth > len(needed) {
		return
	}
	side := func(cols []bool, keys []expr.Expr, ops []Operator) {
		mark := append([]bool(nil), cols...)
		for _, k := range keys {
			expr.MarkCols(k, mark)
		}
		for _, op := range ops {
			if cp, ok := op.(ColumnPruner); ok {
				cp.PruneColumns(mark)
			}
		}
	}
	side(needed[:leftWidth], leftKeys, left)
	side(needed[leftWidth:], rightKeys, right)
}

// PruneColumns implements ColumnPruner.
func (j *HashJoin) PruneColumns(needed []bool) {
	pruneJoinInputs(needed, j.LeftWidth, j.LeftKeys, j.RightKeys, []Operator{j.Left}, []Operator{j.Right})
}

// Open builds the hash table from the right child, then opens the probe
// child. The build child is closed exactly once on every path (including
// build errors and a failed probe open), so Open never leaks a child.
func (j *HashJoin) Open(ctx *Context) error {
	if err := j.Right.Open(ctx); err != nil {
		return err
	}
	if err := j.buildTable(); err != nil {
		j.Right.Close()
		return err
	}
	if err := j.Right.Close(); err != nil {
		return err
	}
	j.leftOpen = true
	if err := j.Left.Open(ctx); err != nil {
		j.leftOpen = false
		j.table = nil
		return err
	}
	return nil
}

func (j *HashJoin) buildTable() error {
	j.table = make(map[string][]sqltypes.Row)
	keyVals := make(sqltypes.Row, len(j.RightKeys))
	var keyBuf []byte
	for {
		row, ok, err := j.Right.Next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		var null bool
		keyBuf, null, err = appendJoinKey(keyBuf, j.RightKeys, keyVals, row)
		if err != nil {
			return err
		}
		if null {
			continue // NULL keys never join
		}
		j.table[string(keyBuf)] = append(j.table[string(keyBuf)], row.Clone())
	}
}

// Next probes the table with the next left rows.
func (j *HashJoin) Next() (sqltypes.Row, bool, error) {
	keyVals := make(sqltypes.Row, len(j.LeftKeys))
	var keyBuf []byte
	for {
		if len(j.pending) > 0 {
			right := j.pending[0]
			j.pending = j.pending[1:]
			return j.combine(j.current, right), true, nil
		}
		row, ok, err := j.Left.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		var null bool
		keyBuf, null, err = appendJoinKey(keyBuf, j.LeftKeys, keyVals, row)
		if err != nil {
			return nil, false, err
		}
		if null {
			continue
		}
		matches := j.table[string(keyBuf)]
		if len(matches) == 0 {
			continue
		}
		j.current = row.Clone()
		j.pending = matches
	}
}

func (j *HashJoin) combine(left, right sqltypes.Row) sqltypes.Row {
	if cap(j.out) < len(left)+len(right) {
		j.out = make(sqltypes.Row, len(left)+len(right))
	}
	j.out = j.out[:len(left)+len(right)]
	copy(j.out, left)
	copy(j.out[len(left):], right)
	return j.out
}

// Close releases the probe child and the table (the build child was
// already closed at the end of Open).
func (j *HashJoin) Close() error {
	j.table = nil
	j.pending = nil
	if !j.leftOpen {
		return nil
	}
	j.leftOpen = false
	return j.Left.Close()
}

// MergeJoin is an inner equi-join over two inputs already sorted by their
// join keys — the plan the paper gets "in about 7 seconds ... about 1.6
// million alignments per second" by clustering both tables on the join
// column (Section 5.3.3, Figure 10). Duplicate keys on the right side are
// buffered per group.
type MergeJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	Left      Operator
	Right     Operator
	LeftWidth int // as HashJoin.LeftWidth

	leftRow  sqltypes.Row
	leftKey  sqltypes.Row
	leftOK   bool
	rightRow sqltypes.Row
	rightKey sqltypes.Row
	rightOK  bool
	group    []sqltypes.Row // buffered right rows with the current key
	groupKey sqltypes.Row
	groupPos int
	out      sqltypes.Row
	opened   bool
}

// PruneColumns implements ColumnPruner.
func (m *MergeJoin) PruneColumns(needed []bool) {
	pruneJoinInputs(needed, m.LeftWidth, m.LeftKeys, m.RightKeys, []Operator{m.Left}, []Operator{m.Right})
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
	row, ok, err := m.Left.Next()
	if err != nil {
		return err
	}
	m.leftOK = ok
	if !ok {
		return nil
	}
	m.leftRow = row.Clone()
	m.leftKey, err = evalKeys(m.LeftKeys, row, m.leftKey)
	return err
}

func (m *MergeJoin) advanceRight() error {
	row, ok, err := m.Right.Next()
	if err != nil {
		return err
	}
	m.rightOK = ok
	if !ok {
		return nil
	}
	m.rightRow = row.Clone()
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

// Next produces the next joined row.
func (m *MergeJoin) Next() (sqltypes.Row, bool, error) {
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
				m.group = append(m.group, m.rightRow)
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
	if cap(m.out) < len(left)+len(right) {
		m.out = make(sqltypes.Row, len(left)+len(right))
	}
	m.out = m.out[:len(left)+len(right)]
	copy(m.out, left)
	copy(m.out[len(left):], right)
	return m.out
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
// outer values followed by the inner values.
type Apply struct {
	Child Operator
	// Inner creates the per-row iterator.
	Inner func(ctx *Context, outer sqltypes.Row) (RowIterator, error)

	ctx   *Context
	outer sqltypes.Row
	inner RowIterator
	out   sqltypes.Row
}

// Open opens the outer child.
func (a *Apply) Open(ctx *Context) error {
	a.ctx = ctx
	return a.Child.Open(ctx)
}

// Next produces the next outer x inner combination.
func (a *Apply) Next() (sqltypes.Row, bool, error) {
	for {
		if a.inner != nil {
			row, ok, err := a.inner.Next()
			if err != nil {
				return nil, false, err
			}
			if ok {
				if cap(a.out) < len(a.outer)+len(row) {
					a.out = make(sqltypes.Row, len(a.outer)+len(row))
				}
				a.out = a.out[:len(a.outer)+len(row)]
				copy(a.out, a.outer)
				copy(a.out[len(a.outer):], row)
				return a.out, true, nil
			}
			if err := a.inner.Close(); err != nil {
				return nil, false, err
			}
			a.inner = nil
		}
		row, ok, err := a.Child.Next()
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

// Close closes any open inner iterator and the outer child.
func (a *Apply) Close() error {
	if a.inner != nil {
		a.inner.Close()
		a.inner = nil
	}
	return a.Child.Close()
}
