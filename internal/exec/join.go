package exec

import (
	"cmp"

	"repro/internal/expr"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// MergeJoin is an inner equi-join over two inputs already sorted by their
// join keys — the plan the paper gets "in about 7 seconds ... about 1.6
// million alignments per second" by clustering both tables on the join
// column (Section 5.3.3, Figure 10). It joins a batch at a time. Each input
// batch's keys are evaluated once, as vectors, and its NULL-key rows leave
// its selection. A single INT key on both sides compares as int64; any
// other key is boxed into reused scratch rows and compared. The side that
// is behind steps one row. The right rows with the current
// key are the group: runs of right batches' selections, across batches,
// copied nowhere. Every left row with that key replays the group as
// positions, and an output batch gathers the left columns and appends the
// right ones the consumer reads — for COUNT(*) none, and only the selection
// carries the count.
type MergeJoin struct {
	LeftKeys  []expr.Expr
	RightKeys []expr.Expr
	Left      Operator
	Right     Operator
	LeftWidth int // as PartitionedHashJoin.LeftWidth

	needed      []bool // output columns the consumer reads; nil = all
	left, right mergeCursor
	group       []mergeSegment // the right rows with the group key...
	gkey        mergeKeys      // ...which is row grow of these keys
	grow        int
	replay      bool // the current left row is replaying the group, from group[seg].rows[off]
	seg, off    int
	// The output batch being built: pair k joins row lpos[k] of left.b with
	// row rpos[k] of its chunk's right batch.
	lpos, rpos []int
	chunks     []mergeChunk
	ka, kb     sqltypes.Row // scratch for boxed key compares
	opened     bool
}

// mergeKeys are one batch's join-key vectors; ints is the key's array when
// it is a single INT key.
type mergeKeys struct {
	cols []*vec.Vector
	ints []int64
}

// mergeCursor walks one input: its current batch, that batch's keys and a
// position in its selection.
type mergeCursor struct {
	op   Operator
	proj *expr.Projection
	b    *vec.Batch // nil = none loaded
	keys mergeKeys
	pos  int
	eof  bool
}

// mergeSegment is a run of a right batch's selection inside the group.
type mergeSegment struct {
	b    *vec.Batch
	rows []int
}

// mergeChunk says that the next n entries of rpos are rows of b.
type mergeChunk struct {
	b *vec.Batch
	n int
}

// PruneColumns keeps the columns the consumer reads, and asks each input
// for the ones that come from it plus its key columns.
func (m *MergeJoin) PruneColumns(needed []bool) {
	m.needed = needed
	pruneJoinInputs(needed, m.LeftWidth, m.LeftKeys, m.RightKeys, []Operator{m.Left}, []Operator{m.Right})
}

// Open opens both children; a failed Open leaves neither open.
func (m *MergeJoin) Open(ctx *Context) error {
	if err := m.Left.Open(ctx); err != nil {
		return err
	}
	if err := m.Right.Open(ctx); err != nil {
		m.Left.Close()
		return err
	}
	m.left = mergeCursor{op: m.Left, proj: expr.CompileProjection(m.LeftKeys)}
	m.right = mergeCursor{op: m.Right, proj: expr.CompileProjection(m.RightKeys)}
	m.group, m.replay = nil, false
	m.lpos = make([]int, 0, vec.DefaultBatchSize)
	m.rpos = make([]int, 0, vec.DefaultBatchSize)
	m.chunks = m.chunks[:0]
	m.ka = make(sqltypes.Row, 0, len(m.LeftKeys))
	m.kb = make(sqltypes.Row, 0, len(m.LeftKeys))
	m.opened = true
	return nil
}

// NextBatch joins until the output batch is full, the left batch its pairs
// point into is used up, or an input ends.
func (m *MergeJoin) NextBatch() (*vec.Batch, error) {
	l, r := &m.left, &m.right
	for len(m.lpos) < vec.DefaultBatchSize {
		if m.replay {
			m.replayGroup()
			continue
		}
		if !l.more() {
			if len(m.lpos) > 0 {
				break // the pairs point into this left batch
			}
			if ok, err := l.load(); err != nil || !ok {
				return nil, err
			}
			continue
		}
		if len(m.group) > 0 {
			c, err := m.compare(&l.keys, l.row(), &m.gkey, m.grow)
			if err != nil {
				return nil, err
			}
			if c == 0 {
				m.replay, m.seg, m.off = true, 0, 0
				continue
			}
			m.group = m.group[:0] // the left side has moved past it
		}
		if !r.more() {
			ok, err := r.load()
			if err != nil {
				return nil, err
			}
			if !ok { // nothing left for the left rows to join
				l.pos, l.eof = len(l.b.Sel), true
			}
			continue
		}
		c, err := m.compare(&l.keys, l.row(), &r.keys, r.row())
		switch {
		case err != nil:
			return nil, err
		case c < 0:
			l.pos++
		case c > 0:
			r.pos++
		default:
			if err := m.collectGroup(); err != nil {
				return nil, err
			}
		}
	}
	if len(m.lpos) == 0 {
		return nil, nil
	}
	return m.emit()
}

// collectGroup gathers the right rows whose key equals the current right
// row's, loading right batches while the run reaches the end of one, and
// starts the current left row's replay.
func (m *MergeJoin) collectGroup() error {
	r := &m.right
	m.group = m.group[:0]
	m.gkey, m.grow = r.keys, r.row()
	end := r.pos + 1 // the current row holds the key
	for {
		for ; end < len(r.b.Sel); end++ {
			c, err := m.compare(&r.keys, r.b.Sel[end], &m.gkey, m.grow)
			if err != nil {
				return err
			}
			if c != 0 {
				break
			}
		}
		if end > r.pos {
			m.group = append(m.group, mergeSegment{b: r.b, rows: r.b.Sel[r.pos:end]})
		}
		r.pos = end
		if end < len(r.b.Sel) {
			break // a larger key follows
		}
		ok, err := r.load()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		end = 0
	}
	m.replay, m.seg, m.off = true, 0, 0
	return nil
}

// replayGroup pairs the current left row with the group's rows, from where
// the last call stopped, until the group ends (the left side then moves on
// a row) or the output batch is full.
func (m *MergeJoin) replayGroup() {
	lr := m.left.row()
	for ; m.seg < len(m.group); m.seg, m.off = m.seg+1, 0 {
		s := m.group[m.seg]
		take := min(len(s.rows)-m.off, vec.DefaultBatchSize-len(m.lpos))
		for range take {
			m.lpos = append(m.lpos, lr)
		}
		m.rpos = append(m.rpos, s.rows[m.off:m.off+take]...)
		if k := len(m.chunks) - 1; k >= 0 && m.chunks[k].b == s.b {
			m.chunks[k].n += take
		} else {
			m.chunks = append(m.chunks, mergeChunk{b: s.b, n: take})
		}
		if m.off += take; m.off < len(s.rows) {
			return // the batch is full
		}
	}
	m.replay = false
	m.left.pos++
}

// emit builds the output batch from the pairs: the left columns the
// consumer reads gathered from the left batch, the right ones appended
// from the chunks' batches, the rest NullColumn.
func (m *MergeJoin) emit() (*vec.Batch, error) {
	lb := m.left.b
	lw := len(lb.Cols)
	cols := make([]*vec.Vector, lw+len(m.chunks[0].b.Cols))
	for c := range cols {
		cols[c] = NullColumn
		if !Reads(m.needed, c) {
			continue
		}
		if c < lw {
			v, err := lb.Cols[c].Gather(m.lpos)
			if err != nil {
				return nil, err
			}
			cols[c] = v
			continue
		}
		v, at := &vec.Vector{}, 0
		for _, ch := range m.chunks {
			if err := v.AppendRows(ch.b.Cols[c-lw], m.rpos[at:at+ch.n]); err != nil {
				return nil, err
			}
			at += ch.n
		}
		cols[c] = v
	}
	out := vec.NewBatch(cols, len(m.lpos))
	m.lpos, m.rpos, m.chunks = m.lpos[:0], m.rpos[:0], m.chunks[:0]
	return out, nil
}

// compare orders row i of keys a against row j of keys b.
func (m *MergeJoin) compare(a *mergeKeys, i int, b *mergeKeys, j int) (int, error) {
	if a.ints != nil && b.ints != nil {
		return cmp.Compare(a.ints[i], b.ints[j]), nil
	}
	var err error
	if m.ka, err = a.row(i, m.ka); err != nil {
		return 0, err
	}
	if m.kb, err = b.row(j, m.kb); err != nil {
		return 0, err
	}
	return sqltypes.CompareRows(m.ka, m.kb), nil
}

// row boxes row i's key into dst.
func (k *mergeKeys) row(i int, dst sqltypes.Row) (sqltypes.Row, error) {
	dst = dst[:0]
	for _, c := range k.cols {
		v, err := c.Value(i)
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// more reports whether the cursor stands on a row of a loaded batch.
func (c *mergeCursor) more() bool { return c.b != nil && c.pos < len(c.b.Sel) }

// row is the current physical row.
func (c *mergeCursor) row() int { return c.b.Sel[c.pos] }

// load pulls batches until one has a row whose key holds no NULL: its keys
// are evaluated and decoded, and its NULL-key rows dropped from its
// selection. It reports false at the end of the input.
func (c *mergeCursor) load() (bool, error) {
	c.b, c.pos = nil, 0
	for !c.eof {
		b, err := c.op.NextBatch()
		if err != nil {
			return false, err
		}
		if b == nil {
			c.eof = true
			break
		}
		cols, err := c.proj.Eval(b)
		if err != nil {
			return false, err
		}
		for _, k := range cols {
			if err := k.Materialize(); err != nil {
				return false, err
			}
		}
		if b.Sel = dropNullKeys(cols, b.Sel); len(b.Sel) == 0 {
			continue
		}
		c.b, c.keys = b, mergeKeys{cols: cols}
		if len(cols) == 1 && cols[0].Kind == sqltypes.KindInt {
			c.keys.ints = cols[0].Ints
		}
		return true, nil
	}
	return false, nil
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
	m.left, m.right, m.group, m.gkey, m.chunks = mergeCursor{}, mergeCursor{}, nil, mergeKeys{}, nil
	return err
}
