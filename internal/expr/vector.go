// Vectorized expression evaluation: predicates compile to tri-state mask
// evaluators that process a batch column-at-a-time and shrink the
// selection vector, and projections compile to per-expression vector
// builders — column references, literals, and calls and arithmetic as
// typed kernels (kernel.go). Dictionary-encoded columns evaluate a
// predicate, or a call of one column, once per dictionary entry, so rows
// dropped by the filter are never decompressed; packed 2-bit sequence
// columns evaluate equality against the packed wire bytes, and
// CHARINDEX('N', ...) against the exception list, without unpacking a
// single base.
package expr

import (
	"bytes"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Tri-state mask values. A plain boolean mask cannot express NOT under
// SQL three-valued logic (NOT NULL is NULL, not true), so masks carry
// the third state explicitly and only kTrue survives a filter.
const (
	kFalse uint8 = 0
	kTrue  uint8 = 1
	kNull  uint8 = 2
)

// maskEval computes the tri-state truth value of a predicate for the
// rows listed in sel, writing out[i] for sel[i].
type maskEval interface {
	mask(b *vec.Batch, sel []int, out []uint8) error
}

// FilterEval is a compiled vectorized predicate.
type FilterEval struct {
	root    maskEval
	scratch []uint8
}

// CompileFilter compiles a predicate for batch evaluation. Every
// expression compiles to vector kernels; the one row-at-a-time path left
// is a scalar function without a kernel, called through the boxed adapter
// at the selected rows only.
func CompileFilter(e Expr) *FilterEval {
	return &FilterEval{root: compileMask(e)}
}

// Apply evaluates the predicate over the batch's selected rows and
// shrinks the selection vector to the rows where it is true.
func (f *FilterEval) Apply(b *vec.Batch) error {
	n := len(b.Sel)
	if n == 0 {
		return nil
	}
	if cap(f.scratch) < n {
		f.scratch = make([]uint8, n)
	}
	out := f.scratch[:n]
	if err := f.root.mask(b, b.Sel, out); err != nil {
		return err
	}
	k := 0
	for i, s := range b.Sel {
		if out[i] == kTrue {
			b.Sel[k] = s
			k++
		}
	}
	b.Sel = b.Sel[:k]
	return nil
}

func compileMask(e Expr) maskEval {
	switch t := e.(type) {
	case *Lit:
		return &constMask{v: classify(t.V)}
	case *Logic:
		return &logicMask{and: t.And, l: compileMask(t.L), r: compileMask(t.R)}
	case *Not:
		return &notMask{child: compileMask(t.X)}
	case *IsNull:
		return &isNullMask{x: compileVec(t.X, false), negate: t.Negate}
	case *Like:
		return &likeMask{x: compileVec(t.X, false), pattern: t.Pattern}
	case *Cmp:
		x, lit, op, ok := exprLitCmp(t)
		if !ok {
			return &cmpVecMask{op: t.Op, l: compileVec(t.L, false), r: compileVec(t.R, false)}
		}
		if _, col := x.(*Col); col && lit.IsNull() {
			return &constMask{v: kNull}
		}
		if call, ok := x.(*Call); ok && call.Fn.vector != nil && call.Fn.vector.cmp != nil {
			if m := call.Fn.vector.cmp(call, op, lit); m != nil {
				return m
			}
		}
		return &cmpMask{op: op, x: compileVec(x, false), lit: lit}
	}
	return &truthMask{x: compileVec(e, false)}
}

// exprLitCmp recognizes expression-vs-literal comparisons in either
// operand order, flipping the operator when the literal is on the left.
func exprLitCmp(c *Cmp) (x Expr, lit sqltypes.Value, op CmpOp, ok bool) {
	if ll, o := c.R.(*Lit); o {
		return c.L, ll.V, c.Op, true
	}
	if ll, o := c.L.(*Lit); o {
		return c.R, ll.V, flipCmp(c.Op), true
	}
	return nil, sqltypes.Null, 0, false
}

func flipCmp(op CmpOp) CmpOp {
	switch op {
	case CmpLt:
		return CmpGt
	case CmpLe:
		return CmpGe
	case CmpGt:
		return CmpLt
	case CmpGe:
		return CmpLe
	}
	return op // =, <> are symmetric
}

// classify maps a scalar predicate result to its mask value, matching
// Eval exactly: NULL is unknown, and a non-null value passes iff
// Value.Bool() — so a non-boolean value classifies as false, just as
// Truthy's coercion of an Eval result does.
func classify(v sqltypes.Value) uint8 {
	if v.IsNull() {
		return kNull
	}
	if v.Bool() {
		return kTrue
	}
	return kFalse
}

type constMask struct{ v uint8 }

func (m *constMask) mask(_ *vec.Batch, sel []int, out []uint8) error {
	for i := range sel {
		out[i] = m.v
	}
	return nil
}

// logicMask is Kleene AND/OR. The right side is evaluated only for rows
// the left side did not decide (false for AND, true for OR) — the
// vectorized equivalent of Logic.Eval's short-circuit, so rows whose
// right operand would error are skipped in exactly the same cases.
type logicMask struct {
	and  bool
	l, r maskEval
	sub  []int
	rout []uint8
}

func (m *logicMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	if err := m.l.mask(b, sel, out); err != nil {
		return err
	}
	decided := kFalse
	if !m.and {
		decided = kTrue
	}
	m.sub = m.sub[:0]
	for i, s := range sel {
		if out[i] != decided {
			m.sub = append(m.sub, s)
		}
	}
	if len(m.sub) == 0 {
		return nil
	}
	if cap(m.rout) < len(m.sub) {
		m.rout = make([]uint8, len(m.sub))
	}
	rout := m.rout[:len(m.sub)]
	if err := m.r.mask(b, m.sub, rout); err != nil {
		return err
	}
	j := 0
	for i := range sel {
		if out[i] == decided {
			continue
		}
		rv := rout[j]
		j++
		if m.and {
			out[i] = kleeneAnd(out[i], rv)
		} else {
			out[i] = kleeneOr(out[i], rv)
		}
	}
	return nil
}

func kleeneAnd(a, b uint8) uint8 {
	if a == kFalse || b == kFalse {
		return kFalse
	}
	if a == kTrue && b == kTrue {
		return kTrue
	}
	return kNull
}

func kleeneOr(a, b uint8) uint8 {
	if a == kTrue || b == kTrue {
		return kTrue
	}
	if a == kFalse && b == kFalse {
		return kFalse
	}
	return kNull
}

type notMask struct{ child maskEval }

func (m *notMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	if err := m.child.mask(b, sel, out); err != nil {
		return err
	}
	for i := range sel {
		switch out[i] {
		case kTrue:
			out[i] = kFalse
		case kFalse:
			out[i] = kTrue
		}
	}
	return nil
}

type isNullMask struct {
	x      vecEval
	negate bool
}

func (m *isNullMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	v, err := m.x.eval(b, sel)
	if err != nil {
		return err
	}
	for i, s := range sel {
		if v.IsNull(s) != m.negate {
			out[i] = kTrue
		} else {
			out[i] = kFalse
		}
	}
	return nil
}

// cmpMask compares an expression's vector — a column's, or a kernel's
// result — with a literal: type-specialized kernels for flat
// int/float/string vectors, a verdict-table kernel for dictionary vectors,
// and a packed-bytes equality kernel for 2-bit sequence columns. Anything
// else (cross-kind comparisons, generic vectors) takes the boxed loop,
// which is still selection-driven.
type cmpMask struct {
	op  CmpOp
	x   vecEval
	lit sqltypes.Value

	packedLit     []byte // encoded seq.Pack of a string literal
	packedLitBad  bool   // literal not a packable sequence: never equal
	packedLitInit bool

	verdict []uint8
}

func (m *cmpMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	v, err := m.x.eval(b, sel)
	if err != nil {
		return err
	}
	// A lazy column under a comparison is about to be read for every
	// selected row — decode it once into its typed array so the tight
	// loops below apply, instead of boxing cell by cell.
	if err := v.Materialize(); err != nil {
		return err
	}
	switch {
	case m.lit.IsNull(): // an expression that may fail, evaluated for its errors
		for i := range sel {
			out[i] = kNull
		}
		return nil
	case v.Codes != nil:
		return m.maskDict(v, sel, out)
	case v.Packed && v.Offs != nil && (m.op == CmpEq || m.op == CmpNe) && m.lit.K == sqltypes.KindString:
		return m.maskPackedBytes(v, sel, out)
	case v.Ints != nil && v.Kind == sqltypes.KindInt && m.lit.K == sqltypes.KindInt:
		lit := m.lit.I
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			out[i] = m.verdictCmp(compareInt64(v.Ints[s], lit))
		}
		return nil
	case v.Ints != nil && v.Kind == sqltypes.KindInt && m.lit.K == sqltypes.KindFloat:
		lit := m.lit.F
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			out[i] = m.verdictCmp(compareFloat64(float64(v.Ints[s]), lit))
		}
		return nil
	case v.Floats != nil && (m.lit.K == sqltypes.KindFloat || m.lit.K == sqltypes.KindInt):
		lit := m.lit.F
		if m.lit.K == sqltypes.KindInt {
			lit = float64(m.lit.I)
		}
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			out[i] = m.verdictCmp(compareFloat64(v.Floats[s], lit))
		}
		return nil
	case v.Offs != nil && v.Kind == sqltypes.KindString && m.lit.K == sqltypes.KindString:
		lit := m.lit.S
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			out[i] = m.verdictCmp(compareString(v.Str(s), lit))
		}
		return nil
	}
	// Boxed fallback: correct for every remaining shape (generic
	// vectors, cross-kind comparisons) via sqltypes.Compare.
	for i, s := range sel {
		cv, err := v.Value(s)
		if err != nil {
			return err
		}
		if cv.IsNull() {
			out[i] = kNull
			continue
		}
		out[i] = m.verdictCmp(sqltypes.Compare(cv, m.lit))
	}
	return nil
}

// maskDict evaluates the comparison once per dictionary entry, then maps
// codes through the verdict table. For a packed-sequence dictionary with
// an equality operator, each entry compares by its packed wire bytes —
// seq.Pack is deterministic, so byte equality is string equality — and
// nothing is ever unpacked.
func (m *cmpMask) maskDict(v *vec.Vector, sel []int, out []uint8) error {
	nd := v.Dict.Len()
	if cap(m.verdict) < nd {
		m.verdict = make([]uint8, nd)
	}
	verdict := m.verdict[:nd]
	packedEq := v.Packed && v.Dict.Offs != nil && (m.op == CmpEq || m.op == CmpNe) && m.lit.K == sqltypes.KindString
	for d := range verdict {
		if packedEq {
			verdict[d] = m.packedVerdict(v.Dict.Bytes(d))
			continue
		}
		dv, err := v.DictEntry(d)
		if err != nil {
			return err
		}
		verdict[d] = m.verdictCmp(sqltypes.Compare(dv, m.lit))
	}
	for i, s := range sel {
		if v.IsNull(s) {
			out[i] = kNull
			continue
		}
		c := v.Codes[s]
		if int(c) >= nd {
			return errDictCode(c, nd)
		}
		out[i] = verdict[c]
	}
	return nil
}

func (m *cmpMask) maskPackedBytes(v *vec.Vector, sel []int, out []uint8) error {
	for i, s := range sel {
		if v.IsNull(s) {
			out[i] = kNull
			continue
		}
		out[i] = m.packedVerdict(v.Bytes(s))
	}
	return nil
}

// packedVerdict compares a packed sequence's wire bytes with the literal
// (equality operators only).
func (m *cmpMask) packedVerdict(b []byte) uint8 {
	m.ensurePackedLit()
	eq := !m.packedLitBad && bytes.Equal(b, m.packedLit)
	if m.op == CmpNe {
		eq = !eq
	}
	if eq {
		return kTrue
	}
	return kFalse
}

func (m *cmpMask) ensurePackedLit() {
	if m.packedLitInit {
		return
	}
	m.packedLitInit = true
	p, err := seq.Pack(m.lit.S)
	if err != nil || p.Unpack() != m.lit.S {
		// A literal that is not a valid sequence, or not the text its
		// packing reads back as ('acgt' packs like 'ACGT'), can never
		// equal any stored sequence value.
		m.packedLitBad = true
		return
	}
	m.packedLit = p.Encode()
}

func (m *cmpMask) verdictCmp(cmp int) uint8 { return cmpVerdict(m.op, cmp) }

// cmpVerdict is the mask value of a comparison whose operands compared as
// cmp (neither NULL).
func cmpVerdict(op CmpOp, cmp int) uint8 {
	var out bool
	switch op {
	case CmpEq:
		out = cmp == 0
	case CmpNe:
		out = cmp != 0
	case CmpLt:
		out = cmp < 0
	case CmpLe:
		out = cmp <= 0
	case CmpGt:
		out = cmp > 0
	case CmpGe:
		out = cmp >= 0
	}
	if out {
		return kTrue
	}
	return kFalse
}

func compareInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// likeMask evaluates LIKE against a string vector; dictionary vectors
// match the pattern once per distinct entry.
type likeMask struct {
	x       vecEval
	pattern string
	verdict []uint8
}

func (m *likeMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	v, err := m.x.eval(b, sel)
	if err != nil {
		return err
	}
	if err := v.Materialize(); err != nil {
		return err
	}
	if v.Codes != nil {
		nd := v.Dict.Len()
		if cap(m.verdict) < nd {
			m.verdict = make([]uint8, nd)
		}
		verdict := m.verdict[:nd]
		for d := range verdict {
			dv, err := v.DictEntry(d)
			if err != nil {
				return err
			}
			if likeMatch(dv.AsString(), m.pattern) {
				verdict[d] = kTrue
			} else {
				verdict[d] = kFalse
			}
		}
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			c := v.Codes[s]
			if int(c) >= nd {
				return errDictCode(c, nd)
			}
			out[i] = verdict[c]
		}
		return nil
	}
	if v.Offs != nil && v.Kind == sqltypes.KindString {
		for i, s := range sel {
			if v.IsNull(s) {
				out[i] = kNull
				continue
			}
			if likeMatch(v.Str(s), m.pattern) {
				out[i] = kTrue
			} else {
				out[i] = kFalse
			}
		}
		return nil
	}
	for i, s := range sel {
		cv, err := v.Value(s)
		if err != nil {
			return err
		}
		if cv.IsNull() {
			out[i] = kNull
			continue
		}
		if likeMatch(cv.AsString(), m.pattern) {
			out[i] = kTrue
		} else {
			out[i] = kFalse
		}
	}
	return nil
}

// cmpVecMask compares two expressions' vectors cell by cell.
type cmpVecMask struct {
	op   CmpOp
	l, r vecEval
}

func (m *cmpVecMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	l, err := m.l.eval(b, sel)
	if err != nil {
		return err
	}
	r, err := m.r.eval(b, sel)
	if err != nil {
		return err
	}
	for i, s := range sel {
		lv, err := l.Value(s)
		if err != nil {
			return err
		}
		rv, err := r.Value(s)
		if err != nil {
			return err
		}
		if lv.IsNull() || rv.IsNull() {
			out[i] = kNull
			continue
		}
		out[i] = cmpVerdict(m.op, sqltypes.Compare(lv, rv))
	}
	return nil
}

// truthMask is a value used as a predicate: a column, call or arithmetic.
type truthMask struct{ x vecEval }

func (m *truthMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	v, err := m.x.eval(b, sel)
	if err != nil {
		return err
	}
	for i, s := range sel {
		val, err := v.Value(s)
		if err != nil {
			return err
		}
		out[i] = classify(val)
	}
	return nil
}

func errDictCode(c int32, nd int) error {
	return &dictCodeError{code: c, entries: nd}
}

type dictCodeError struct {
	code    int32
	entries int
}

func (e *dictCodeError) Error() string {
	return "expr: dictionary code out of range"
}

// Projection is a compiled list of output-column expressions evaluated
// batch-at-a-time.
type Projection struct {
	evals []vecEval
}

// vecEval evaluates an expression at the rows sel lists into a vector
// defined at those rows.
type vecEval interface {
	eval(b *vec.Batch, sel []int) (*vec.Vector, error)
}

// CompileProjection compiles one vector builder per output expression:
// column references pass the input vector through untouched (keeping its
// encoding, so a projected dictionary column stays dictionary-encoded),
// literals become a one-entry dictionary, calls and arithmetic typed
// kernels, and predicates their mask as a BOOL vector.
func CompileProjection(exprs []Expr) *Projection {
	p := &Projection{evals: make([]vecEval, len(exprs))}
	for i, e := range exprs {
		p.evals[i] = compileVec(e, true)
	}
	return p
}

// compileVec compiles an expression to a vector builder. A fresh one
// makes new arrays for every batch (its vectors leave the projection); a
// scratch one, under a mask or as a call's argument, reuses its own.
func compileVec(e Expr, fresh bool) vecEval {
	switch t := e.(type) {
	case *Col:
		return colEval(t.Idx)
	case *Lit:
		return &litEval{v: t.V}
	case *Call:
		return newCallEval(t.Fn, t.Args, fresh)
	case *Arith:
		return newCallEval(arithFunc(t.Op), []Expr{t.L, t.R}, fresh)
	}
	return &predEval{m: compileMask(e), out: result{fresh: fresh}}
}

// Eval produces the projected column vectors for a batch. The output
// vectors are defined for the selected rows; unselected entries are
// unspecified.
func (p *Projection) Eval(b *vec.Batch) ([]*vec.Vector, error) {
	out := make([]*vec.Vector, len(p.evals))
	for i, ev := range p.evals {
		v, err := ev.eval(b, b.Sel)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// colEval is a column reference, by value: an interface holds a small
// index without allocating.
type colEval int

func (c colEval) eval(b *vec.Batch, _ []int) (*vec.Vector, error) { return b.Cols[c], nil }

// litEval produces a constant column as a one-entry dictionary over a
// shared all-zero code array (read-only, safe to share across batches).
type litEval struct {
	v     sqltypes.Value
	dict  *vec.Vector
	codes []int32
	nulls []uint64
}

func (l *litEval) eval(b *vec.Batch, _ []int) (*vec.Vector, error) {
	n := b.Rows()
	if cap(l.codes) < n {
		l.codes = make([]int32, n)
	}
	if l.dict == nil {
		l.dict = vec.NewVector(l.v.K, 1)
		l.dict.Append(l.v)
	}
	out := &vec.Vector{Kind: l.v.K, Codes: l.codes[:n], Dict: l.dict}
	if l.v.IsNull() {
		words := (n + 63) / 64
		if cap(l.nulls) < words {
			l.nulls = make([]uint64, words)
			for i := range l.nulls {
				l.nulls[i] = ^uint64(0)
			}
		}
		out.Nulls = l.nulls[:words]
	}
	return out, nil
}

// predEval is a predicate as a value: its mask as a BOOL vector.
type predEval struct {
	m   maskEval
	tri []uint8
	out result
}

func (p *predEval) eval(b *vec.Batch, sel []int) (*vec.Vector, error) {
	p.tri = fit(p.tri, len(sel))
	if err := p.m.mask(b, sel, p.tri); err != nil {
		return nil, err
	}
	p.out.n = b.Rows()
	p.out.start(sqltypes.KindBool, 0)
	for i, s := range sel {
		switch p.tri[i] {
		case kNull:
			p.out.null(s)
		case kTrue:
			p.out.v.Ints[s] = 1
		default:
			p.out.v.Ints[s] = 0
		}
	}
	return p.out.finish(), nil
}
