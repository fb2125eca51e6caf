package expr

import (
	"bytes"
	"fmt"
	"unsafe"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// Scalar functions and arithmetic as typed vector kernels, in the style of
// MonetDB/X100's type-specialised primitives: a compiled call reads its
// arguments' vectors (constants bound once, at compile time) at the rows a
// selection lists and writes a flat vector of the result's kind. A
// function with no kernel — one registered boxed, or a built-in given
// arguments of kinds it has no kernel for — runs through the boxed
// adapter, the one path that calls a scalar function a row at a time.

// kernel is a built-in's vector form.
type kernel struct {
	// eval computes the call at the rows sel lists into out and reports
	// true; it reports false, having written nothing, when it has no
	// kernel for its arguments (their count, or a vector whose cells may
	// be of any kind), and the adapter runs the boxed form.
	eval func(args []arg, sel []int, out *result) (bool, error)
	// cmp, when set, compiles the call compared with a literal into one
	// fused mask, or returns nil for a shape it has none for.
	cmp func(c *Call, op CmpOp, lit sqltypes.Value) maskEval
}

// arg is one argument of a compiled call: a constant, bound with its
// coercions once at compile time, or an expression whose vector the call
// reads per batch.
type arg struct {
	x vecEval     // nil: a constant
	v *vec.Vector // x's vector for the batch being evaluated

	lit                  sqltypes.Value
	litText              string
	litInt               int64
	litFloat             float64
	litIntErr, litFltErr error
}

func constArg(v sqltypes.Value) arg {
	a := arg{lit: v, litText: v.AsString()}
	a.litInt, a.litIntErr = v.AsInt()
	a.litFloat, a.litFltErr = v.AsFloat()
	return a
}

// kind is the query-level kind of the argument's cells, KindNull for a
// NULL constant; false for a generic vector, whose cells may be of any.
func (a *arg) kind() (sqltypes.Kind, bool) {
	switch {
	case a.v == nil:
		return a.lit.K, true
	case a.v.Packed:
		return sqltypes.KindString, true
	}
	return a.v.Kind, a.v.Kind != sqltypes.KindNull && a.v.Vals == nil
}

func (a *arg) null(s int) bool {
	if a.v == nil {
		return a.lit.IsNull()
	}
	return a.v.IsNull(s)
}

func (a *arg) value(s int) (sqltypes.Value, error) {
	if a.v == nil {
		return a.lit, nil
	}
	return a.v.Value(s)
}

// text is the cell as Value.AsString renders it; a flat text cell is read
// where it lies.
func (a *arg) text(s int) (string, error) {
	if a.v == nil {
		return a.litText, nil
	}
	if v := a.v; v.Offs != nil && !v.Packed {
		return v.Str(s), nil
	}
	val, err := a.v.Value(s)
	return val.AsString(), err
}

// int is the cell as Value.AsInt coerces it.
func (a *arg) int(s int) (int64, error) {
	switch v := a.v; {
	case v == nil:
		return a.litInt, a.litIntErr
	case v.Ints != nil:
		return v.Ints[s], nil
	case v.Floats != nil:
		return int64(v.Floats[s]), nil
	}
	val, err := a.v.Value(s)
	if err != nil {
		return 0, err
	}
	return val.AsInt()
}

// float is the cell as Value.AsFloat coerces it.
func (a *arg) float(s int) (float64, error) {
	switch v := a.v; {
	case v == nil:
		return a.litFloat, a.litFltErr
	case v.Floats != nil:
		return v.Floats[s], nil
	case v.Ints != nil:
		return float64(v.Ints[s]), nil
	}
	val, err := a.v.Value(s)
	if err != nil {
		return 0, err
	}
	return val.AsFloat()
}

// textBytes is the size of a flat text argument's byte run: room to
// reserve for a result about as long as its input.
func (a *arg) textBytes() int {
	if a.v == nil {
		return 0
	}
	return len(a.v.Data)
}

// result builds a kernel's output: a flat vector of one kind (generic for
// KindNull) over the n rows of a batch, defined at the rows written, which
// come in ascending order. A scratch result reuses its arrays from batch
// to batch; a fresh one — a projection's output, which its consumer owns
// (exec's Ownership rule) — makes new ones.
type result struct {
	v     *vec.Vector
	n     int
	fresh bool
	next  int        // text: rows whose offsets are written
	hdr   vec.Vector // a scratch result's vector
	own   []byte     // a fresh generic result's text and bytes (keep)
}

func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// start begins a vector of the given kind; a text one reserves size bytes.
func (r *result) start(kind sqltypes.Kind, size int) {
	var old vec.Vector
	if !r.fresh {
		old = r.hdr
	}
	v := vec.Vector{Kind: kind, Nulls: old.Nulls[:0]}
	switch kind {
	case sqltypes.KindInt, sqltypes.KindBool:
		v.Ints = fit(old.Ints, r.n)
	case sqltypes.KindFloat:
		v.Floats = fit(old.Floats, r.n)
	case sqltypes.KindString, sqltypes.KindBytes:
		v.Offs, v.Data, r.next = append(fit(old.Offs, r.n+1)[:0], 0), old.Data[:0], 0
		if cap(v.Data) < size {
			v.Data = make([]byte, 0, size)
		}
	default:
		v.Vals = fit(old.Vals, r.n)
	}
	if r.fresh {
		r.v = new(vec.Vector)
		*r.v = v
		r.own = r.own[len(r.own):] // past every byte a kept value refers to
	} else {
		r.hdr = v
		r.v = &r.hdr
	}
}

// finish completes the vector and returns it.
func (r *result) finish() *vec.Vector {
	if r.v.Offs != nil {
		r.pad(r.n)
	}
	return r.v
}

// pad gives the text rows before s empty cells.
func (r *result) pad(s int) {
	for ; r.next < s; r.next++ {
		r.v.Offs = append(r.v.Offs, len(r.v.Data))
	}
}

// end closes text cell s, whose bytes went to the end of Data after pad(s).
func (r *result) end(s int) {
	r.v.Offs = append(r.v.Offs, len(r.v.Data))
	r.next = s + 1
}

func (r *result) text(s int, t string) {
	r.pad(s)
	r.v.Data = append(r.v.Data, t...)
	r.end(s)
}

func (r *result) null(s int) {
	v := r.v
	if v.Offs != nil {
		r.text(s, "")
	}
	if v.Vals != nil {
		v.Vals[s] = sqltypes.Null
	}
	if v.Nulls == nil {
		v.Nulls = make([]uint64, 0, (r.n+63)/64)
	}
	v.SetNull(s)
}

// value writes a boxed value to a generic result.
func (r *result) value(s int, val sqltypes.Value) {
	if val.IsNull() {
		r.null(s)
		return
	}
	r.v.Vals[s] = r.keep(val)
}

// keep is val as a generic result may hold it. A boxed text or bytes value
// may alias a scratch vector — a nested call's result, whose bytes the
// next batch rewrites — so a fresh result, which its consumer keeps,
// holds a copy in bytes of its own.
func (r *result) keep(val sqltypes.Value) sqltypes.Value {
	if !r.fresh {
		return val
	}
	n := len(r.own)
	switch val.K {
	case sqltypes.KindString:
		r.own = append(r.own, val.S...)
		val.S = unsafe.String(unsafe.SliceData(r.own[n:]), len(val.S))
	case sqltypes.KindBytes:
		r.own = append(r.own, val.B...)
		val.B = r.own[n:len(r.own):len(r.own)]
	}
	return val
}

// put copies cell i of src to row s: a flat vector of r's kind, or any
// vector when r is generic.
func (r *result) put(s int, src *vec.Vector, i int) (err error) {
	switch v := r.v; {
	case src.IsNull(i):
		r.null(s)
	case v.Vals != nil:
		v.Vals[s], err = src.Value(i)
	case v.Ints != nil:
		v.Ints[s] = src.Ints[i]
	case v.Floats != nil:
		v.Floats[s] = src.Floats[i]
	default:
		r.text(s, src.Str(i))
	}
	return err
}

// callEval is a compiled call — or arithmetic operator, a call of two
// arguments — over vectors.
type callEval struct {
	fn    Func
	args  []arg
	out   result
	boxed []sqltypes.Value // the adapter's argument slice

	// A call with a kernel and one non-constant argument, args[at], runs
	// once per entry of a dictionary vector the selection reaches
	// (entries), and once for a NULL cell (nullRow, over nullArgs: args
	// with args[at] NULL). A function with a kernel is a built-in, a
	// function of its arguments alone; one registered boxed, a user's, may
	// not be deterministic and is called once per row.
	at       int
	nullArgs []arg
	dict     vec.Vector // header over the dictionary's entries
	seen     []bool
	dsel     []int
	entries  result
	nullRow  result
}

var selZero = []int{0}

func newCallEval(fn Func, args []Expr, fresh bool) *callEval {
	c := &callEval{fn: fn, args: make([]arg, len(args)), boxed: make([]sqltypes.Value, len(args)), at: -1}
	c.out.fresh = fresh
	vars := 0
	for i, a := range args {
		if l, ok := a.(*Lit); ok {
			c.args[i] = constArg(l.V)
			continue
		}
		c.args[i].x = compileVec(a, false)
		c.at = i
		vars++
	}
	if vars != 1 || fn.vector == nil {
		c.at = -1
	} else {
		c.nullArgs = append([]arg(nil), c.args...)
		c.nullArgs[c.at] = constArg(sqltypes.Null)
	}
	return c
}

func (c *callEval) eval(b *vec.Batch, sel []int) (*vec.Vector, error) {
	for i := range c.args {
		a := &c.args[i]
		if a.x == nil {
			continue
		}
		v, err := a.x.eval(b, sel)
		if err != nil {
			return nil, err
		}
		if err := v.Materialize(); err != nil {
			return nil, err
		}
		a.v = v
	}
	c.out.n = b.Rows()
	if c.at >= 0 && c.args[c.at].v.Codes != nil {
		return c.perEntry(sel)
	}
	if err := c.run(c.args, sel, &c.out); err != nil {
		return nil, err
	}
	return c.out.finish(), nil
}

// run evaluates the call at sel by its kernel, or by the adapter.
func (c *callEval) run(args []arg, sel []int, out *result) error {
	if k := c.fn.vector; k != nil {
		if ok, err := k.eval(args, sel, out); ok || err != nil {
			return err
		}
	}
	return c.adapt(args, sel, out)
}

// adapt runs the boxed form a row at a time into a generic vector.
func (c *callEval) adapt(args []arg, sel []int, out *result) error {
	out.start(sqltypes.KindNull, 0)
	for _, s := range sel {
		for i := range args {
			v, err := args[i].value(s)
			if err != nil {
				return err
			}
			c.boxed[i] = v
		}
		v, err := c.fn.Eval(c.boxed)
		if err != nil {
			return err
		}
		out.value(s, v)
	}
	return nil
}

// perEntry evaluates a call of one dictionary vector once per entry the
// selection reaches and once for a NULL cell, and copies the results to
// the rows.
func (c *callEval) perEntry(sel []int) (*vec.Vector, error) {
	a := &c.args[c.at]
	v := a.v
	nd := v.Dict.Len()
	c.seen = fit(c.seen, nd)
	clear(c.seen)
	hasNull := false
	for _, s := range sel {
		if v.IsNull(s) {
			hasNull = true
			continue
		}
		code := v.Codes[s]
		if code < 0 || int(code) >= nd {
			return nil, errDictCode(code, nd)
		}
		c.seen[code] = true
	}
	c.dsel = c.dsel[:0]
	for d, ok := range c.seen {
		if ok {
			c.dsel = append(c.dsel, d)
		}
	}
	c.dict = *v.Dict
	c.dict.Packed = v.Packed
	a.v = &c.dict
	c.entries.n = nd
	err := c.run(c.args, c.dsel, &c.entries)
	a.v = v
	if err != nil {
		return nil, err
	}
	ent := c.entries.finish()
	var null *vec.Vector
	if hasNull {
		c.nullRow.n = 1
		if err := c.run(c.nullArgs, selZero, &c.nullRow); err != nil {
			return nil, err
		}
		null = c.nullRow.finish()
	}
	kind := ent.Kind
	if null != nil && !null.IsNull(0) && null.Kind != kind {
		kind = sqltypes.KindNull // COALESCE(column, <literal of another kind>), say
	}
	out := &c.out
	out.start(kind, len(ent.Data)*len(sel)/max(len(c.dsel), 1))
	for _, s := range sel {
		if v.IsNull(s) {
			err = out.put(s, null, 0)
		} else {
			err = out.put(s, ent, int(v.Codes[s]))
		}
		if err != nil {
			return nil, err
		}
	}
	return out.finish(), nil
}

// cellFunc writes a kernel's result at row s, where no argument is NULL.
type cellFunc func(args []arg, s int, out *result) error

// rows is most kernels' loop: NULL where an argument is NULL, f's cell
// elsewhere. Cells are read with arg's coercions, which are Value's, so a
// kernel computes what its boxed form computes.
func rows(args []arg, sel []int, out *result, kind sqltypes.Kind, f cellFunc) error {
	size := 0
	for i := range args {
		size += args[i].textBytes()
	}
	out.start(kind, size)
next:
	for _, s := range sel {
		for i := range args {
			if args[i].null(s) {
				out.null(s)
				continue next
			}
		}
		if err := f(args, s, out); err != nil {
			return err
		}
	}
	return nil
}

// perRow is the kernel of a function of lo to hi arguments whose result
// kind is fixed: rows of f.
func perRow(lo, hi int, kind sqltypes.Kind, f cellFunc) func([]arg, []int, *result) (bool, error) {
	return func(args []arg, sel []int, out *result) (bool, error) {
		if len(args) < lo || len(args) > hi {
			return false, nil
		}
		return true, rows(args, sel, out, kind, f)
	}
}

// searchCell is CHARINDEX(needle, cell s, from) over a flat text vector:
// a byte search, or over a packed sequence with needle 'N' a walk of the
// cell's exception list.
func searchCell(v *vec.Vector, s int, needle string, from int64) (int64, error) {
	if !v.Packed {
		return charIndex(v.Str(s), needle, from), nil
	}
	if needle != "N" {
		val, err := v.Value(s)
		return charIndex(val.S, needle, from), err
	}
	p, err := seq.IndexN(v.Bytes(s), int(max(from, 1)-1))
	if err != nil {
		return 0, fmt.Errorf("expr: bad packed sequence: %w", err)
	}
	return int64(p + 1), nil
}

// searchMask is CHARINDEX(<literal>, column) <op> <INT literal> fused:
// over flat text cells a byte search per cell compared where it is found,
// with no INT vector in between. Other column forms (dictionary, packed)
// take the compiled call under cmpMask.
type searchMask struct {
	col     int
	needle  string
	op      CmpOp
	lit     int64
	general maskEval
}

func charindexMask(c *Call, op CmpOp, lit sqltypes.Value) maskEval {
	if len(c.Args) != 2 || lit.K != sqltypes.KindInt {
		return nil
	}
	needle, ok := c.Args[0].(*Lit)
	col, okc := c.Args[1].(*Col)
	if !ok || !okc || needle.V.IsNull() {
		return nil
	}
	return &searchMask{col: col.Idx, needle: needle.V.AsString(), op: op, lit: lit.I,
		general: &cmpMask{op: op, x: compileVec(c, false), lit: lit}}
}

func (m *searchMask) mask(b *vec.Batch, sel []int, out []uint8) error {
	v := b.Cols[m.col]
	if err := v.Materialize(); err != nil {
		return err
	}
	if v.Offs == nil || v.Packed {
		return m.general.mask(b, sel, out)
	}
	data, offs := v.Data, v.Offs
	for i, s := range sel {
		if v.IsNull(s) {
			out[i] = kNull
			continue
		}
		var pos int64
		if len(m.needle) == 1 { // Query 1's 'N': memchr over the cell
			pos = int64(bytes.IndexByte(data[offs[s]:offs[s+1]], m.needle[0]) + 1)
		} else {
			pos = charIndex(v.Str(s), m.needle, 1)
		}
		out[i] = cmpVerdict(m.op, compareInt64(pos, m.lit))
	}
	return nil
}

// arithFunc is an arithmetic operator as a function of two arguments, in
// both forms. The kernel takes its result's kind from its operands' kinds,
// as arith does from a pair of values'.
func arithFunc(op BinOp) Func {
	concat := func(a []arg, s int, out *result) error {
		l, err := a[0].text(s)
		if err != nil {
			return err
		}
		r, err := a[1].text(s)
		out.pad(s)
		out.v.Data = append(append(out.v.Data, l...), r...)
		out.end(s)
		return err
	}
	floats := func(a []arg, s int, out *result) error {
		l, err := a[0].float(s)
		if err != nil {
			return err
		}
		r, err := a[1].float(s)
		if err != nil {
			return err
		}
		out.v.Floats[s], err = floatArith(op, l, r)
		return err
	}
	ints := func(a []arg, s int, out *result) error {
		l, err := a[0].int(s)
		if err != nil {
			return err
		}
		r, err := a[1].int(s)
		if err != nil {
			return err
		}
		out.v.Ints[s], err = intArith(op, l, r)
		return err
	}
	return Func{
		Eval: func(args []sqltypes.Value) (sqltypes.Value, error) { return arith(op, args[0], args[1]) },
		vector: &kernel{eval: func(args []arg, sel []int, out *result) (bool, error) {
			lk, lok := args[0].kind()
			rk, rok := args[1].kind()
			switch {
			case !lok || !rok:
				return false, nil
			case op == OpAdd && (lk == sqltypes.KindString || rk == sqltypes.KindString):
				return true, rows(args, sel, out, sqltypes.KindString, concat)
			case lk == sqltypes.KindFloat || rk == sqltypes.KindFloat:
				return true, rows(args, sel, out, sqltypes.KindFloat, floats)
			}
			return true, rows(args, sel, out, sqltypes.KindInt, ints) // a NULL constant's rows are all NULL
		}},
	}
}
