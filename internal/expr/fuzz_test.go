package expr

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The compiled kernels against per-row Eval. Every operator runs its
// predicates through CompileFilter and its expressions through
// CompileProjection, so the row interpreter (Expr.Eval) is no longer an
// engine of its own that a whole-query comparison could hold them to; it
// is held here instead, cell by cell, over every physical form a column
// can arrive in. FuzzCompiledExprMatchesEval draws the expression, the
// data, each column's form and the selection from its input bytes;
// TestCompiledExprMatchesEval walks named expressions over all forms.

// The columns of the test table, by query-level kind. Column 4 is a
// SEQUENCE: text to a query, 2-bit packed bytes on a page.
const (
	fzInt = iota
	fzFloat
	fzStr
	fzBytes
	fzSeq
	fzCols
)

// Small domains, so comparisons hit equal values and dictionaries repeat.
var fzDomain = [fzCols][]sqltypes.Value{
	fzInt:   {i64(-2), i64(0), i64(1), i64(2), i64(3), i64(1 << 40)},
	fzFloat: {f64(-1.5), f64(0), f64(0.5), f64(2), f64(3)},
	fzStr:   {str(""), str("a"), str("ab"), str("abc%"), str("ACGT"), str("N"), str("12"), str("b")},
	fzBytes: {sqltypes.NewBytes([]byte{}), sqltypes.NewBytes([]byte{1}), sqltypes.NewBytes([]byte{1, 2}), sqltypes.NewBytes([]byte("ab"))},
	fzSeq:   {str(""), str("ACGT"), str("ACGTN"), str("TTTT"), str("ACG"), str("NACGTACGTA")},
}

// fzLits are the literals an expression may hold: the domains, the
// values next to them, NULL, and text a packed kernel must not take for
// a sequence it holds ('acgt' is not 'ACGT').
var fzLits = func() []sqltypes.Value {
	lits := []sqltypes.Value{sqltypes.Null, i64(-1), i64(4), i64(7), f64(1), f64(2.5), str("acgt"), str("XYZ"), str("%"), str("a%")}
	for _, d := range fzDomain {
		lits = append(lits, d...)
	}
	return lits
}()

var fzPatterns = []string{"%", "a%", "%b", "_", "a_", "%CG%", "acgt", "", "%N%", "1_"}

// fzNeedles are CHARINDEX's search texts: empty, one byte, the 'N' a
// packed sequence keeps in its exception list, and several bytes.
var fzNeedles = []sqltypes.Value{str(""), str("A"), str("N"), str("a"), str("CG"), str("GTN"), str("ab")}

// fzCmpLits are the literals a function's result is compared with: NULL,
// and FLOAT and STRING beside the INT its kernel computes.
var fzCmpLits = []sqltypes.Value{sqltypes.Null, i64(0), i64(1), i64(3), f64(0), f64(1.5), f64(3), str("0"), str("AC"), str("")}

// Vector forms.
const (
	formFlat = iota
	formDict
	formLazy
	formBoxed // Vals, NULLs under a null bit (what rowPacker builds; vec.Vector marks every NULL so)
	forms
)

// lazyFill is a LazyColumn over a prepared flat vector.
type lazyFill struct{ flat *vec.Vector }

func (l *lazyFill) Len() int { return l.flat.Len() }
func (l *lazyFill) Fill(v *vec.Vector) error {
	v.ShareArrays(l.flat)
	return nil
}

// buildVector lays one column's query-level cells out in the given form.
// A SEQUENCE column is packed in the flat, dictionary and lazy forms and
// plain text in the boxed ones, as a row source delivers it.
func buildVector(t testing.TB, col, form int, cells []sqltypes.Value) *vec.Vector {
	stored := make([]sqltypes.Value, len(cells))
	for i, c := range cells {
		stored[i] = c
		if col == fzSeq && form < formBoxed && !c.IsNull() {
			p, err := seq.Pack(c.S)
			if err != nil {
				t.Fatal(err)
			}
			stored[i] = sqltypes.NewBytes(p.Encode())
		}
	}
	kind := [fzCols]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindString, sqltypes.KindBytes, sqltypes.KindBytes}[col]
	packed := col == fzSeq && form < formBoxed
	switch form {
	case formFlat, formLazy:
		flat := vec.NewVector(kind, len(stored))
		for _, c := range stored {
			flat.Append(c)
		}
		flat.Packed = packed
		if form == formFlat {
			return flat
		}
		return &vec.Vector{Kind: kind, Nulls: flat.Nulls, Packed: packed, Lazy: &lazyFill{flat}}
	case formDict:
		v := &vec.Vector{Kind: kind, Packed: packed, Codes: make([]int32, len(stored)), Dict: vec.NewVector(kind, 0)}
		var entries []sqltypes.Value
		for i, c := range stored {
			if c.IsNull() {
				v.SetNull(i)
				continue
			}
			code := -1
			for d, dv := range entries {
				if dv.K == c.K && sqltypes.Compare(dv, c) == 0 {
					code = d
				}
			}
			if code < 0 {
				code = len(entries)
				entries = append(entries, c)
				v.Dict.Append(c)
			}
			v.Codes[i] = int32(code)
		}
		return v
	}
	v := vec.NewVector(sqltypes.KindNull, len(stored))
	for _, c := range stored {
		v.Append(c)
	}
	return v
}

// fzInput reads the fuzz bytes; past their end every draw is zero.
type fzInput struct {
	data []byte
	pos  int
}

func (g *fzInput) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

func (g *fzInput) lit() Expr    { return lit(fzLits[g.pick(len(fzLits))]) }
func (g *fzInput) needle() Expr { return lit(fzNeedles[g.pick(len(fzNeedles))]) }
func (g *fzInput) cmpOp() CmpOp {
	return CmpOp(g.pick(6))
}

func fzCall(name string, args ...Expr) Expr {
	return &Call{Name: name, Fn: builtins[name], Args: args}
}

// scalar draws a value expression.
func (g *fzInput) scalar(depth int) Expr {
	n := 2
	if depth > 0 {
		n = 8
	}
	switch g.pick(n) {
	case 0:
		return col(g.pick(fzCols))
	case 1:
		return g.lit()
	case 2:
		op := []BinOp{OpAdd, OpSub, OpMul, OpDiv, OpMod}[g.pick(5)]
		return &Arith{Op: op, L: g.scalar(depth - 1), R: g.scalar(depth - 1)}
	case 3:
		return fzCall("charindex", g.scalar(depth-1), g.scalar(depth-1))
	case 4: // three arguments, the column searched or searched for
		if g.pick(2) == 1 {
			return fzCall("charindex", col(g.pick(fzCols)), g.needle(), g.scalar(depth-1))
		}
		return fzCall("charindex", g.needle(), col(g.pick(fzCols)), g.scalar(depth-1))
	case 5:
		return fzCall("substring", g.scalar(depth-1), g.scalar(depth-1), g.scalar(depth-1))
	case 6:
		name := []string{"len", "upper", "lower", "abs", "datalength", "reverse", "cast_int", "cast_float"}[g.pick(8)]
		return fzCall(name, g.scalar(depth-1))
	case 7:
		if g.pick(2) == 1 {
			return fzCall("round", g.scalar(depth-1), g.scalar(depth-1))
		}
	}
	return fzCall("coalesce", g.scalar(depth-1), g.scalar(depth-1))
}

// callOf draws fn(column, constants), the shape a call mask compiles.
func (g *fzInput) callOf(c Expr) Expr {
	switch g.pick(8) {
	case 0:
		return fzCall("charindex", g.needle(), c, g.lit())
	case 1:
		return fzCall("charindex", c, g.needle())
	case 2:
		return fzCall("substring", c, g.lit(), g.lit())
	case 3:
		name := []string{"len", "upper", "lower", "abs", "datalength", "reverse", "cast_int", "cast_float"}[g.pick(8)]
		return fzCall(name, c)
	case 4:
		return fzCall("round", c, g.lit())
	case 5:
		return fzCall("coalesce", c, g.lit())
	}
	return fzCall("charindex", g.needle(), c)
}

// pred draws a boolean expression (TRUE, FALSE or NULL on every row).
func (g *fzInput) pred(depth int) Expr {
	n := 7
	if depth > 0 {
		n = 12
	}
	c := col(g.pick(fzCols))
	switch g.pick(n) {
	case 0:
		return &Cmp{Op: g.cmpOp(), L: c, R: g.lit()}
	case 1:
		return &Cmp{Op: g.cmpOp(), L: g.lit(), R: c}
	case 2:
		return &IsNull{X: c, Negate: g.pick(2) == 1}
	case 3:
		return &Like{X: c, Pattern: fzPatterns[g.pick(len(fzPatterns))]}
	case 4: // IN (...): the parser's OR of equalities
		var in Expr = &Cmp{Op: CmpEq, L: c, R: g.lit()}
		for k := g.pick(3); k > 0; k-- {
			in = &Logic{L: in, R: &Cmp{Op: CmpEq, L: c, R: g.lit()}}
		}
		return in
	case 5: // fn(column, constants) <op> literal, either way round
		call, l := g.callOf(c), lit(fzCmpLits[g.pick(len(fzCmpLits))])
		if g.pick(2) == 1 {
			return &Cmp{Op: g.cmpOp(), L: l, R: call}
		}
		return &Cmp{Op: g.cmpOp(), L: call, R: l}
	case 6:
		return lit([]sqltypes.Value{sqltypes.NewBool(true), sqltypes.NewBool(false), sqltypes.Null}[g.pick(3)])
	case 7, 8:
		return &Logic{And: g.pick(2) == 1, L: g.pred(depth - 1), R: g.pred(depth - 1)}
	case 9:
		return &Not{X: g.pred(depth - 1)}
	case 10:
		return &Cmp{Op: g.cmpOp(), L: g.scalar(depth - 1), R: g.scalar(depth - 1)}
	}
	if g.pick(2) == 1 {
		return &Like{X: g.scalar(depth - 1), Pattern: fzPatterns[g.pick(len(fzPatterns))]}
	}
	return &IsNull{X: g.scalar(depth - 1), Negate: g.pick(2) == 1}
}

// fzTable is rows of query-level cells and a batch holding the same
// cells in drawn forms under a drawn selection.
type fzTable struct {
	rows  []sqltypes.Row
	forms [fzCols]int
	sel   []int
}

func (g *fzInput) table() fzTable {
	tb := fzTable{rows: make([]sqltypes.Row, 1+g.pick(24))}
	for r := range tb.rows {
		tb.rows[r] = make(sqltypes.Row, fzCols)
		for c := range tb.rows[r] {
			if k := g.pick(len(fzDomain[c]) + 1); k < len(fzDomain[c]) {
				tb.rows[r][c] = fzDomain[c][k]
			}
		}
	}
	for c := range tb.forms {
		tb.forms[c] = g.pick(forms)
	}
	sparse := g.pick(2) == 1
	for r := range tb.rows {
		if !sparse || g.pick(3) != 0 {
			tb.sel = append(tb.sel, r)
		}
	}
	return tb
}

// batch builds a fresh batch: Apply shrinks Sel and a lazy column decodes
// once, so each evaluation gets its own.
func (tb fzTable) batch(t testing.TB) *vec.Batch {
	cols := make([]*vec.Vector, fzCols)
	for c := range cols {
		cells := make([]sqltypes.Value, len(tb.rows))
		for r, row := range tb.rows {
			cells[r] = row[c]
		}
		cols[c] = buildVector(t, c, tb.forms[c], cells)
	}
	return &vec.Batch{Cols: cols, Sel: append([]int(nil), tb.sel...)}
}

func sameValue(a, b sqltypes.Value) bool {
	if a.K != b.K {
		return false
	}
	if a.K == sqltypes.KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return sqltypes.Compare(a, b) == 0
}

// checkFilter holds CompileFilter(p).Apply to Truthy(p.Eval(row)).
func checkFilter(t *testing.T, tb fzTable, p Expr) {
	t.Helper()
	var want []int
	var wantErr error
	for _, r := range tb.sel {
		v, err := p.Eval(tb.rows[r])
		if err != nil {
			wantErr = err
			break
		}
		if Truthy(v) {
			want = append(want, r)
		}
	}
	b := tb.batch(t)
	err := CompileFilter(p).Apply(b)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s over forms %v sel %v: compiled error %v, Eval error %v", p, tb.forms, tb.sel, err, wantErr)
	}
	if err == nil && fmt.Sprint(b.Sel) != fmt.Sprint(want) {
		t.Fatalf("%s over forms %v sel %v, rows %v: compiled kept %v, Eval keeps %v", p, tb.forms, tb.sel, tb.rows, b.Sel, want)
	}
}

// checkProjection holds CompileProjection(es).Eval to Eval, cell by cell.
func checkProjection(t *testing.T, tb fzTable, es []Expr) {
	t.Helper()
	var wantErr error
	want := make([]sqltypes.Row, len(tb.rows))
	for _, r := range tb.sel {
		want[r] = make(sqltypes.Row, len(es))
		for i, e := range es {
			v, err := e.Eval(tb.rows[r])
			if err != nil {
				wantErr = err
			}
			want[r][i] = v
		}
	}
	b := tb.batch(t)
	cols, err := CompileProjection(es).Eval(b)
	var got sqltypes.Value
	for _, r := range tb.sel {
		for i := range es {
			if err == nil {
				got, err = cols[i].Value(r) // a passed-through lazy or packed column fails here
			}
			if err == nil && wantErr == nil && !sameValue(got, want[r][i]) {
				t.Fatalf("%s over forms %v, row %d %v: compiled %v (%s), Eval %v (%s)",
					es[i], tb.forms, r, tb.rows[r], got, got.K, want[r][i], want[r][i].K)
			}
		}
	}
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%v over forms %v sel %v: compiled error %v, Eval error %v", es, tb.forms, tb.sel, err, wantErr)
	}
}

func FuzzCompiledExprMatchesEval(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x05\x03\x01\x00\x02\x04\x01\x03\x00\x02\x01\x04\x03\x02\x00\x01\x01\x00\x00\x00\x00\x00\x00\x02\x0b"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fzInput{data: data}
		tb := g.table()
		checkFilter(t, tb, g.pred(3))
		es := make([]Expr, 1+g.pick(3))
		for i := range es {
			if g.pick(3) == 0 {
				es[i] = g.pred(2)
			} else {
				es[i] = g.scalar(3)
			}
		}
		checkProjection(t, tb, es)
	})
}

// TestCompiledExprMatchesEval runs one expression of every compiled shape
// over every column in every form, dense and sparse. It is the part of
// the net that does not depend on what the fuzzer happens to draw: a typed
// compare kernel with < for <= fails here.
func TestCompiledExprMatchesEval(t *testing.T) {
	rows := make([]sqltypes.Row, 0, 16)
	for r := 0; r < 16; r++ {
		row := make(sqltypes.Row, fzCols)
		for c := range row {
			if k := (r*11 + c*3) % (len(fzDomain[c]) + 1); k < len(fzDomain[c]) {
				row[c] = fzDomain[c][k]
			}
		}
		rows = append(rows, row)
	}
	var dense, sparse []int
	for r := range rows {
		dense = append(dense, r)
		if r%3 != 1 {
			sparse = append(sparse, r)
		}
	}
	var preds, scalars []Expr
	for c := 0; c < fzCols; c++ {
		x := col(c)
		for _, l := range fzLits {
			for op := CmpEq; op <= CmpGe; op++ {
				preds = append(preds, &Cmp{Op: op, L: x, R: lit(l)}, &Cmp{Op: op, L: lit(l), R: x})
			}
			preds = append(preds,
				&Cmp{Op: CmpEq, L: fzCall("charindex", lit(l), x), R: lit(i64(0))},
				&Cmp{Op: CmpLt, L: lit(i64(1)), R: fzCall("charindex", lit(l), x)},
				&Cmp{Op: CmpGe, L: &Arith{Op: OpDiv, L: lit(i64(6)), R: x}, R: lit(l)},
				&Logic{L: &Cmp{Op: CmpEq, L: x, R: lit(l)}, R: &Cmp{Op: CmpEq, L: x, R: lit(fzDomain[c][0])}},
			)
			scalars = append(scalars, &Arith{Op: OpAdd, L: x, R: lit(l)}, &Arith{Op: OpMod, L: lit(l), R: x},
				fzCall("substring", x, lit(i64(2)), lit(l)), fzCall("coalesce", x, lit(l)))
		}
		for _, nd := range fzNeedles {
			preds = append(preds,
				&Cmp{Op: CmpEq, L: fzCall("charindex", lit(nd), x), R: lit(i64(0))},
				&Cmp{Op: CmpGt, L: fzCall("charindex", lit(nd), x, lit(i64(2))), R: lit(i64(1))},
				&Cmp{Op: CmpNe, L: lit(i64(0)), R: fzCall("charindex", x, lit(nd))})
			scalars = append(scalars, fzCall("charindex", lit(nd), x), fzCall("charindex", x, lit(nd), lit(i64(2))))
		}
		for _, l := range fzCmpLits {
			preds = append(preds,
				&Cmp{Op: CmpLe, L: fzCall("charindex", lit(str("N")), x), R: lit(l)},
				&Cmp{Op: CmpEq, L: fzCall("len", x), R: lit(l)},
				&Cmp{Op: CmpGe, L: fzCall("upper", x), R: lit(l)})
		}
		for _, p := range fzPatterns {
			preds = append(preds, &Like{X: x, Pattern: p}, &Not{X: &Like{X: x, Pattern: p}})
		}
		isNull := &IsNull{X: x}
		notNull := &IsNull{X: x, Negate: true}
		small := &Cmp{Op: CmpLt, L: x, R: lit(i64(2))}
		preds = append(preds, isNull, notNull, &Not{X: small},
			&Logic{And: true, L: notNull, R: small}, &Logic{L: isNull, R: small},
			&Logic{And: true, L: small, R: &Cmp{Op: CmpGt, L: &Arith{Op: OpDiv, L: lit(i64(1)), R: col(fzInt)}, R: lit(i64(0))}},
			&Logic{L: &Not{X: small}, R: lit(sqltypes.Null)})
		scalars = append(scalars, x, fzCall("len", x), fzCall("upper", x), &Arith{Op: OpMul, L: x, R: col(fzFloat)},
			fzCall("lower", x), fzCall("reverse", x), fzCall("datalength", x), fzCall("abs", x),
			fzCall("round", x, lit(i64(1))), fzCall("cast_int", x), fzCall("cast_float", x), fzCall("coalesce", x, lit(str("z"))))
	}
	scalars = append(scalars, lit(sqltypes.Null), lit(i64(5)), lit(str("x")))
	for form := 0; form < forms; form++ {
		for _, sel := range [][]int{dense, sparse} {
			tb := fzTable{rows: rows, sel: sel}
			for c := range tb.forms {
				tb.forms[c] = form
			}
			for _, p := range preds {
				checkFilter(t, tb, p)
				checkProjection(t, tb, []Expr{p})
			}
			for _, e := range scalars {
				checkProjection(t, tb, []Expr{e, col(fzStr)})
			}
		}
	}
}
