package expr

import (
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/vec"
)

func i64(v int64) sqltypes.Value   { return sqltypes.NewInt(v) }
func f64(v float64) sqltypes.Value { return sqltypes.NewFloat(v) }
func str(s string) sqltypes.Value  { return sqltypes.NewString(s) }
func lit(v sqltypes.Value) Expr    { return &Lit{V: v} }
func col(i int) Expr               { return &Col{Idx: i} }
func mustEval(t *testing.T, e Expr, row sqltypes.Row) sqltypes.Value {
	t.Helper()
	v, err := e.Eval(row)
	if err != nil {
		t.Fatalf("%s: %v", e, err)
	}
	return v
}

func TestColAndLit(t *testing.T) {
	row := sqltypes.Row{i64(7), str("x")}
	if v := mustEval(t, col(0), row); v.I != 7 {
		t.Errorf("col 0 = %v", v)
	}
	if v := mustEval(t, lit(str("c")), row); v.S != "c" {
		t.Errorf("lit = %v", v)
	}
	if _, err := col(5).Eval(row); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestArithInts(t *testing.T) {
	cases := []struct {
		op   BinOp
		l, r int64
		want int64
	}{
		{OpAdd, 2, 3, 5},
		{OpSub, 2, 3, -1},
		{OpMul, 4, 3, 12},
		{OpDiv, 7, 2, 3}, // T-SQL integer division
		{OpMod, 7, 2, 1},
	}
	for _, c := range cases {
		e := &Arith{Op: c.op, L: lit(i64(c.l)), R: lit(i64(c.r))}
		if v := mustEval(t, e, nil); v.K != sqltypes.KindInt || v.I != c.want {
			t.Errorf("%d %c %d = %v, want %d", c.l, c.op, c.r, v, c.want)
		}
	}
}

func TestArithFloatsAndMixed(t *testing.T) {
	e := &Arith{Op: OpDiv, L: lit(i64(7)), R: lit(f64(2))}
	if v := mustEval(t, e, nil); v.K != sqltypes.KindFloat || v.F != 3.5 {
		t.Errorf("7 / 2.0 = %v", v)
	}
	if _, err := (&Arith{Op: OpDiv, L: lit(i64(1)), R: lit(i64(0))}).Eval(nil); err == nil {
		t.Error("integer division by zero accepted")
	}
	if _, err := (&Arith{Op: OpDiv, L: lit(f64(1)), R: lit(f64(0))}).Eval(nil); err == nil {
		t.Error("float division by zero accepted")
	}
}

func TestStringConcat(t *testing.T) {
	e := &Arith{Op: OpAdd, L: lit(str("chr")), R: lit(i64(7))}
	if v := mustEval(t, e, nil); v.S != "chr7" {
		t.Errorf("concat = %v", v)
	}
}

func TestArithNullPropagates(t *testing.T) {
	e := &Arith{Op: OpAdd, L: lit(sqltypes.Null), R: lit(i64(1))}
	if v := mustEval(t, e, nil); !v.IsNull() {
		t.Errorf("NULL + 1 = %v", v)
	}
}

func TestCmp(t *testing.T) {
	cases := []struct {
		op   CmpOp
		l, r sqltypes.Value
		want bool
	}{
		{CmpEq, i64(1), i64(1), true},
		{CmpNe, i64(1), i64(2), true},
		{CmpLt, str("a"), str("b"), true},
		{CmpLe, i64(2), i64(2), true},
		{CmpGt, f64(2.5), i64(2), true},
		{CmpGe, i64(1), i64(2), false},
	}
	for _, c := range cases {
		e := &Cmp{Op: c.op, L: lit(c.l), R: lit(c.r)}
		if v := mustEval(t, e, nil); v.Bool() != c.want {
			t.Errorf("%v %s %v = %v", c.l, c.op, c.r, v)
		}
	}
	// NULL comparisons are unknown.
	e := &Cmp{Op: CmpEq, L: lit(sqltypes.Null), R: lit(sqltypes.Null)}
	if v := mustEval(t, e, nil); !v.IsNull() {
		t.Errorf("NULL = NULL evaluated to %v", v)
	}
}

func TestLogicThreeValued(t *testing.T) {
	tr, fa, nu := lit(sqltypes.NewBool(true)), lit(sqltypes.NewBool(false)), lit(sqltypes.Null)
	// AND truth table rows with NULL.
	if v := mustEval(t, &Logic{And: true, L: fa, R: nu}, nil); v.Bool() || v.IsNull() {
		if v.IsNull() {
			t.Error("FALSE AND NULL should be FALSE")
		}
	}
	if v := mustEval(t, &Logic{And: true, L: nu, R: fa}, nil); v.IsNull() || v.Bool() {
		t.Error("NULL AND FALSE should be FALSE")
	}
	if v := mustEval(t, &Logic{And: true, L: tr, R: nu}, nil); !v.IsNull() {
		t.Error("TRUE AND NULL should be NULL")
	}
	if v := mustEval(t, &Logic{And: false, L: nu, R: tr}, nil); v.IsNull() || !v.Bool() {
		t.Error("NULL OR TRUE should be TRUE")
	}
	if v := mustEval(t, &Logic{And: false, L: nu, R: fa}, nil); !v.IsNull() {
		t.Error("NULL OR FALSE should be NULL")
	}
	if v := mustEval(t, &Not{X: nu}, nil); !v.IsNull() {
		t.Error("NOT NULL should be NULL")
	}
	if v := mustEval(t, &Not{X: tr}, nil); v.Bool() {
		t.Error("NOT TRUE = TRUE")
	}
}

func TestIsNull(t *testing.T) {
	if v := mustEval(t, &IsNull{X: lit(sqltypes.Null)}, nil); !v.Bool() {
		t.Error("NULL IS NULL = false")
	}
	if v := mustEval(t, &IsNull{X: lit(i64(1)), Negate: true}, nil); !v.Bool() {
		t.Error("1 IS NOT NULL = false")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"chr12", "chr%", true},
		{"chr12", "CHR1_", true},
		{"chr12", "chr", false},
		{"GATTACA", "%TTA%", true},
		{"GATTACA", "G_T%", true},
		{"", "%", true},
		{"abc", "a%c", true},
		{"abc", "a%d", false},
	}
	for _, c := range cases {
		e := &Like{X: lit(str(c.s)), Pattern: c.p}
		if v := mustEval(t, e, nil); v.Bool() != c.want {
			t.Errorf("%q LIKE %q = %v, want %v", c.s, c.p, v.Bool(), c.want)
		}
	}
}

func TestBuiltins(t *testing.T) {
	reg := NewRegistry()
	callv := func(name string, args ...sqltypes.Value) sqltypes.Value {
		t.Helper()
		fn, ok := reg.Lookup(name)
		if !ok {
			t.Fatalf("missing builtin %s", name)
		}
		v, err := fn.Eval(args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return v
	}
	// CHARINDEX: the Query 1 predicate.
	if v := callv("CHARINDEX", str("N"), str("ACGT")); v.I != 0 {
		t.Errorf("CHARINDEX(N, ACGT) = %v", v)
	}
	if v := callv("charindex", str("N"), str("ACNGT")); v.I != 3 {
		t.Errorf("CHARINDEX(N, ACNGT) = %v", v)
	}
	if v := callv("DATALENGTH", str("abcd")); v.I != 4 {
		t.Errorf("DATALENGTH = %v", v)
	}
	if v := callv("LEN", str("acgt")); v.I != 4 {
		t.Errorf("LEN = %v", v)
	}
	if v := callv("UPPER", str("acgt")); v.S != "ACGT" {
		t.Errorf("UPPER = %v", v)
	}
	if v := callv("SUBSTRING", str("GATTACA"), i64(2), i64(3)); v.S != "ATT" {
		t.Errorf("SUBSTRING = %v", v)
	}
	if v := callv("SUBSTRING", str("GATTACA"), i64(6), i64(10)); v.S != "CA" {
		t.Errorf("SUBSTRING clamp = %v", v)
	}
	if v := callv("ABS", i64(-5)); v.I != 5 {
		t.Errorf("ABS = %v", v)
	}
	if v := callv("ROUND", f64(2.567), i64(2)); v.F != 2.57 {
		t.Errorf("ROUND = %v", v)
	}
	if v := callv("REVERSE", str("ACGT")); v.S != "TGCA" {
		t.Errorf("REVERSE = %v", v)
	}
	if v := callv("COALESCE", sqltypes.Null, str("x")); v.S != "x" {
		t.Errorf("COALESCE = %v", v)
	}
}

// TestCharIndexEmptyNeedle pins T-SQL's answer for an empty search text,
// 0 (never found), in the boxed form and in the kernel, beside NULL and
// three-argument cases.
func TestCharIndexEmptyNeedle(t *testing.T) {
	fn := builtins["charindex"]
	cases := []struct {
		args []sqltypes.Value
		want sqltypes.Value
	}{
		{[]sqltypes.Value{str(""), str("abc")}, i64(0)},
		{[]sqltypes.Value{str(""), str("")}, i64(0)},
		{[]sqltypes.Value{str(""), str("abc"), i64(2)}, i64(0)},
		{[]sqltypes.Value{str(""), sqltypes.Null}, sqltypes.Null},
		{[]sqltypes.Value{sqltypes.Null, str("abc")}, sqltypes.Null},
		{[]sqltypes.Value{str("b"), str("abcb"), sqltypes.Null}, sqltypes.Null},
		{[]sqltypes.Value{str("b"), str("abcb"), i64(3)}, i64(4)},
		{[]sqltypes.Value{str("b"), str("abcb"), i64(-5)}, i64(2)},
		{[]sqltypes.Value{str("b"), str("abcb"), i64(9)}, i64(0)},
	}
	for _, c := range cases {
		got, err := fn.Eval(c.args)
		if err != nil || !sameValue(got, c.want) {
			t.Errorf("CHARINDEX%v = %v, %v; want %v", c.args, got, err, c.want)
		}
		// The kernel, with the haystack as a column of one cell.
		args := []Expr{lit(c.args[0]), col(0)}
		if len(c.args) == 3 {
			args = append(args, lit(c.args[2]))
		}
		hay := vec.NewVector(sqltypes.KindString, 1)
		hay.Append(c.args[1])
		cols, err := CompileProjection([]Expr{&Call{Name: "CHARINDEX", Fn: fn, Args: args}}).Eval(vec.NewBatch([]*vec.Vector{hay}, 1))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := cols[0].Value(0); err != nil || !sameValue(got, c.want) {
			t.Errorf("compiled CHARINDEX%v = %v, %v; want %v", c.args, got, err, c.want)
		}
	}
}

func TestRegistryUserFunctions(t *testing.T) {
	reg := NewRegistry()
	reg.Register("ReverseComplement", func(args []sqltypes.Value) (sqltypes.Value, error) {
		return str("TGCA"), nil
	})
	fn, ok := reg.Lookup("reversecomplement")
	if !ok {
		t.Fatal("UDF not found case-insensitively")
	}
	v, _ := fn.Eval(nil)
	if v.S != "TGCA" {
		t.Error("UDF result wrong")
	}
	if _, ok := reg.Lookup("nope"); ok {
		t.Error("unknown function resolved")
	}
}

func TestCallEval(t *testing.T) {
	reg := NewRegistry()
	fn, _ := reg.Lookup("charindex")
	e := &Call{Name: "CHARINDEX", Fn: fn, Args: []Expr{lit(str("N")), col(0)}}
	v := mustEval(t, e, sqltypes.Row{str("ACNGT")})
	if v.I != 3 {
		t.Errorf("call = %v", v)
	}
}

func TestTruthy(t *testing.T) {
	if Truthy(sqltypes.Null) {
		t.Error("NULL is truthy")
	}
	if Truthy(sqltypes.NewBool(false)) {
		t.Error("false is truthy")
	}
	if !Truthy(sqltypes.NewBool(true)) {
		t.Error("true is not truthy")
	}
	if Truthy(sqltypes.NewInt(1)) {
		t.Error("int 1 is truthy (predicates must be boolean)")
	}
}
