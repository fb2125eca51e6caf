// Package expr implements scalar expression evaluation over rows: column
// references, literals, arithmetic with T-SQL coercions (integer division,
// '+' as string concatenation), comparisons with SQL three-valued logic,
// and the scalar function registry that hosts both built-ins (CHARINDEX,
// DATALENGTH, ...) and user-defined scalar functions — the engine's
// equivalent of CLR scalar UDFs (paper Section 2.3.2).
//
// Eval interprets an expression by walking the tree, boxing every
// intermediate into a Value: the "T-SQL interpreter" cost model of the
// paper's Section 5.2, where per-row interpretation is what makes the
// T-SQL stored procedure orders of magnitude slower than the compiled
// ("CLR") chunked scan. Operators run the compiled forms instead
// (CompileFilter, CompileProjection: typed vector kernels); Eval stays as
// their reference, for constants, for an external sort's row keys and for
// the script ablation.
package expr

import (
	"fmt"
	"strings"

	"repro/internal/sqltypes"
)

// Expr is a scalar expression evaluable against a row.
type Expr interface {
	Eval(row sqltypes.Row) (sqltypes.Value, error)
	String() string
}

// Col references an input column by position.
type Col struct {
	Idx  int
	Name string // for display only
}

// Eval returns the column value.
func (c *Col) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	if c.Idx < 0 || c.Idx >= len(row) {
		return sqltypes.Null, fmt.Errorf("expr: column index %d out of range (%d columns)", c.Idx, len(row))
	}
	return row[c.Idx], nil
}

func (c *Col) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("[%d]", c.Idx)
}

// Lit is a constant.
type Lit struct{ V sqltypes.Value }

// Eval returns the constant.
func (l *Lit) Eval(sqltypes.Row) (sqltypes.Value, error) { return l.V, nil }

func (l *Lit) String() string {
	if l.V.K == sqltypes.KindString {
		return "'" + strings.ReplaceAll(l.V.S, "'", "''") + "'"
	}
	return l.V.String()
}

// BinOp enumerates arithmetic operators.
type BinOp byte

// Arithmetic operators.
const (
	OpAdd BinOp = '+'
	OpSub BinOp = '-'
	OpMul BinOp = '*'
	OpDiv BinOp = '/'
	OpMod BinOp = '%'
)

// Arith applies an arithmetic operator with T-SQL semantics: NULL
// propagates; '+' concatenates strings; integer op integer stays integer
// (including division).
type Arith struct {
	Op   BinOp
	L, R Expr
}

// Eval applies the operator.
func (a *Arith) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := a.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := a.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return arith(a.Op, l, r)
}

// arith is l op r over two values.
func arith(op BinOp, l, r sqltypes.Value) (sqltypes.Value, error) {
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	if op == OpAdd && (l.K == sqltypes.KindString || r.K == sqltypes.KindString) {
		return sqltypes.NewString(l.AsString() + r.AsString()), nil
	}
	if l.K == sqltypes.KindFloat || r.K == sqltypes.KindFloat {
		lf, err := l.AsFloat()
		if err != nil {
			return sqltypes.Null, err
		}
		rf, err := r.AsFloat()
		if err != nil {
			return sqltypes.Null, err
		}
		f, err := floatArith(op, lf, rf)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(f), nil
	}
	li, err := l.AsInt()
	if err != nil {
		return sqltypes.Null, err
	}
	ri, err := r.AsInt()
	if err != nil {
		return sqltypes.Null, err
	}
	n, err := intArith(op, li, ri)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.NewInt(n), nil
}

func floatArith(op BinOp, l, r float64) (float64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero")
		}
		return l / r, nil
	case OpMod:
		return 0, fmt.Errorf("expr: %% requires integers")
	}
	return 0, fmt.Errorf("expr: unknown operator %c", op)
}

func intArith(op BinOp, l, r int64) (int64, error) {
	switch op {
	case OpAdd:
		return l + r, nil
	case OpSub:
		return l - r, nil
	case OpMul:
		return l * r, nil
	case OpDiv:
		if r == 0 {
			return 0, fmt.Errorf("expr: division by zero")
		}
		return l / r, nil
	case OpMod:
		if r == 0 {
			return 0, fmt.Errorf("expr: modulo by zero")
		}
		return l % r, nil
	}
	return 0, fmt.Errorf("expr: unknown operator %c", op)
}

func (a *Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", a.L, a.Op, a.R)
}

// CmpOp enumerates comparison operators.
type CmpOp int

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[op]
}

// Cmp compares two expressions under three-valued logic: any NULL operand
// yields NULL (unknown).
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval compares.
func (c *Cmp) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := c.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	r, err := c.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return sqltypes.Null, nil
	}
	cmp := sqltypes.Compare(l, r)
	var out bool
	switch c.Op {
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
	return sqltypes.NewBool(out), nil
}

func (c *Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L, c.Op, c.R)
}

// Logic is AND/OR with SQL three-valued semantics.
type Logic struct {
	And  bool
	L, R Expr
}

// Eval applies Kleene logic.
func (g *Logic) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	l, err := g.L.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	// Short circuits that are valid under 3VL.
	if g.And && l.K == sqltypes.KindBool && !l.Bool() {
		return sqltypes.NewBool(false), nil
	}
	if !g.And && l.K == sqltypes.KindBool && l.Bool() {
		return sqltypes.NewBool(true), nil
	}
	r, err := g.R.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	lb, lNull := l.Bool(), l.IsNull()
	rb, rNull := r.Bool(), r.IsNull()
	if g.And {
		switch {
		case !lNull && !rNull:
			return sqltypes.NewBool(lb && rb), nil
		case (!lNull && !lb) || (!rNull && !rb):
			return sqltypes.NewBool(false), nil
		default:
			return sqltypes.Null, nil
		}
	}
	switch {
	case !lNull && !rNull:
		return sqltypes.NewBool(lb || rb), nil
	case (!lNull && lb) || (!rNull && rb):
		return sqltypes.NewBool(true), nil
	default:
		return sqltypes.Null, nil
	}
}

func (g *Logic) String() string {
	op := "OR"
	if g.And {
		op = "AND"
	}
	return fmt.Sprintf("(%s %s %s)", g.L, op, g.R)
}

// Not negates a boolean; NULL stays NULL.
type Not struct{ X Expr }

// Eval negates.
func (n *Not) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := n.X.Eval(row)
	if err != nil || v.IsNull() {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(!v.Bool()), nil
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.X) }

// IsNull implements IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// Eval tests nullness.
func (i *IsNull) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := i.X.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	return sqltypes.NewBool(v.IsNull() != i.Negate), nil
}

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", i.X)
	}
	return fmt.Sprintf("(%s IS NULL)", i.X)
}

// Like implements the SQL LIKE operator with % and _ wildcards.
type Like struct {
	X       Expr
	Pattern string
}

// Eval matches the pattern.
func (l *Like) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	v, err := l.X.Eval(row)
	if err != nil {
		return sqltypes.Null, err
	}
	if v.IsNull() {
		return sqltypes.Null, nil
	}
	return sqltypes.NewBool(likeMatch(v.AsString(), l.Pattern)), nil
}

func (l *Like) String() string { return fmt.Sprintf("(%s LIKE '%s')", l.X, l.Pattern) }

// likeMatch performs case-insensitive LIKE matching.
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// Call invokes a scalar function. Eval calls its boxed form; compiled
// (CompileFilter, CompileProjection), it runs the vector form of the same
// registry entry, or the boxed form through the adapter when it has none.
type Call struct {
	Name string
	Fn   Func
	Args []Expr
}

// Eval evaluates arguments then applies the function's boxed form.
func (c *Call) Eval(row sqltypes.Row) (sqltypes.Value, error) {
	args := make([]sqltypes.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(row)
		if err != nil {
			return sqltypes.Null, err
		}
		args[i] = v
	}
	return c.Fn.Eval(args)
}

func (c *Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", c.Name, strings.Join(parts, ", "))
}

// Truthy reports whether a predicate value passes a WHERE filter (NULL and
// false both fail).
func Truthy(v sqltypes.Value) bool {
	return v.K == sqltypes.KindBool && v.I != 0
}
