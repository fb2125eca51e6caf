package expr

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/sqltypes"
)

// ScalarFunc is the boxed form of a scalar function: one row's argument
// values in, one value out. A user-defined function (the paper's CLR
// scalar UDF) is registered in this form alone.
type ScalarFunc func(args []sqltypes.Value) (sqltypes.Value, error)

// Func is one registry entry: a scalar function in its two forms. Eval,
// the boxed form, serves Call.Eval, evaluation of constant arguments and
// the reference the compiled forms are fuzzed against. The vector form —
// typed argument vectors and a selection in, a typed vector out — belongs
// to the engine's built-ins; a function registered boxed (a user's, or
// core's NEWID) compiles through the boxed adapter instead. A Call takes
// both forms from the one entry, so registering a name replaces both and a
// user's function is never paired with a built-in's kernel.
type Func struct {
	Eval   ScalarFunc
	vector *kernel
}

// Registry resolves scalar function names case-insensitively.
type Registry struct {
	fns map[string]Func
}

// NewRegistry returns a registry pre-loaded with the T-SQL built-ins used
// by the paper's queries.
func NewRegistry() *Registry {
	r := &Registry{fns: map[string]Func{}}
	for name, fn := range builtins {
		r.fns[name] = fn
	}
	return r
}

// Register adds (or replaces, both forms) a scalar function given in its
// boxed form.
func (r *Registry) Register(name string, fn ScalarFunc) {
	r.fns[strings.ToLower(name)] = Func{Eval: fn}
}

// Lookup resolves a function by name.
func (r *Registry) Lookup(name string) (Func, bool) {
	fn, ok := r.fns[strings.ToLower(name)]
	return fn, ok
}

func argCheck(name string, args []sqltypes.Value, want int) error {
	if len(args) != want {
		return fmt.Errorf("expr: %s expects %d arguments, got %d", name, want, len(args))
	}
	return nil
}

var builtins = map[string]Func{
	// CHARINDEX(substring, string [, start]) — 1-based position, 0 when
	// absent (an empty substring is never found, as in T-SQL); the optional
	// start offset begins the search there. Query 1 uses
	// CHARINDEX('N', short_read_seq) = 0 to skip uncertain reads.
	"charindex": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 2 && len(args) != 3 {
			return sqltypes.Null, fmt.Errorf("expr: CHARINDEX expects 2 or 3 arguments, got %d", len(args))
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		from := int64(1)
		if len(args) == 3 {
			if args[2].IsNull() {
				return sqltypes.Null, nil
			}
			var err error
			if from, err = args[2].AsInt(); err != nil {
				return sqltypes.Null, err
			}
		}
		return sqltypes.NewInt(charIndex(args[1].AsString(), args[0].AsString(), from)), nil
	}, vector: &kernel{eval: perRow(2, 3, sqltypes.KindInt, func(a []arg, s int, out *result) (err error) {
		from := int64(1)
		if len(a) == 3 {
			if from, err = a[2].int(s); err != nil {
				return err
			}
		}
		needle, err := a[0].text(s)
		if err != nil {
			return err
		}
		if hay := a[1].v; hay != nil && hay.Offs != nil {
			out.v.Ints[s], err = searchCell(hay, s, needle, from)
			return err
		}
		hay, err := a[1].text(s)
		out.v.Ints[s] = charIndex(hay, needle, from)
		return err
	}), cmp: charindexMask}},
	// DATALENGTH(x) — byte length of the value.
	"datalength": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("DATALENGTH", args, 1); err != nil {
			return sqltypes.Null, err
		}
		v := args[0]
		if n, ok := dataLength(v.K); ok {
			return sqltypes.NewInt(n), nil
		}
		switch v.K {
		case sqltypes.KindString:
			return sqltypes.NewInt(int64(len(v.S))), nil
		case sqltypes.KindBytes:
			return sqltypes.NewInt(int64(len(v.B))), nil
		}
		return sqltypes.Null, nil
	}, vector: &kernel{eval: perRow(1, 1, sqltypes.KindInt, func(a []arg, s int, out *result) error {
		k, ok := a[0].kind()
		if !ok { // a generic vector: this cell's kind
			v, err := a[0].value(s)
			if err != nil {
				return err
			}
			k = v.K
		}
		if n, ok := dataLength(k); ok {
			out.v.Ints[s] = n
			return nil
		}
		if k != sqltypes.KindString && k != sqltypes.KindBytes {
			out.null(s)
			return nil
		}
		t, err := a[0].text(s)
		out.v.Ints[s] = int64(len(t))
		return err
	})}},
	"len": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("LEN", args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewInt(int64(len(args[0].AsString()))), nil
	}, vector: &kernel{eval: perRow(1, 1, sqltypes.KindInt, func(a []arg, s int, out *result) error {
		t, err := a[0].text(s)
		out.v.Ints[s] = int64(len(t))
		return err
	})}},
	"upper": textFunc("UPPER", func(dst []byte, s string) []byte { return appendCase(dst, s, true) }),
	"lower": textFunc("LOWER", func(dst []byte, s string) []byte { return appendCase(dst, s, false) }),
	// SUBSTRING(s, start, len) — 1-based start, T-SQL clamping.
	"substring": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("SUBSTRING", args, 3); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() || args[2].IsNull() {
			return sqltypes.Null, nil
		}
		start, err := args[1].AsInt()
		if err != nil {
			return sqltypes.Null, err
		}
		length, err := args[2].AsInt()
		if err != nil {
			return sqltypes.Null, err
		}
		s, err := substring(args[0].AsString(), start, length)
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewString(s), nil
	}, vector: &kernel{eval: perRow(3, 3, sqltypes.KindString, func(a []arg, s int, out *result) error {
		start, err := a[1].int(s)
		if err != nil {
			return err
		}
		length, err := a[2].int(s)
		if err != nil {
			return err
		}
		t, err := a[0].text(s)
		if err == nil {
			t, err = substring(t, start, length)
		}
		out.text(s, t)
		return err
	})}},
	"abs": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("ABS", args, 1); err != nil {
			return sqltypes.Null, err
		}
		v := args[0]
		switch v.K {
		case sqltypes.KindNull:
			return sqltypes.Null, nil
		case sqltypes.KindInt:
			if v.I < 0 {
				return sqltypes.NewInt(-v.I), nil
			}
			return v, nil
		case sqltypes.KindFloat:
			return sqltypes.NewFloat(math.Abs(v.F)), nil
		}
		return sqltypes.Null, fmt.Errorf("expr: ABS requires a number")
	}, vector: &kernel{eval: func(args []arg, sel []int, out *result) (bool, error) {
		// INT and FLOAT cells; any other kind is an error the boxed form reports.
		if len(args) != 1 {
			return false, nil
		}
		switch k, _ := args[0].kind(); k {
		case sqltypes.KindInt:
			return true, rows(args, sel, out, k, func(a []arg, s int, out *result) error {
				n, err := a[0].int(s)
				out.v.Ints[s] = max(n, -n)
				return err
			})
		case sqltypes.KindFloat:
			return true, rows(args, sel, out, k, func(a []arg, s int, out *result) error {
				f, err := a[0].float(s)
				out.v.Floats[s] = math.Abs(f)
				return err
			})
		}
		return false, nil
	}}},
	"round": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("ROUND", args, 2); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return sqltypes.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return sqltypes.Null, err
		}
		d, err := args[1].AsInt()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(roundTo(f, d)), nil
	}, vector: &kernel{eval: perRow(2, 2, sqltypes.KindFloat, func(a []arg, s int, out *result) error {
		f, err := a[0].float(s)
		if err != nil {
			return err
		}
		d, err := a[1].int(s)
		out.v.Floats[s] = roundTo(f, d)
		return err
	})}},
	"reverse": textFunc("REVERSE", func(dst []byte, s string) []byte {
		for i := len(s) - 1; i >= 0; i-- {
			dst = append(dst, s[i])
		}
		return dst
	}),
	"coalesce": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return sqltypes.Null, nil
	}, vector: &kernel{eval: func(args []arg, sel []int, out *result) (bool, error) {
		// Arguments whose cells are of one kind, NULL constants aside.
		kind := sqltypes.KindNull
		for i := range args {
			k, ok := args[i].kind()
			if !ok || k != sqltypes.KindNull && kind != sqltypes.KindNull && k != kind {
				return false, nil
			}
			kind = max(kind, k) // KindNull is the least kind
		}
		out.start(kind, 0)
	next:
		for _, s := range sel {
			for i := range args {
				if a := &args[i]; !a.null(s) {
					var err error
					switch kind {
					case sqltypes.KindFloat:
						out.v.Floats[s], err = a.float(s)
					case sqltypes.KindInt, sqltypes.KindBool:
						out.v.Ints[s], err = a.int(s)
					default:
						var t string
						t, err = a.text(s)
						out.text(s, t)
					}
					if err != nil {
						return true, err
					}
					continue next
				}
			}
			out.null(s)
		}
		return true, nil
	}}},
	"cast_int": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("CAST_INT", args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		n, err := args[0].AsInt()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewInt(n), nil
	}, vector: &kernel{eval: perRow(1, 1, sqltypes.KindInt, func(a []arg, s int, out *result) (err error) {
		out.v.Ints[s], err = a[0].int(s)
		return err
	})}},
	"cast_float": {Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck("CAST_FLOAT", args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return sqltypes.Null, err
		}
		return sqltypes.NewFloat(f), nil
	}, vector: &kernel{eval: perRow(1, 1, sqltypes.KindFloat, func(a []arg, s int, out *result) (err error) {
		out.v.Floats[s], err = a[0].float(s)
		return err
	})}},
}

// The rules the two forms share.

// charIndex is CHARINDEX over one cell: the 1-based position of needle in
// hay at or after from, or 0.
func charIndex(hay, needle string, from int64) int64 {
	if from < 1 {
		from = 1
	}
	if needle == "" || from > int64(len(hay)) {
		return 0
	}
	var i int
	if len(needle) == 1 {
		i = strings.IndexByte(hay[from-1:], needle[0])
	} else {
		i = strings.Index(hay[from-1:], needle)
	}
	if i < 0 {
		return 0
	}
	return from + int64(i)
}

// dataLength is DATALENGTH of a value of a fixed-width kind; false for
// text, whose length is its own.
func dataLength(k sqltypes.Kind) (int64, bool) {
	switch k {
	case sqltypes.KindInt, sqltypes.KindFloat:
		return 8, true
	case sqltypes.KindBool:
		return 1, true
	}
	return 0, false
}

func substring(s string, start, length int64) (string, error) {
	if length < 0 {
		return "", fmt.Errorf("expr: SUBSTRING length must be non-negative")
	}
	lo := start - 1
	if lo < 0 {
		length += lo
		lo = 0
	}
	if lo >= int64(len(s)) || length <= 0 {
		return "", nil
	}
	return s[lo:min(lo+length, int64(len(s)))], nil
}

func roundTo(f float64, d int64) float64 {
	scale := math.Pow(10, float64(d))
	return math.Round(f*scale) / scale
}

// appendCase appends strings.ToUpper(s), or ToLower, to dst — byte by
// byte when s is ASCII.
func appendCase(dst []byte, s string, upper bool) []byte {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			if upper {
				return append(dst, strings.ToUpper(s)...)
			}
			return append(dst, strings.ToLower(s)...)
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// textFunc is a one-argument text-to-text built-in in both forms: f
// appends the result for one argument's text.
func textFunc(name string, f func(dst []byte, s string) []byte) Func {
	return Func{Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		if err := argCheck(name, args, 1); err != nil {
			return sqltypes.Null, err
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(string(f(nil, args[0].AsString()))), nil
	}, vector: &kernel{eval: perRow(1, 1, sqltypes.KindString, func(a []arg, s int, out *result) error {
		t, err := a[0].text(s)
		out.pad(s)
		out.v.Data = f(out.v.Data, t)
		out.end(s)
		return err
	})}}
}
