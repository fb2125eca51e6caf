package vec_test

import (
	"fmt"
	"testing"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// The copy kernels against boxed values. FuzzVectorKernels draws a run of
// source vectors from its input bytes — each of one column kind (INT,
// FLOAT, BOOL, STRING, BYTES or a packed SEQUENCE) in one physical form
// (flat, dictionary, lazy, generic), NULLs under a bitmap grown only to the
// last NULL row, empty cells and empty vectors among them — and holds Len,
// Value, Gather and AppendRows to the query-level values the vectors were
// built from, and every form to the one NULL rule: a cell is NULL exactly
// when Nulls marks it. One column grows across the run by AppendRows, so a source
// of another form or kind mid-stream turns it generic (appendBoxed)
// without changing a value.

// Column kinds; fkSeq is a SEQUENCE: text to a query, packed bytes stored.
const (
	fkInt = iota
	fkFloat
	fkBool
	fkStr
	fkBytes
	fkSeq
	fkinds
)

var fkDomain = [fkinds][]sqltypes.Value{
	fkInt:   {sqltypes.NewInt(-3), sqltypes.NewInt(0), sqltypes.NewInt(1), sqltypes.NewInt(1 << 40)},
	fkFloat: {sqltypes.NewFloat(-1.5), sqltypes.NewFloat(0), sqltypes.NewFloat(2)},
	fkBool:  {sqltypes.NewBool(false), sqltypes.NewBool(true)},
	fkStr:   {sqltypes.NewString(""), sqltypes.NewString("a"), sqltypes.NewString("ACGT"), sqltypes.NewString("ACGTACGTACGTACGTACGTACGTACGTACGTACGT")},
	fkBytes: {sqltypes.NewBytes([]byte{}), sqltypes.NewBytes([]byte{0}), sqltypes.NewBytes([]byte("ab\xff"))},
	fkSeq:   {sqltypes.NewString(""), sqltypes.NewString("ACGT"), sqltypes.NewString("NACGTTGCA"), sqltypes.NewString("T")},
}

// Vector forms.
const (
	ffFlat = iota
	ffDict
	ffLazy
	ffBoxed // Vals, NULLs under a null bit
	fforms
)

// fkIn reads the fuzz bytes; past their end every draw is zero.
type fkIn struct {
	data []byte
	pos  int
}

func (g *fkIn) pick(n int) int {
	if g.pos >= len(g.data) {
		return 0
	}
	g.pos++
	return int(g.data[g.pos-1]) % n
}

// sharedArrays is a LazyColumn whose Fill hands over a prepared flat
// vector's arrays.
type sharedArrays struct{ flat *vec.Vector }

func (l *sharedArrays) Len() int { return l.flat.Len() }
func (l *sharedArrays) Fill(v *vec.Vector) error {
	v.ShareArrays(l.flat)
	return nil
}

// dictionaryOf returns a dictionary vector of kind over entries, row i
// taking entry codes[i] (ignored under a null bit).
func dictionaryOf(kind sqltypes.Kind, entries []sqltypes.Value, codes []int32) *vec.Vector {
	dict := vec.NewVector(kind, len(entries))
	for _, e := range entries {
		dict.Append(e)
	}
	return &vec.Vector{Kind: kind, Codes: codes, Dict: dict}
}

// buildForm lays a column's query-level cells out in the given form. A
// SEQUENCE is packed bytes in every form but the generic one, which holds
// its text as a row source delivers it.
func buildForm(t testing.TB, k, form int, cells []sqltypes.Value) *vec.Vector {
	kind := [fkinds]sqltypes.Kind{sqltypes.KindInt, sqltypes.KindFloat, sqltypes.KindBool, sqltypes.KindString, sqltypes.KindBytes, sqltypes.KindBytes}[k]
	packed := k == fkSeq && form != ffBoxed
	stored := make([]sqltypes.Value, len(cells))
	for i, c := range cells {
		stored[i] = c
		if packed && !c.IsNull() {
			p, err := seq.Pack(c.S)
			if err != nil {
				t.Fatal(err)
			}
			stored[i] = sqltypes.NewBytes(p.Encode())
		}
	}
	var v *vec.Vector
	switch form {
	case ffFlat, ffLazy:
		v = vec.NewVector(kind, len(stored))
		for _, c := range stored {
			v.Append(c)
		}
		if form == ffLazy {
			v = &vec.Vector{Kind: kind, Nulls: v.Nulls, Lazy: &sharedArrays{v}}
		}
	case ffDict:
		var entries []sqltypes.Value
		codes := make([]int32, len(stored))
		var nulls []int
		for i, c := range stored {
			if c.IsNull() {
				nulls = append(nulls, i)
				continue
			}
			code := len(entries)
			for d, e := range entries {
				if sqltypes.Compare(e, c) == 0 {
					code = d
				}
			}
			if code == len(entries) {
				entries = append(entries, c)
			}
			codes[i] = int32(code)
		}
		v = dictionaryOf(kind, entries, codes)
		for _, i := range nulls {
			v.SetNull(i)
		}
	default:
		v = vec.NewVector(sqltypes.KindNull, len(stored))
		for _, c := range stored {
			v.Append(c)
		}
	}
	v.Packed = packed
	return v
}

// sameValues holds v's Len and every Value to want, and IsNull to the
// NULLs among them.
func sameValues(t *testing.T, what string, v *vec.Vector, want []sqltypes.Value) {
	t.Helper()
	if v.Len() != len(want) {
		t.Fatalf("%s: Len %d, want %d", what, v.Len(), len(want))
	}
	for i, w := range want {
		got, err := v.Value(i)
		if err != nil {
			t.Fatalf("%s: Value(%d): %v", what, i, err)
		}
		if got.K != w.K || fmt.Sprint(got) != fmt.Sprint(w) {
			t.Fatalf("%s: Value(%d) = %v (%s), want %v (%s)", what, i, got, got.K, w, w.K)
		}
		if v.IsNull(i) != w.IsNull() {
			t.Fatalf("%s: IsNull(%d) = %v for %v: every NULL cell is marked in Nulls, and only those", what, i, v.IsNull(i), w)
		}
	}
}

func FuzzVectorKernels(f *testing.F) {
	for _, seed := range [][]byte{
		{},
		{3, 0, 5, 1, 2, 0, 3, 1, 2, 3}, // flat STRING
		{5, 1, 7, 4, 1, 2, 3, 0, 4, 9, 2, 0, 1, 2, 3, 1, 2}, // packed SEQUENCE dictionary
		{4, 2, 3, 0, 1, 2, 2, 1, 0, 3, 0, 3, 0, 4, 7},       // lazy BYTES, then a generic tail
		{0, 0, 2, 1, 2, 1, 3, 70, 0, 1, 2, 0, 1, 2, 3, 2, 2, 4, 3, 1, 0, 2, 3, 0, 1, 1, 1, 0, 0, 0, 1},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fkIn{data: data}
		k := g.pick(fkinds)
		store := &vec.Vector{}
		var stored []sqltypes.Value
		for src := 0; src < 1+g.pick(5); src++ {
			if g.pick(4) == 0 {
				k = g.pick(fkinds) // a source of another kind mid-stream
			}
			form := g.pick(fforms)
			n := g.pick(9)
			if g.pick(4) == 0 {
				n += 64 // past the first bitmap word
			}
			cells := make([]sqltypes.Value, n)
			nullEvery := g.pick(5) // 0: no NULL
			for i := range cells {
				dom := fkDomain[k]
				cells[i] = dom[(i+g.pick(len(dom)))%len(dom)]
				if nullEvery > 0 && i%(nullEvery+1) == nullEvery {
					cells[i] = sqltypes.Null
				}
			}
			v := buildForm(t, k, form, cells)
			what := fmt.Sprintf("source %d (kind %d, form %d)", src, k, form)
			sameValues(t, what, v, cells)

			idx := make([]int, 0, 8)
			for range g.pick(8) {
				if n > 0 {
					idx = append(idx, g.pick(n))
				}
			}
			gathered, err := v.Gather(idx)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]sqltypes.Value, len(idx))
			for i, r := range idx {
				want[i] = cells[r]
			}
			sameValues(t, what+" gathered", gathered, want)

			var rows []int
			for r := range n {
				if g.pick(3) != 0 {
					rows = append(rows, r)
				}
			}
			if err := store.AppendRows(v, rows); err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				stored = append(stored, cells[r])
			}
			sameValues(t, what+" appended", store, stored)
		}
		idx := make([]int, len(stored))
		for i := range idx {
			idx[i] = len(stored) - 1 - i
		}
		reversed, err := store.Gather(idx)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]sqltypes.Value, len(idx))
		for i, r := range idx {
			want[i] = stored[r]
		}
		sameValues(t, "the grown column gathered", reversed, want)
	})
}
