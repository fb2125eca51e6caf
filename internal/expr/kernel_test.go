package expr

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// readsColumn is Query 1's short_read_seq over n reads of 36 bases, one
// in 20 with an 'N', laid out flat, as a dictionary of n/4 distinct reads,
// or as packed SEQUENCE cells (flat or dictionary).
func readsColumn(n int, form string) *vec.Vector {
	rng := rand.New(rand.NewSource(20))
	distinct := n
	if form == "dict" || form == "packed-dict" {
		distinct = n / 4
	}
	reads := make([]string, distinct)
	for i := range reads {
		b := make([]byte, 36)
		for j := range b {
			b[j] = "ACGT"[rng.Intn(4)]
		}
		if i%20 == 7 {
			b[rng.Intn(36)] = 'N'
		}
		reads[i] = string(b)
	}
	cell := func(r string) sqltypes.Value {
		if form == "packed" || form == "packed-dict" {
			p, err := seq.Pack(r)
			if err != nil {
				panic(err)
			}
			return sqltypes.NewBytes(p.Encode())
		}
		return str(r)
	}
	kind := sqltypes.KindString
	if form == "packed" || form == "packed-dict" {
		kind = sqltypes.KindBytes
	}
	packed := kind == sqltypes.KindBytes
	if distinct == n {
		v := vec.NewVector(kind, n)
		for _, r := range reads {
			v.Append(cell(r))
		}
		v.Packed = packed
		return v
	}
	v := &vec.Vector{Kind: kind, Packed: packed, Codes: make([]int32, n), Dict: vec.NewVector(kind, distinct)}
	for _, r := range reads {
		v.Dict.Append(cell(r))
	}
	for i := range v.Codes {
		v.Codes[i] = int32(rng.Intn(distinct))
	}
	return v
}

var readForms = []string{"flat", "dict", "packed", "packed-dict"}

func query1Filter() *FilterEval {
	return CompileFilter(&Cmp{Op: CmpEq, L: &Call{Name: "CHARINDEX", Fn: builtins["charindex"], Args: []Expr{lit(str("N")), col(0)}}, R: lit(i64(0))})
}

// TestKernelAllocationFloors: once warm, Query 1's filter allocates
// nothing a batch over every form of the read column, and a projection of
// LEN or SUBSTRING a few arrays a batch however many rows it has.
func TestKernelAllocationFloors(t *testing.T) {
	const rows = vec.DefaultBatchSize
	for _, form := range readForms {
		b := vec.NewBatch([]*vec.Vector{readsColumn(rows, form)}, rows)
		sel := append([]int(nil), b.Sel...)
		f := query1Filter()
		kept := 0
		allocs := testing.AllocsPerRun(20, func() {
			b.Sel = append(b.Sel[:0], sel...)
			if err := f.Apply(b); err != nil {
				t.Fatal(err)
			}
			kept = len(b.Sel)
		})
		if kept < rows*8/10 || kept == rows {
			t.Fatalf("%s: Query 1 kept %d of %d reads", form, kept, rows)
		}
		if allocs != 0 {
			t.Errorf("%s: Query 1's filter made %.1f allocations a batch, want 0", form, allocs)
		}
		if form == "packed" || form == "packed-dict" {
			continue
		}
		for _, e := range []Expr{
			&Call{Name: "LEN", Fn: builtins["len"], Args: []Expr{col(0)}},
			&Call{Name: "SUBSTRING", Fn: builtins["substring"], Args: []Expr{col(0), lit(i64(1)), lit(i64(4))}},
		} {
			p := CompileProjection([]Expr{e})
			b.Sel = append(b.Sel[:0], sel...)
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := p.Eval(b); err != nil {
					t.Fatal(err)
				}
			})
			// The slice of outputs, the vector and its arrays: new every
			// batch, because the projection's consumer owns them.
			if allocs > 4 {
				t.Errorf("%s: %s made %.1f allocations a batch of %d rows, want at most 4", form, e, allocs, rows)
			}
		}
	}
}

// BenchmarkCharIndexFilter times Query 1's WHERE CHARINDEX('N',
// short_read_seq) = 0 over a batch of 1 024 reads of 36 bases.
func BenchmarkCharIndexFilter(b *testing.B) {
	const rows = vec.DefaultBatchSize
	for _, form := range readForms {
		b.Run(form, func(b *testing.B) {
			batch := vec.NewBatch([]*vec.Vector{readsColumn(rows, form)}, rows)
			sel := append([]int(nil), batch.Sel...)
			f := query1Filter()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Sel = append(batch.Sel[:0], sel...)
				if err := f.Apply(batch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func textColumn(cells ...string) *vec.Vector {
	v := vec.NewVector(sqltypes.KindString, len(cells))
	for _, c := range cells {
		v.Append(str(c))
	}
	return v
}

// TestProjectionOutputsKeepTheirBytes: a projection's vectors are its
// consumer's to keep, so a boxed result that aliases a nested call's
// scratch bytes — COALESCE returning UPPER's cell, a user's function
// returning its argument — is copied, and a later batch leaves the kept
// vector as it was.
func TestProjectionOutputsKeepTheirBytes(t *testing.T) {
	same := Func{Eval: func(args []sqltypes.Value) (sqltypes.Value, error) { return args[0], nil }}
	for _, e := range []Expr{
		&Call{Name: "COALESCE", Fn: builtins["coalesce"], Args: []Expr{
			&Call{Name: "UPPER", Fn: builtins["upper"], Args: []Expr{col(0)}}, lit(i64(0))}},
		&Call{Name: "same", Fn: same, Args: []Expr{
			&Call{Name: "LOWER", Fn: builtins["lower"], Args: []Expr{col(0)}}}},
	} {
		p := CompileProjection([]Expr{e})
		first, err := p.Eval(vec.NewBatch([]*vec.Vector{textColumn("acgt", "ttaa", "gg")}, 3))
		if err != nil {
			t.Fatal(err)
		}
		want := make([]string, 3)
		for s := range want {
			v, err := first[0].Value(s)
			if err != nil {
				t.Fatal(err)
			}
			want[s] = strings.Clone(v.AsString())
		}
		if _, err := p.Eval(vec.NewBatch([]*vec.Vector{textColumn("NNNN", "CCCC", "AA")}, 3)); err != nil {
			t.Fatal(err)
		}
		for s, w := range want {
			if v, _ := first[0].Value(s); v.AsString() != w {
				t.Errorf("%s: the first batch's row %d reads %q after the second batch, want %q", e, s, v.AsString(), w)
			}
		}
	}
}

// TestBoxedFunctionRunsPerRow: a function registered boxed may not be
// deterministic, so over a dictionary column it is called once per row,
// in a projection and under a filter.
func TestBoxedFunctionRunsPerRow(t *testing.T) {
	calls := 0
	count := Func{Eval: func(args []sqltypes.Value) (sqltypes.Value, error) {
		calls++
		return sqltypes.NewInt(int64(calls)), nil
	}}
	dict := &vec.Vector{Kind: sqltypes.KindString, Codes: []int32{0, 1, 0, 1, 0, 1}, Dict: textColumn("A", "C")}
	call := &Call{Name: "count", Fn: count, Args: []Expr{col(0)}}
	b := vec.NewBatch([]*vec.Vector{dict}, 6)
	out, err := CompileProjection([]Expr{call}).Eval(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out[0].Value(5); calls != 6 || v.I != 6 {
		t.Errorf("projection: %d calls, the last row reads %v; want 6 calls, 6", calls, v)
	}
	calls = 0
	if err := CompileFilter(&Cmp{Op: CmpGt, L: call, R: lit(i64(0))}).Apply(b); err != nil {
		t.Fatal(err)
	}
	if calls != 6 {
		t.Errorf("filter: %d calls, want 6", calls)
	}
}
