package script

import (
	"io"
	"sort"
	"time"

	"repro/internal/expr"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
)

// BinUniqueReadsInterpreted is the honest stand-in for the paper's Perl
// script: the same slurp-process-write algorithm as BinUniqueReads, but
// every string operation runs through a boxed, tree-walking expression
// interpreter with copy-on-extract semantics — the execution model of a
// scripting-language interpreter (Perl opcodes over SVs), which is what
// made the paper's 26-line script take 10 minutes. The compiled-Go
// BinUniqueReads is reported alongside as the "compiled tool" ablation.
func BinUniqueReadsInterpreted(in io.Reader, out io.Writer) (Trace, int, error) {
	var tr Trace
	start := time.Now()

	// Phase 1: slurp the whole file, as the Perl script does.
	content, err := io.ReadAll(in)
	if err != nil {
		return tr, 0, err
	}
	tRead := time.Now()
	tr.Phases = append(tr.Phases, Phase{"read", tRead.Sub(start)})

	// Phase 2: interpreted line loop.
	reg := expr.NewRegistry()
	charindexFn, _ := reg.Lookup("charindex")
	substringFn, _ := reg.Lookup("substring")
	// Extracting a value in an interpreter copies it out of the buffer.
	substringCopy := func(args []sqltypes.Value) (sqltypes.Value, error) {
		v, err := substringFn.Eval(args)
		if err != nil {
			return v, err
		}
		return sqltypes.NewString(string(append([]byte(nil), v.S...))), nil
	}

	// Interpreter "variables": $content, $off, $line.
	vars := sqltypes.Row{sqltypes.NewString(string(content)), sqltypes.NewInt(1), sqltypes.Null}
	colContent := &expr.Col{Idx: 0, Name: "$content"}
	colOff := &expr.Col{Idx: 1, Name: "$off"}
	colLine := &expr.Col{Idx: 2, Name: "$line"}
	newline := &expr.Lit{V: sqltypes.NewString("\n")}
	nSym := &expr.Lit{V: sqltypes.NewString("N")}
	// $idx = index($content, "\n", $off)
	idxExpr := &expr.Call{Name: "CHARINDEX", Fn: charindexFn, Args: []expr.Expr{newline, colContent, colOff}}
	// $has_n = index($line, "N") > 0
	hasNExpr := &expr.Cmp{Op: expr.CmpGt,
		L: &expr.Call{Name: "CHARINDEX", Fn: charindexFn, Args: []expr.Expr{nSym, colLine}},
		R: &expr.Lit{V: sqltypes.NewInt(0)}}

	counts := make(map[string]int64)
	lineNo := 0
	for {
		idxV, err := idxExpr.Eval(vars)
		if err != nil {
			return tr, 0, err
		}
		if idxV.I == 0 {
			break
		}
		lineExpr := &expr.Call{Name: "SUBSTRING", Fn: expr.Func{Eval: substringCopy}, Args: []expr.Expr{
			colContent, colOff,
			&expr.Arith{Op: expr.OpSub, L: &expr.Lit{V: idxV}, R: colOff},
		}}
		lineV, err := lineExpr.Eval(vars)
		if err != nil {
			return tr, 0, err
		}
		if lineNo%4 == 1 { // the sequence line of the FASTQ record
			vars[2] = lineV
			hasN, err := hasNExpr.Eval(vars)
			if err != nil {
				return tr, 0, err
			}
			if !expr.Truthy(hasN) {
				counts[lineV.S]++
			}
		}
		lineNo++
		vars[1] = sqltypes.NewInt(idxV.I + 1)
	}
	type kv struct {
		s string
		n int64
	}
	sorted := make([]kv, 0, len(counts))
	for s, n := range counts {
		sorted = append(sorted, kv{s, n})
	}
	sort.Slice(sorted, func(a, b int) bool {
		if sorted[a].n != sorted[b].n {
			return sorted[a].n > sorted[b].n
		}
		return sorted[a].s < sorted[b].s
	})
	tProc := time.Now()
	tr.Phases = append(tr.Phases, Phase{"process", tProc.Sub(tRead)})

	// Phase 3: write.
	tags := make([]fastq.TagRecord, len(sorted))
	for i, e := range sorted {
		tags[i] = fastq.TagRecord{Seq: e.s, Frequency: e.n}
	}
	if err := fastq.WriteTags(out, tags); err != nil {
		return tr, 0, err
	}
	tr.Phases = append(tr.Phases, Phase{"write", time.Since(tProc)})
	tr.Total = time.Since(start)
	return tr, len(tags), nil
}
