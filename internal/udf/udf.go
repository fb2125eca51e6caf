// Package udf implements the paper's genomics extensibility functions and
// registers them with the engine: the ListShortReads FileStream wrapper
// TVF (Section 3.3/4.1), the PivotAlignment TVF and the CallBase /
// AssembleSequence / AssembleConsensus user-defined aggregates of Query 3
// (Section 4.2.3), plus sequence scalar UDFs.
package udf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fastq"
	"repro/internal/seq"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

// RegisterAll installs every function of this package into the engine.
func RegisterAll(db *core.Database) {
	db.RegisterTVF("ListShortReads", &ListShortReads{DB: db})
	db.RegisterTVF("PivotAlignment", PivotAlignment{})
	db.RegisterAggregate("CallBase", func() exec.AggState { return &CallBaseAgg{} })
	db.RegisterAggregate("AssembleSequence", func() exec.AggState { return &AssembleSequenceAgg{} })
	db.RegisterAggregate("AssembleConsensus", func() exec.AggState { return NewAssembleConsensusAgg() })
	db.RegisterScalar("ReverseComplement", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("udf: REVERSECOMPLEMENT takes one argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewString(seq.ReverseComplement(args[0].AsString())), nil
	})
	db.RegisterScalar("GCContent", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("udf: GCCONTENT takes one argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(seq.GCContent(args[0].AsString())), nil
	})
	db.RegisterScalar("AvgQuality", func(args []sqltypes.Value) (sqltypes.Value, error) {
		if len(args) != 1 {
			return sqltypes.Null, fmt.Errorf("udf: AVGQUALITY takes one argument")
		}
		if args[0].IsNull() {
			return sqltypes.Null, nil
		}
		return sqltypes.NewFloat(seq.AverageQuality(args[0].AsString())), nil
	})
}

// ListShortReads is the paper's file-wrapper TVF: ListShortReads(sample,
// lane, format) resolves the FileStream blob registered for that sample
// and lane in ShortReadFiles and streams its records through the chunked
// paging parser of Figure 5. format is 'FastQ' or 'Fasta'.
type ListShortReads struct {
	DB *core.Database
	// Table overrides the metadata table name (default ShortReadFiles).
	Table string
}

func (l *ListShortReads) table() string {
	if l.Table != "" {
		return l.Table
	}
	return "ShortReadFiles"
}

// Schema returns (read_name, seq, quals); the SRF format adds the
// avg_intensity column carried by the container's image-analysis data.
func (l *ListShortReads) Schema(args []sqltypes.Value) ([]catalog.Column, error) {
	vc, _ := catalog.ParseType("VARCHAR(MAX)")
	cols := []catalog.Column{
		{Name: "read_name", Type: vc},
		{Name: "seq", Type: vc},
		{Name: "quals", Type: vc},
	}
	if len(args) == 3 && !args[2].IsNull() && strings.EqualFold(args[2].AsString(), "srf") {
		fl, _ := catalog.ParseType("FLOAT")
		cols = append(cols, catalog.Column{Name: "avg_intensity", Type: fl})
	}
	return cols, nil
}

// Open streams, for each outer row in sel, the reads of the FileStream its
// (sample, lane, format) names: a lane after another, each resolved under
// the statement's snapshot when the one before it ends.
func (l *ListShortReads) Open(ctx *exec.Context, args []*vec.Vector, sel []int, needed []bool) (exec.TableIterator, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("udf: ListShortReads(sample, lane, format) takes 3 arguments")
	}
	return &readsIter{l: l, ctx: ctx, args: args, sel: sel, needed: needed}, nil
}

// openLane resolves one call's arguments to its FileStream and opens the
// streaming parser of its format over it.
func (l *ListShortReads) openLane(ctx *exec.Context, args []*vec.Vector, r int) (*laneScan, error) {
	vals, err := (&vec.Batch{Cols: args}).ReadRow(r, nil)
	if err != nil {
		return nil, err
	}
	sample, err := vals[0].AsInt()
	if err != nil {
		return nil, err
	}
	lane, err := vals[1].AsInt()
	if err != nil {
		return nil, err
	}
	format := strings.ToLower(vals[2].AsString())
	if format != "fastq" && format != "fasta" && format != "srf" {
		return nil, fmt.Errorf("udf: unknown format %q (want FastQ, Fasta or SRF)", vals[2].AsString())
	}

	// Resolve (sample, lane) -> blob guid via the metadata table.
	def := l.DB.Catalog().Get(l.table())
	if def == nil {
		return nil, fmt.Errorf("udf: metadata table %s does not exist", l.table())
	}
	sampleIdx := def.ColumnIndex("sample")
	laneIdx := def.ColumnIndex("lane")
	readsIdx := def.ColumnIndex("reads")
	if sampleIdx < 0 || laneIdx < 0 || readsIdx < 0 {
		return nil, fmt.Errorf("udf: %s needs sample, lane and reads columns", l.table())
	}
	row, err := l.lookup(ctx, def, func(row sqltypes.Row) bool {
		s, _ := row[sampleIdx].AsInt()
		ln, _ := row[laneIdx].AsInt()
		return s == sample && ln == lane
	})
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, fmt.Errorf("udf: no FileStream registered for sample %d lane %d", sample, lane)
	}
	stream, err := l.DB.OpenBlob(row[readsIdx].AsString())
	if err != nil {
		return nil, err
	}
	stream.SetSequential(true) // the paper's SequentialAccess pre-fetching
	ls := &laneScan{stream: stream, width: 3}
	parse := fastq.Format(fastq.FASTQFormat)
	switch format {
	case "fasta":
		parse = fastq.FASTAFormat
	case "srf":
		parse, ls.width = fastq.SRFFormat(), 4
	}
	ls.sc = fastq.NewFormatScanner(stream, parse, 0)
	return ls, nil
}

// lookup returns the first metadata row match accepts, or nil when none
// does. It scans under ctx's snapshot, so it sees the rows the statement
// around it sees.
func (l *ListShortReads) lookup(ctx *exec.Context, def *catalog.Table, match func(sqltypes.Row) bool) (sqltypes.Row, error) {
	ops, err := l.DB.ScanPartitionsPruned(def, 1, nil)
	if err != nil {
		return nil, err
	}
	scan := ops[0]
	if err := scan.Open(ctx); err != nil {
		return nil, err
	}
	defer scan.Close()
	rows := exec.RowCursor{Op: scan}
	for {
		row, ok, err := rows.Next()
		if err != nil || !ok {
			return nil, err
		}
		if match(row) {
			return row, nil
		}
	}
}

// laneScan is one FileStream under its format's chunked parser.
type laneScan struct {
	stream *core.BlobStream
	sc     *fastq.ChunkedScanner
	width  int // output columns: 3, or 4 with SRF's avg_intensity
}

// close gives the lane's scan buffer and read-ahead windows back and closes
// its stream.
func (ls *laneScan) close() error {
	ls.sc.Release()
	return ls.stream.Close()
}

// readsIter is ListShortReads' output: a batch a window of one lane's
// reads, up to a batch's worth. Each read column is a STRING vector whose
// bytes are copied once out of the scan buffer (which the scanner reuses)
// into the batch's own run; a column nobody reads is NullColumn and
// nothing is copied for it. When no column is read the scanner only counts
// the reads.
type readsIter struct {
	l      *ListShortReads
	ctx    *exec.Context
	args   []*vec.Vector
	sel    []int
	needed []bool
	k      int       // the outer row being read: sel[k]
	lane   *laneScan // its lane, nil before it is opened
	outer  []int

	fields []fastq.Fields // the window's reads; nil when no column is read
}

// NextBatch fills the next batch, moving to the next outer row's lane when
// one ends.
func (it *readsIter) NextBatch() (*vec.Batch, error) {
	for it.k < len(it.sel) {
		if it.lane == nil {
			lane, err := it.l.openLane(it.ctx, it.args, it.sel[it.k])
			if err != nil {
				return nil, err
			}
			it.lane = lane
			if it.fields == nil && it.readsAColumn() {
				it.fields = make([]fastq.Fields, vec.DefaultBatchSize)
			}
		}
		if b, err := it.fill(); err != nil || b != nil {
			return b, err
		}
		err := it.lane.close()
		it.lane = nil
		it.k++
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// readsAColumn says whether the statement reads any of the lane's columns.
func (it *readsIter) readsAColumn() bool {
	for c := range it.lane.width {
		if exec.Reads(it.needed, c) {
			return true
		}
	}
	return false
}

// fill reads the current lane's next window of reads, or returns nil at
// its end.
func (it *readsIter) fill() (*vec.Batch, error) {
	ls := it.lane
	data, n := ls.sc.Next(vec.DefaultBatchSize, it.fields)
	if n == 0 {
		return nil, ls.sc.Err()
	}
	cols, vs := make([]*vec.Vector, ls.width), make([]vec.Vector, ls.width)
	for c := range cols {
		switch {
		case !exec.Reads(it.needed, c):
			cols[c] = exec.NullColumn
			continue
		case c == 3:
			floats := make([]float64, n)
			for i, f := range it.fields[:n] {
				floats[i] = fastq.SRFAvgIntensity(data[f[fastq.FieldExtra].Start:f[fastq.FieldExtra].End])
			}
			vs[c] = vec.Vector{Kind: sqltypes.KindFloat, Floats: floats}
		default:
			size := 0
			for _, f := range it.fields[:n] {
				size += f[c].End - f[c].Start
			}
			vs[c].Kind = sqltypes.KindString
			vs[c].GrowText(n, size)
			for _, f := range it.fields[:n] {
				vec.AppendText(&vs[c], data[f[c].Start:f[c].End])
			}
		}
		cols[c] = &vs[c]
	}
	it.outer = it.outer[:0]
	for range n {
		it.outer = append(it.outer, it.sel[it.k])
	}
	return vec.NewBatch(cols, n), nil
}

// Outer says which outer row the last batch's reads belong to.
func (it *readsIter) Outer() []int { return it.outer }

// Close closes the lane being read.
func (it *readsIter) Close() error {
	if it.lane == nil {
		return nil
	}
	err := it.lane.close()
	it.lane = nil
	return err
}

// PivotAlignment is Query 3's TVF: PivotAlignment(pos, seq, quals)
// transforms one alignment into (position, base, qual) rows, one per base.
type PivotAlignment struct{}

// Schema returns (position, base, qual).
func (PivotAlignment) Schema(args []sqltypes.Value) ([]catalog.Column, error) {
	bi, _ := catalog.ParseType("BIGINT")
	vc, _ := catalog.ParseType("VARCHAR(1)")
	it, _ := catalog.ParseType("INT")
	return []catalog.Column{
		{Name: "position", Type: bi},
		{Name: "base", Type: vc},
		{Name: "qual", Type: it},
	}, nil
}

// Open unnests the outer rows' alignments: row i of one expands to
// position pos+i, base seq[i] (a one-byte cell of the batch's run of
// bases) and qual quals[i]-33 (clipped at 0; 30 past the end of quals). An
// alignment whose pos or seq is NULL expands to no rows, as
// AssembleConsensus skips it.
func (PivotAlignment) Open(_ *exec.Context, args []*vec.Vector, sel []int, needed []bool) (exec.TableIterator, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("udf: PivotAlignment(pos, seq, quals) takes 3 arguments")
	}
	return &pivotIter{args: args, sel: sel, needed: needed}, nil
}

// pivotIter fills batches across outer rows: a batch ends when it is full
// or the outer rows are, an alignment may straddle two batches.
type pivotIter struct {
	args   []*vec.Vector
	sel    []int
	needed []bool
	k      int // the outer row being expanded: sel[k]
	off    int // its next base; 0 before it is read
	pos    int64
	seq    string
	quals  string
	vals   sqltypes.Row // its arguments
	outer  []int
}

// load reads the arguments of outer row sel[k]; ok is false when pos or seq
// is NULL.
func (it *pivotIter) load() (ok bool, err error) {
	vals, err := (&vec.Batch{Cols: it.args}).ReadRow(it.sel[it.k], it.vals[:0])
	if err != nil {
		return false, err
	}
	it.vals = vals
	if vals[0].IsNull() || vals[1].IsNull() {
		return false, nil
	}
	if it.pos, err = vals[0].AsInt(); err != nil {
		return false, err
	}
	it.seq, it.quals = vals[1].AsString(), vals[2].AsString() // AsString of NULL is ""
	return true, nil
}

// NextBatch expands the next bases.
func (it *pivotIter) NextBatch() (*vec.Batch, error) {
	var positions, quals []int64
	var bases *vec.Vector
	if exec.Reads(it.needed, 0) {
		positions = make([]int64, 0, vec.DefaultBatchSize)
	}
	if exec.Reads(it.needed, 1) {
		bases = &vec.Vector{Kind: sqltypes.KindString}
		bases.GrowText(vec.DefaultBatchSize, vec.DefaultBatchSize)
	}
	if exec.Reads(it.needed, 2) {
		quals = make([]int64, 0, vec.DefaultBatchSize)
	}
	it.outer = it.outer[:0]
	n := 0
	for n < vec.DefaultBatchSize && it.k < len(it.sel) {
		if it.off == 0 {
			ok, err := it.load()
			if err != nil {
				return nil, err
			}
			if !ok {
				it.k++
				continue
			}
		}
		end := min(len(it.seq), it.off+vec.DefaultBatchSize-n)
		for i := it.off; i < end; i++ {
			if positions != nil {
				positions = append(positions, it.pos+int64(i))
			}
			if bases != nil {
				vec.AppendText(bases, it.seq[i:i+1])
			}
			if quals != nil {
				q := int64(30)
				if i < len(it.quals) {
					q = max(int64(it.quals[i])-seq.PhredOffset, 0)
				}
				quals = append(quals, q)
			}
			it.outer = append(it.outer, it.sel[it.k])
		}
		n += end - it.off
		if it.off = end; end == len(it.seq) {
			it.k, it.off = it.k+1, 0
		}
	}
	if n == 0 {
		return nil, nil
	}
	cols := []*vec.Vector{exec.NullColumn, exec.NullColumn, exec.NullColumn}
	if positions != nil {
		cols[0] = &vec.Vector{Kind: sqltypes.KindInt, Ints: positions}
	}
	if bases != nil {
		cols[1] = bases
	}
	if quals != nil {
		cols[2] = &vec.Vector{Kind: sqltypes.KindInt, Ints: quals}
	}
	return vec.NewBatch(cols, n), nil
}

// Outer says which outer row each base of the last batch belongs to.
func (it *pivotIter) Outer() []int { return it.outer }

// Close is a no-op: the iterator holds only its outer batch's vectors.
func (it *pivotIter) Close() error { return nil }

// CallBaseAgg is the CallBase(base, qual) user-defined aggregate: the
// quality-weighted consensus call for one position.
type CallBaseAgg struct {
	acc consensus.BaseAccumulator
}

// Add accumulates one (base, qual) observation.
func (c *CallBaseAgg) Add(args []sqltypes.Value) error {
	if len(args) != 2 {
		return fmt.Errorf("udf: CALLBASE takes (base, qual)")
	}
	if args[0].IsNull() {
		return nil
	}
	b := args[0].AsString()
	if len(b) != 1 {
		return fmt.Errorf("udf: CALLBASE base must be a single symbol, got %q", b)
	}
	q, err := args[1].AsInt()
	if err != nil {
		return err
	}
	if q < 0 {
		q = 0
	}
	if q > seq.MaxQuality {
		q = seq.MaxQuality
	}
	c.acc.Add(b[0], byte(q)+seq.PhredOffset)
	return nil
}

// Merge combines partial accumulators (parallel aggregation).
func (c *CallBaseAgg) Merge(o exec.AggState) error {
	c.acc.Merge(&o.(*CallBaseAgg).acc)
	return nil
}

// Result returns the called base as a 1-character string.
func (c *CallBaseAgg) Result() (sqltypes.Value, error) {
	if c.acc.Empty() {
		return sqltypes.Null, nil
	}
	b, _ := c.acc.Call()
	return sqltypes.NewString(string(b)), nil
}

// AssembleSequenceAgg is AssembleSequence(pos, base): it concatenates
// per-position called bases into the final consensus string, ordering by
// position and filling uncovered gaps with N.
type AssembleSequenceAgg struct {
	entries []posBase
}

type posBase struct {
	pos  int64
	base byte
}

// Add collects one (position, base) pair.
func (a *AssembleSequenceAgg) Add(args []sqltypes.Value) error {
	if len(args) != 2 {
		return fmt.Errorf("udf: ASSEMBLESEQUENCE takes (pos, base)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return nil
	}
	pos, err := args[0].AsInt()
	if err != nil {
		return err
	}
	b := args[1].AsString()
	if len(b) != 1 {
		return fmt.Errorf("udf: ASSEMBLESEQUENCE base must be a single symbol, got %q", b)
	}
	a.entries = append(a.entries, posBase{pos, b[0]})
	return nil
}

// Merge appends another partial state.
func (a *AssembleSequenceAgg) Merge(o exec.AggState) error {
	a.entries = append(a.entries, o.(*AssembleSequenceAgg).entries...)
	return nil
}

// Result sorts by position and concatenates.
func (a *AssembleSequenceAgg) Result() (sqltypes.Value, error) {
	if len(a.entries) == 0 {
		return sqltypes.Null, nil
	}
	// Stable: of two bases at one position the first one added wins, on
	// every call.
	sort.SliceStable(a.entries, func(i, j int) bool { return a.entries[i].pos < a.entries[j].pos })
	var sb strings.Builder
	prev := a.entries[0].pos - 1
	for _, e := range a.entries {
		if e.pos == prev {
			continue // duplicate position: first call wins
		}
		for prev+1 < e.pos {
			sb.WriteByte('N')
			prev++
		}
		sb.WriteByte(e.base)
		prev = e.pos
	}
	return sqltypes.NewString(sb.String()), nil
}

// AssembleConsensusAgg is the paper's optimized AssembleConsensus(pos,
// seq, quals) UDA: it consumes whole alignments in ascending position
// order and builds the consensus with a sliding window, avoiding the
// pivot plan's "large intermediate result". It requires ordered input per
// group — the planner provides it via a stream aggregate over a clustered
// scan. A row whose pos or seq is NULL is skipped; NULL or empty quals
// vote with Phred 30 on every base, as CallBase does for a missing
// quality.
type AssembleConsensusAgg struct {
	caller *consensus.SlidingCaller
	any    bool
	done   bool // the first Result flushed the window into result
	result sqltypes.Value
}

// NewAssembleConsensusAgg returns an empty state.
func NewAssembleConsensusAgg() *AssembleConsensusAgg {
	return &AssembleConsensusAgg{caller: consensus.NewSequenceCaller()}
}

// Add consumes one alignment (pos, seq, quals).
func (a *AssembleConsensusAgg) Add(args []sqltypes.Value) error {
	if len(args) != 3 {
		return fmt.Errorf("udf: ASSEMBLECONSENSUS takes (pos, seq, quals)")
	}
	if args[0].IsNull() || args[1].IsNull() {
		return nil
	}
	pos, err := args[0].AsInt()
	if err != nil {
		return err
	}
	return a.add(pos, args[1].AsString(), args[2].AsString()) // AsString of NULL is ""
}

func (a *AssembleConsensusAgg) add(pos int64, seq, quals string) error {
	if a.done {
		return fmt.Errorf("udf: ASSEMBLECONSENSUS fed after its result was read")
	}
	a.any = true
	return a.caller.Add(consensus.AlignedRead{Pos: int(pos), Seq: seq, Qual: quals})
}

// AddBatch is Add over argument vectors (exec.BatchAdder): flat BIGINT
// positions and flat strings, what a scan delivers, are read in place;
// any other form goes through Add a row at a time.
func (a *AssembleConsensusAgg) AddBatch(args []*vec.Vector, rows []int) error {
	if len(args) != 3 {
		return fmt.Errorf("udf: ASSEMBLECONSENSUS takes (pos, seq, quals)")
	}
	pos, seqs, quals := args[0], args[1], args[2]
	if pos.Ints == nil || pos.Kind != sqltypes.KindInt || seqs.Offs == nil || seqs.Kind != sqltypes.KindString ||
		quals.Offs == nil || quals.Kind != sqltypes.KindString {
		var boxed [3]sqltypes.Value
		for _, r := range rows {
			for i, c := range args {
				v, err := c.Value(r)
				if err != nil {
					return err
				}
				boxed[i] = v
			}
			if err := a.Add(boxed[:]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range rows {
		if pos.IsNull(r) || seqs.IsNull(r) {
			continue
		}
		q := ""
		if !quals.IsNull(r) {
			q = quals.Str(r)
		}
		if err := a.add(pos.Ints[r], seqs.Str(r), q); err != nil {
			return err
		}
	}
	return nil
}

// Merge rejects non-trivial merges: a sliding window cannot be merged out
// of order. The planner's range partitioning never splits a group across
// partitions, so only empty-state merges occur in practice.
func (a *AssembleConsensusAgg) Merge(o exec.AggState) error {
	other := o.(*AssembleConsensusAgg)
	if !other.any {
		return nil
	}
	if !a.any {
		*a = *other
		return nil
	}
	return fmt.Errorf("udf: ASSEMBLECONSENSUS cannot merge partial windows; group input must be ordered and unpartitioned")
}

// Result finalizes the window into the consensus string. The first call
// flushes the window; later calls return the same string.
func (a *AssembleConsensusAgg) Result() (sqltypes.Value, error) {
	if !a.any {
		return sqltypes.Null, nil
	}
	if !a.done {
		res := a.caller.Finish()
		if len(res) > 1 {
			return sqltypes.Null, fmt.Errorf("udf: ASSEMBLECONSENSUS produced %d spans", len(res))
		}
		a.done, a.result = true, sqltypes.NewString("") // only empty reads: nothing covered
		if len(res) == 1 {
			a.result = sqltypes.NewString(string(res[0].Seq))
		}
	}
	return a.result, nil
}
