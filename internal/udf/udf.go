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

// Iterator resolves the blob and opens the streaming parser.
func (l *ListShortReads) Iterator(args []sqltypes.Value) (exec.RowIterator, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("udf: ListShortReads(sample, lane, format) takes 3 arguments")
	}
	sample, err := args[0].AsInt()
	if err != nil {
		return nil, err
	}
	lane, err := args[1].AsInt()
	if err != nil {
		return nil, err
	}
	format := strings.ToLower(args[2].AsString())
	if format != "fastq" && format != "fasta" && format != "srf" {
		return nil, fmt.Errorf("udf: unknown format %q (want FastQ, Fasta or SRF)", args[2].AsString())
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
	var guid string
	err = l.DB.ScanTableNoLock(l.table(), func(row sqltypes.Row) error {
		s, _ := row[sampleIdx].AsInt()
		ln, _ := row[laneIdx].AsInt()
		if s == sample && ln == lane && guid == "" {
			guid = row[readsIdx].AsString()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if guid == "" {
		return nil, fmt.Errorf("udf: no FileStream registered for sample %d lane %d", sample, lane)
	}
	stream, err := l.DB.OpenBlob(guid)
	if err != nil {
		return nil, err
	}
	stream.SetSequential(true) // the paper's SequentialAccess pre-fetching
	switch format {
	case "fasta":
		return newFastaBlobIterator(stream), nil
	case "srf":
		return newSRFBlobIterator(stream), nil
	}
	return newFastqBlobIterator(stream), nil
}

// srfBlobIterator streams SRF records (with intensities) out of a blob.
type srfBlobIterator struct {
	stream *core.BlobStream
	sc     *fastq.ChunkedScanner
	rec    fastq.SRFRecord
	row    sqltypes.Row
}

func newSRFBlobIterator(stream *core.BlobStream) *srfBlobIterator {
	it := &srfBlobIterator{stream: stream, row: make(sqltypes.Row, 4)}
	it.sc = fastq.NewChunkedScanner(stream, fastq.SRFRecordEntry(&it.rec), 0)
	return it
}

func (it *srfBlobIterator) Next() (sqltypes.Row, bool, error) {
	if !it.sc.MoveNext() {
		return nil, false, it.sc.Err()
	}
	it.row[0] = sqltypes.NewString(it.rec.Name)
	it.row[1] = sqltypes.NewString(it.rec.Seq)
	it.row[2] = sqltypes.NewString(it.rec.Qual)
	it.row[3] = sqltypes.NewFloat(it.rec.AvgIntensity())
	return it.row, true, nil
}

func (it *srfBlobIterator) Close() error { return it.stream.Close() }

// fastqBlobIterator streams FASTQ records out of a blob.
type fastqBlobIterator struct {
	stream *core.BlobStream
	sc     *fastq.ChunkedScanner
	rec    fastq.Record
	row    sqltypes.Row
}

func newFastqBlobIterator(stream *core.BlobStream) *fastqBlobIterator {
	it := &fastqBlobIterator{stream: stream, row: make(sqltypes.Row, 3)}
	it.sc = fastq.NewChunkedScanner(stream, fastq.FASTQRecordEntry(&it.rec), 0)
	return it
}

// Next implements the pull-model MoveNext + FillRow contract.
func (it *fastqBlobIterator) Next() (sqltypes.Row, bool, error) {
	if !it.sc.MoveNext() {
		return nil, false, it.sc.Err()
	}
	it.row[0] = sqltypes.NewString(it.rec.Name)
	it.row[1] = sqltypes.NewString(it.rec.Seq)
	it.row[2] = sqltypes.NewString(it.rec.Qual)
	return it.row, true, nil
}

func (it *fastqBlobIterator) Close() error { return it.stream.Close() }

// fastaBlobIterator streams FASTA records (quals empty).
type fastaBlobIterator struct {
	stream *core.BlobStream
	recs   []fastq.FastaRecord
	pos    int
	row    sqltypes.Row
	err    error
	loaded bool
}

func newFastaBlobIterator(stream *core.BlobStream) *fastaBlobIterator {
	return &fastaBlobIterator{stream: stream, row: make(sqltypes.Row, 3)}
}

func (it *fastaBlobIterator) Next() (sqltypes.Row, bool, error) {
	if !it.loaded {
		it.loaded = true
		// FASTA records span many lines; parse via the reader over a
		// stream adapter.
		it.recs, it.err = fastq.ReadAllFasta(&blobReader{stream: it.stream})
	}
	if it.err != nil {
		return nil, false, it.err
	}
	if it.pos >= len(it.recs) {
		return nil, false, nil
	}
	r := it.recs[it.pos]
	it.pos++
	it.row[0] = sqltypes.NewString(r.Name)
	it.row[1] = sqltypes.NewString(r.Seq)
	it.row[2] = sqltypes.NewString("")
	return it.row, true, nil
}

func (it *fastaBlobIterator) Close() error { return it.stream.Close() }

// blobReader adapts a BlobStream to io.Reader.
type blobReader struct {
	stream *core.BlobStream
	off    int64
}

func (b *blobReader) Read(p []byte) (int, error) {
	n, err := b.stream.GetBytes(b.off, p)
	b.off += int64(n)
	return n, err
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

// Iterator expands the alignment.
func (PivotAlignment) Iterator(args []sqltypes.Value) (exec.RowIterator, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("udf: PivotAlignment(pos, seq, quals) takes 3 arguments")
	}
	pos, err := args[0].AsInt()
	if err != nil {
		return nil, err
	}
	s := args[1].AsString()
	q := args[2].AsString()
	rows := make([]sqltypes.Row, len(s))
	for i := 0; i < len(s); i++ {
		qual := 30
		if i < len(q) {
			qual = int(q[i]) - seq.PhredOffset
			if qual < 0 {
				qual = 0
			}
		}
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(pos + int64(i)),
			sqltypes.NewString(string(s[i])),
			sqltypes.NewInt(int64(qual)),
		}
	}
	return &exec.SliceIterator{Rows: rows}, nil
}

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
	if pos.Ints == nil || pos.Kind != sqltypes.KindInt || seqs.Strs == nil || quals.Strs == nil {
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
		q := quals.Strs[r]
		if quals.IsNull(r) {
			q = ""
		}
		if err := a.add(pos.Ints[r], seqs.Strs[r], q); err != nil {
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
