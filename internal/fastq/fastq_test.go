package fastq

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// paperExample is the FASTQ sample from the paper's Figure 3 (completed
// with the second record's remaining lines).
const paperExample = `@IL4_855:1:1:954:659
GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA
+
>>>>>>>>>>>>>>>6>>>>>>>;>>>>>>;>>;>;
@IL4_855:1:1:497:759
ACGTACGTACGTACGTACGTACGTACGTACGTACGT
+
IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII
`

func TestReaderPaperExample(t *testing.T) {
	recs, err := ReadAll(strings.NewReader(paperExample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if recs[0].Name != "IL4_855:1:1:954:659" {
		t.Errorf("name = %q", recs[0].Name)
	}
	if recs[0].Seq != "GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA" {
		t.Errorf("seq = %q", recs[0].Seq)
	}
	if recs[0].Qual != ">>>>>>>>>>>>>>>6>>>>>>>;>>>>>>;>>;>;" {
		t.Errorf("qual = %q", recs[0].Qual)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"missing at", "IL4\nACGT\n+\nIIII\n"},
		{"missing plus", "@r\nACGT\nIIII\nIIII\n"},
		{"qual length mismatch", "@r\nACGT\n+\nII\n"},
		{"truncated", "@r\nACGT\n+\n"},
	}
	for _, c := range cases {
		if _, err := ReadAll(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestWriterRoundTrip(t *testing.T) {
	recs := []Record{
		{Name: "r1", Seq: "ACGT", Qual: "IIII"},
		{Name: "r2 desc", Seq: "NNNN", Comment: "r2", Qual: "!!!!"},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("got %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestChunkedScannerMatchesReader(t *testing.T) {
	// Generate a file, then compare the chunked scanner against the
	// line-oriented reader with several chunk sizes, including ones small
	// enough to force the paging (buffer-wrap) path on every record.
	// Blank lines between records, and at the end, are skipped by both.
	for _, data := range [][]byte{
		genFastqData(t, 500),
		[]byte("@a\nAC\n+\nII\n\n"),
		[]byte("@a\nAC\n+\nII\n\n@b\nG\n+\nI\n"),
	} {
		want, err := ReadAll(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 16, 64, 256, 4096, 1 << 20} {
			var rec Record
			sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTQRecordEntry(&rec), chunk)
			var got []Record
			for sc.MoveNext() {
				got = append(got, rec)
			}
			if sc.Err() != nil {
				t.Fatalf("chunk %d: %v", chunk, sc.Err())
			}
			if sc.MoveNext() { // a batch reader asks again after the end
				t.Fatalf("chunk %d: MoveNext after the end returned true", chunk)
			}
			if len(got) != len(want) {
				t.Fatalf("chunk %d: %d records, want %d", chunk, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("chunk %d: record %d = %+v, want %+v", chunk, i, got[i], want[i])
				}
			}
			if sc.Entries != int64(len(want)) {
				t.Errorf("chunk %d: Entries = %d", chunk, sc.Entries)
			}
		}
	}
}

// readerRecords reads data with Reader up to its first error.
func readerRecords(data []byte) ([]Record, error) {
	r := NewReader(bytes.NewReader(data))
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// windows calls fn with each entry's fields and the window they are spans
// of, scanning data in the given format with the given chunk size and limit
// entries a window, up to the scanner's first error.
func windows(data []byte, f Format, chunk, limit int, fn func(win []byte, f *Fields)) error {
	sc := NewFormatScanner(SourceFromReaderAt(bytes.NewReader(data)), f, chunk)
	defer sc.Release()
	fields := make([]Fields, limit)
	for {
		win, n := sc.Next(limit, fields)
		if n == 0 {
			return sc.Err()
		}
		for i := range fields[:n] {
			fn(win, &fields[i])
		}
	}
}

// field is one of an entry's fields, copied out of its window.
func field(win []byte, f *Fields, i int) string { return string(win[f[i].Start:f[i].End]) }

// windowRecords scans FASTQ data through FASTQFormat's windows, copying
// each entry out.
func windowRecords(data []byte, chunk, limit int) ([]Record, error) {
	var out []Record
	err := windows(data, FASTQFormat, chunk, limit, func(win []byte, f *Fields) {
		out = append(out, Record{Name: field(win, f, FieldName), Seq: field(win, f, FieldSeq),
			Comment: field(win, f, FieldExtra), Qual: field(win, f, FieldQual)})
	})
	return out, err
}

// countEntries counts data's entries with MoveNext over parse, up to the
// scanner's first error.
func countEntries(data []byte, parse EntryFunc, chunk int) (int64, error) {
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), parse, chunk)
	defer sc.Release()
	for sc.MoveNext() {
	}
	return sc.Entries, sc.Err()
}

// FuzzFASTQChunkedMatchesReader holds the chunked FASTQ parser behind
// ListShortReads to the line-oriented Reader: over FASTQ-like bytes (CRLF,
// blank lines, truncated tails, '@' and '+' inside quality lines, empty
// names), at chunk sizes down to one byte and windows of one entry and of
// many, both yield the same records up to the same point and then both end
// or both fail; neither panics. MoveNext over FASTQEntry counts the same
// entries.
func FuzzFASTQChunkedMatchesReader(f *testing.F) {
	for _, seed := range []string{
		paperExample,
		"@a\nAC\n+\nII\n\n",
		"@a\nAC\n+\nII\n\n\r\n@b\nG\n+b\n!\n",
		"@a\r\nAC\r\n+\r\nII\r\n",
		"@a\nAC\n+\nII",
		"@a\nAC\n+\n",
		"@\nA\n+\nI\n",
		"@a\nAC\n+\n@+\n@b\nA\n+\n+\n",
		"@a\n\n+\n\n",
		"\n\r\n\r",
	} {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(6))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		want, wantErr := readerRecords(data)
		for _, size := range []int{int(chunk)%16 + 1, DefaultChunkSize} {
			for _, limit := range []int{1, int(chunk)%5 + 2, 1024} {
				got, err := windowRecords(data, size, limit)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("chunk %d, window %d: Reader error %v, chunked error %v", size, limit, wantErr, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d, window %d: chunked records %q, Reader's %q", size, limit, got, want)
				}
			}
			n, err := countEntries(data, FASTQEntry, size)
			if (err == nil) != (wantErr == nil) || n != int64(len(want)) {
				t.Fatalf("chunk %d: MoveNext counted %d (error %v), Reader read %d (error %v)", size, n, err, len(want), wantErr)
			}
		}
	})
}

// fastaInputs are the FASTA inputs of the chunked parser's tests: good
// holds wrapped records, blank and CRLF lines, a header with no body and
// one with no newline, and an empty file; bad holds three inputs the reader
// refuses.
func fastaInputs() (good, bad []string) {
	var buf bytes.Buffer
	w := NewFastaWriter(&buf)
	w.Wrap = 7
	for i := 0; i < 50; i++ {
		w.Write(FastaRecord{Name: fmt.Sprintf("chr%d", i), Desc: "d", Seq: strings.Repeat("ACGTN", i)})
	}
	w.Flush()
	return []string{buf.String(), "\n>a x\r\nAC\r\n\nGT\n>b\n>c\nA", ""}, []string{"ACGT\n", ">\nAC\n", ">a\nAC\n> b\n"}
}

// fastaReaderRecords reads data with FastaReader up to its first error.
func fastaReaderRecords(data []byte) ([]FastaRecord, error) {
	r := NewFastaReader(bytes.NewReader(data))
	var out []FastaRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// fastaWindowRecords scans FASTA data through FASTAFormat's windows,
// copying each record out.
func fastaWindowRecords(data []byte, chunk, limit int) ([]FastaRecord, error) {
	var out []FastaRecord
	err := windows(data, FASTAFormat, chunk, limit, func(win []byte, f *Fields) {
		out = append(out, FastaRecord{Name: field(win, f, FieldName), Desc: field(win, f, FieldExtra), Seq: field(win, f, FieldSeq)})
	})
	return out, err
}

// TestFASTAChunkedMatchesReader: the chunked FASTA parser that streams
// ListShortReads(..., 'Fasta') yields FastaReader's names, descriptions and
// sequences, wrapped lines joined, blank and CRLF lines included, at any
// chunk size and window, and fails where the reader fails.
func TestFASTAChunkedMatchesReader(t *testing.T) {
	good, bad := fastaInputs()
	for i, data := range append(good, bad...) {
		want, wantErr := fastaReaderRecords([]byte(data))
		if (wantErr != nil) != (i >= len(good)) {
			t.Fatalf("%q: reader error %v", data, wantErr)
		}
		for _, chunk := range []int{1, 4, 5, 64, 1 << 20} {
			for _, limit := range []int{1, 3, 1024} {
				got, err := fastaWindowRecords([]byte(data), chunk, limit)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%q, chunk %d, window %d: reader error %v, chunked error %v", data, chunk, limit, wantErr, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%q, chunk %d, window %d: records %+v, want %+v", data, chunk, limit, got, want)
				}
			}
		}
	}
}

// FuzzFASTAChunkedMatchesReader holds FASTAFormat to FastaReader: over any
// bytes, at chunk sizes down to one byte and windows of one record and of
// many, both yield the same records up to the same point and then both end
// or both fail; neither panics. MoveNext over the same parser counts the
// same records.
func FuzzFASTAChunkedMatchesReader(f *testing.F) {
	good, bad := fastaInputs()
	for _, seed := range append(good, bad...) {
		f.Add([]byte(seed), uint8(0))
		f.Add([]byte(seed), uint8(6))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		want, wantErr := fastaReaderRecords(data)
		for _, size := range []int{int(chunk)%16 + 1, DefaultChunkSize} {
			for _, limit := range []int{1, int(chunk)%5 + 2, 1024} {
				got, err := fastaWindowRecords(data, size, limit)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("chunk %d, window %d: reader error %v, chunked error %v", size, limit, wantErr, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("chunk %d, window %d: chunked records %q, reader's %q", size, limit, got, want)
				}
			}
			sc := NewFormatScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTAFormat, size)
			defer sc.Release()
			for sc.MoveNext() {
			}
			if (sc.Err() == nil) != (wantErr == nil) || sc.Entries != int64(len(want)) {
				t.Fatalf("chunk %d: MoveNext counted %d (error %v), reader read %d (error %v)", size, sc.Entries, sc.Err(), len(want), wantErr)
			}
		}
	})
}

// TestFASTQEntryCountIndependentOfChunkSize counts the reads of a FASTQ
// file on disk with the count-only FASTQEntry, as the §5.2 scan does:
// the count must not depend on the scan's chunk size, whether the file
// pages through many chunks or fits one.
func TestFASTQEntryCountIndependentOfChunkSize(t *testing.T) {
	data := genFastqData(t, 500)
	want, err := ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "lane.fastq")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, chunk := range []int{100, 4096, 1 << 20} {
		sc := NewChunkedScanner(SourceFromReaderAt(f), FASTQEntry, chunk)
		for sc.MoveNext() {
		}
		if sc.Err() != nil {
			t.Fatalf("chunk %d: %v", chunk, sc.Err())
		}
		if sc.Entries != int64(len(want)) {
			t.Errorf("chunk %d: %d reads, want %d", chunk, sc.Entries, len(want))
		}
	}
}

func TestChunkedScannerNoTrailingNewline(t *testing.T) {
	data := []byte("@r1\nACGT\n+\nIIII\n@r2\nGGGG\n+\nJJJJ") // no final \n
	var rec Record
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTQRecordEntry(&rec), 8)
	var names []string
	for sc.MoveNext() {
		names = append(names, rec.Name)
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(names) != 2 || names[1] != "r2" {
		t.Errorf("names = %v", names)
	}
}

func TestChunkedScannerEmpty(t *testing.T) {
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(nil)), FASTQEntry, 64)
	if sc.MoveNext() {
		t.Error("MoveNext on empty input returned true")
	}
	if sc.Err() != nil {
		t.Error(sc.Err())
	}
}

func TestChunkedScannerGrowsForHugeEntry(t *testing.T) {
	// A single record larger than the chunk buffer must be handled by
	// growing the paging buffer.
	long := strings.Repeat("A", 10_000)
	data := []byte("@big\n" + long + "\n+\n" + strings.Repeat("I", 10_000) + "\n")
	var rec Record
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTQRecordEntry(&rec), 64)
	if !sc.MoveNext() {
		t.Fatalf("MoveNext = false, err = %v", sc.Err())
	}
	if len(rec.Seq) != 10_000 {
		t.Errorf("seq length = %d", len(rec.Seq))
	}
	if sc.MoveNext() {
		t.Error("unexpected extra record")
	}
}

func TestChunkedScannerPropagatesParseError(t *testing.T) {
	data := []byte("@r1\nACGT\n+\nIIII\nGARBAGE\nACGT\n+\nIIII\n")
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTQEntry, 1<<20)
	if !sc.MoveNext() {
		t.Fatal("first record should parse")
	}
	if sc.MoveNext() {
		t.Error("second record should fail")
	}
	if sc.Err() == nil {
		t.Error("Err() = nil after malformed record")
	}
}

func TestLineEntryCounts(t *testing.T) {
	data := []byte("a\nbb\nccc\nno-newline")
	sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), LineEntry, 4)
	n := 0
	for sc.MoveNext() {
		n++
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if n != 4 {
		t.Errorf("lines = %d, want 4", n)
	}
}

func TestChunkedScannerQuickAgainstReader(t *testing.T) {
	f := func(nRecs uint8, chunkSeed uint16) bool {
		n := int(nRecs)%40 + 1
		data := genFastqBytes(int64(chunkSeed), n)
		chunk := int(chunkSeed)%512 + 10
		var rec Record
		sc := NewChunkedScanner(SourceFromReaderAt(bytes.NewReader(data)), FASTQRecordEntry(&rec), chunk)
		count := 0
		for sc.MoveNext() {
			count++
		}
		return sc.Err() == nil && count == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFastaRoundTrip(t *testing.T) {
	recs := []FastaRecord{
		{Name: "chr1", Desc: "test chromosome", Seq: strings.Repeat("ACGT", 50)},
		{Name: "chr2", Seq: "A"},
		{Name: "chr3", Seq: strings.Repeat("G", 61)}, // forces a 1-char wrap line
	}
	var buf bytes.Buffer
	w := NewFastaWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Verify 60-column wrapping of the first record body.
	lines := strings.Split(buf.String(), "\n")
	if len(lines[1]) != FASTAWrap {
		t.Errorf("first body line is %d cols, want %d", len(lines[1]), FASTAWrap)
	}
	got, err := ReadAllFasta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestFastaRejectsHeaderless(t *testing.T) {
	if _, err := ReadAllFasta(strings.NewReader("ACGT\n")); err == nil {
		t.Error("headerless FASTA accepted")
	}
}

func TestFastaEmpty(t *testing.T) {
	recs, err := ReadAllFasta(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("%d records from empty input", len(recs))
	}
}

func TestAlignmentRoundTrip(t *testing.T) {
	recs := []AlignmentRecord{
		{ReadName: "r1", RefName: "chr1", Pos: 12345, Strand: '+', Mismatches: 0, MapQ: 60, Seq: "ACGT", Qual: "IIII"},
		{ReadName: "r2", RefName: "chr2", Pos: 0, Strand: '-', Mismatches: 2, MapQ: 13, Seq: "GGTT", Qual: "!!II"},
	}
	var buf bytes.Buffer
	if err := WriteAlignments(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAllAlignments(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestAlignmentReaderErrors(t *testing.T) {
	cases := []string{
		"r1\tchr1\t5\t+\t0\t60\tACGT\n",          // 7 fields
		"r1\tchr1\tx\t+\t0\t60\tACGT\tIIII\n",    // bad pos
		"r1\tchr1\t5\t*\t0\t60\tACGT\tIIII\n",    // bad strand
		"r1\tchr1\t5\t+\t0\t60\tACGT\tII\n",      // len mismatch
		"r1\tchr1\t5\t+\tzero\t60\tACGT\tIIII\n", // bad mismatches
		"r1\tchr1\t5\t+\t0\tmapq\tACGT\tIIII\n",  // bad mapq
	}
	for i, in := range cases {
		if _, err := ReadAllAlignments(strings.NewReader(in)); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
}

func TestTagsRoundTrip(t *testing.T) {
	tags := []TagRecord{{Seq: "ACGT", Frequency: 100}, {Seq: "GGGG", Frequency: 1}}
	var buf bytes.Buffer
	if err := WriteTags(&buf, tags); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTags(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != tags[0] || got[1] != tags[1] {
		t.Errorf("got %+v", got)
	}
}

func TestExpressionRoundTrip(t *testing.T) {
	recs := []ExpressionRecord{{Gene: "GENE1", TotalFrequency: 500, TagCount: 12}}
	var buf bytes.Buffer
	if err := WriteExpression(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExpression(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != recs[0] {
		t.Errorf("got %+v", got)
	}
}

// genFastqData produces n deterministic records serialized as FASTQ bytes.
func genFastqData(t *testing.T, n int) []byte {
	t.Helper()
	return genFastqBytes(7, n)
}

func genFastqBytes(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < n; i++ {
		ln := rng.Intn(60) + 4
		seqB := make([]byte, ln)
		qualB := make([]byte, ln)
		for j := 0; j < ln; j++ {
			seqB[j] = "ACGTN"[rng.Intn(5)]
			qualB[j] = byte(33 + rng.Intn(40))
		}
		w.Write(Record{
			Name: "IL4_855:1:1:" + itoa(rng.Intn(2000)) + ":" + itoa(rng.Intn(2000)),
			Seq:  string(seqB),
			Qual: string(qualB),
		})
	}
	w.Flush()
	return buf.Bytes()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// BenchmarkChunkedScanner counts a FASTQ file's entries an entry a call
// (MoveNext over FASTQEntry) and a window a call (FASTQFormat, 1 024
// entries at most, no fields recorded), each scanner giving its buffer back.
func BenchmarkChunkedScanner(b *testing.B) {
	data := genFastqBytes(7, 5000)
	for _, bc := range []struct {
		name  string
		count func(sc *ChunkedScanner) bool
		f     Format
	}{
		{"entry", func(sc *ChunkedScanner) bool { return sc.MoveNext() }, EntryFunc(FASTQEntry).format},
		{"window", func(sc *ChunkedScanner) bool { _, n := sc.Next(1024, nil); return n > 0 }, FASTQFormat},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := NewFormatScanner(SourceFromReaderAt(bytes.NewReader(data)), bc.f, DefaultChunkSize)
				for bc.count(sc) {
				}
				if sc.Err() != nil || sc.Entries != 5000 {
					b.Fatal(sc.Err(), sc.Entries)
				}
				sc.Release()
			}
		})
	}
}

func BenchmarkLineReader(b *testing.B) {
	data := genFastqBytes(7, 5000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		for {
			if _, err := r.Next(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
