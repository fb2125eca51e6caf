// Package fastq implements the text formats of the sequencing pipeline —
// FASTQ and FASTA for level-1 short reads, the tab-separated alignment and
// tag formats for level-2/3 data — together with the chunked, paging file
// parser of the paper's Figure 5 that lets a table-valued function stream
// through a FileStream BLOB without reading individual lines.
package fastq

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Record is one FASTQ entry: four lines, "@name", the sequence, "+comment",
// and the printable Phred+33 quality string (paper Figure 3).
type Record struct {
	Name    string // without the leading '@'
	Seq     string
	Comment string // content of the '+' line, usually empty
	Qual    string // same length as Seq
}

// Validate checks the structural invariants of a record.
func (r *Record) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("fastq: record with empty name")
	}
	if len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("fastq: record %q: quality length %d != sequence length %d",
			r.Name, len(r.Qual), len(r.Seq))
	}
	return nil
}

// Reader parses FASTQ records from a buffered stream. It is the simple
// line-oriented reader ("StreamReader" in the paper's Section 5.2
// comparison); see ChunkedScanner for the high-throughput variant.
type Reader struct {
	br   *bufio.Reader
	line int
}

// NewReader returns a Reader consuming r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next record, or io.EOF after the last one. Blank lines
// between records are skipped; the four lines of a record are all
// mandatory, and the sequence and quality lines may be empty.
func (r *Reader) Next() (Record, error) {
	name, err := r.readLine(true)
	if err != nil {
		return Record{}, err // io.EOF here means clean end of file
	}
	if name[0] != '@' {
		return Record{}, fmt.Errorf("fastq: line %d: expected '@name', got %q", r.line, name)
	}
	seqLine, err := r.contentLine("sequence")
	if err != nil {
		return Record{}, err
	}
	plus, err := r.contentLine("'+' separator")
	if err != nil {
		return Record{}, err
	}
	if len(plus) == 0 || plus[0] != '+' {
		return Record{}, fmt.Errorf("fastq: line %d: expected '+', got %q", r.line, plus)
	}
	qual, err := r.contentLine("quality")
	if err != nil {
		return Record{}, err
	}
	rec := Record{Name: name[1:], Seq: seqLine, Comment: plus[1:], Qual: qual}
	if err := rec.Validate(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// readLine returns the next line without its terminator ('\n' and any '\r'
// before it). Between records (blank set) it skips lines that are empty
// once trimmed; a blank last line is the end of the file.
func (r *Reader) readLine(blank bool) (string, error) {
	for {
		line, err := r.br.ReadString('\n')
		if len(line) == 0 && err != nil {
			return "", err
		}
		r.line++
		line = strings.TrimRight(line, "\r\n")
		if line == "" && blank {
			if err != nil {
				return "", err
			}
			continue
		}
		return line, nil
	}
}

// contentLine reads a mandatory line mid-record, turning EOF into a
// truncation error.
func (r *Reader) contentLine(what string) (string, error) {
	line, err := r.readLine(false)
	if err == io.EOF {
		return "", fmt.Errorf("fastq: unexpected end of file, missing %s line", what)
	}
	return line, err
}

// ReadAll slurps every record; convenient in tests and the sequential
// script baselines that "first read all data into main memory" (Figure 7).
func ReadAll(r io.Reader) ([]Record, error) {
	fr := NewReader(r)
	var out []Record
	for {
		rec, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Writer emits FASTQ records.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 64<<10)}
}

// Write appends one record.
func (w *Writer) Write(rec Record) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	w.bw.WriteByte('@')
	w.bw.WriteString(rec.Name)
	w.bw.WriteByte('\n')
	w.bw.WriteString(rec.Seq)
	w.bw.WriteString("\n+")
	w.bw.WriteString(rec.Comment)
	w.bw.WriteByte('\n')
	w.bw.WriteString(rec.Qual)
	return w.bw.WriteByte('\n')
}

// Flush commits buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }
