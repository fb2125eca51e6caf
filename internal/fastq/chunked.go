package fastq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// ByteSource is the random-access contract a FileStream BLOB exposes to the
// query engine — the SqlBytes.GetBytes(offset, buffer, ...) call of the
// paper. GetBytes fills buf starting at file offset off and returns the
// number of bytes copied; 0 (with or without io.EOF) signals end of data.
type ByteSource interface {
	GetBytes(off int64, buf []byte) (int, error)
}

// EntryFunc attempts to parse one file entry from data. It returns the
// number of bytes consumed, which is 0 when data holds only an incomplete
// entry and more input is needed. When atEOF is true no more data will
// come: the function must either consume the remainder or return an error.
// At the clean end of input it is called once more with no data and atEOF
// set: it returns 0, nil, or an error when its format declared more (an
// SRF container's record count).
// Returning ErrSkipEntry with consumed > 0 advances past non-record bytes
// (container headers) without yielding an entry.
//
// This is the ParseShortReadEntry(...) contract from the paper's iterator
// pseudocode (Section 4.1), generalized over entry formats.
type EntryFunc func(data []byte, atEOF bool) (consumed int, err error)

// ErrSkipEntry signals that the parser consumed bytes that do not form a
// record (e.g. a container header); the scanner advances and parses again.
var ErrSkipEntry = errors.New("fastq: skip entry")

// Format parses the complete entries at the start of data, at most limit of
// them, and returns the bytes they took and how many it parsed. It stops
// early at an entry data holds only part of, unless atEOF; bytes that form
// no entry (blank lines, a container header) count as consumed. When fields
// is not nil, fields[i] receives entry i's fields as spans of data. On an
// error, consumed and n cover the entries before the bad one. At the clean
// end of input it is called once more with no data and atEOF set, as an
// EntryFunc is.
//
// FASTQFormat, FASTAFormat and SRFFormat are the formats of the file
// wrapper; any EntryFunc is a Format of one entry a call.
type Format func(data []byte, atEOF bool, limit int, fields []Fields) (consumed, n int, err error)

// Span is the bytes [Start, End) of the data a Format parsed.
type Span struct{ Start, End int }

// Fields are one entry's fields, indexed by FieldName, FieldSeq, FieldQual
// and FieldExtra.
type Fields [4]Span

// The fields of an entry. FieldExtra is what the entry holds besides the
// read: a FASTQ entry's '+' line after the '+', a FASTA header's
// description after its name, an SRF record's intensity tuples (8 bytes a
// base, see SRFAvgIntensity).
const (
	FieldName = iota
	FieldSeq
	FieldQual
	FieldExtra
)

// DefaultChunkSize is the paging buffer size. The paper reads FileStreams
// "in larger chunks of data" rather than line by line; 1 MiB amortizes the
// per-call overhead while staying cache friendly.
const DefaultChunkSize = 1 << 20

// chunks keeps DefaultChunkSize scan buffers between scans, so a statement
// does not allocate and zero a megabyte to count a lane.
var chunks = sync.Pool{New: func() any { return new([DefaultChunkSize]byte) }}

// ChunkedScanner implements the streaming paging algorithm of the paper's
// Figure 5 / Section 4.1: a large byte buffer is filled with GetBytes
// calls, and when the end of the chunk cuts an entry in half the incomplete
// tail is copied to the start of the buffer before the next chunk is
// appended ("paging algorithm"). Between pages the scanner hands out
// windows: each Next call parses the complete entries in the buffer, up to
// the count its caller asked for, in one call of the format's parser, and
// returns them as spans of the buffer. MoveNext is the paper's
// one-entry-a-call iterator over the same loop.
type ChunkedScanner struct {
	src   ByteSource
	parse Format

	buf     []byte
	chunk   *[DefaultChunkSize]byte // buf's first array, from chunks; nil when not pooled
	filePos int64                   // next offset to read from src
	pos     int                     // parse cursor within buf
	end     int                     // number of valid bytes in buf
	eof     bool
	ended   bool // the parser has seen the end of input
	err     error

	// Entries counts successfully parsed entries; the Section 5.2
	// COUNT(*) experiments read it directly.
	Entries int64
}

// NewChunkedScanner returns a scanner over src parsing an entry a call of
// parse, with the given chunk size (DefaultChunkSize if chunkSize <= 0).
func NewChunkedScanner(src ByteSource, parse EntryFunc, chunkSize int) *ChunkedScanner {
	return NewFormatScanner(src, parse.format, chunkSize)
}

// NewFormatScanner returns a scanner over src parsing windows of the given
// format, with the given chunk size (DefaultChunkSize if chunkSize <= 0). A
// scanner of the default size takes its buffer from the ones Release gave
// back.
func NewFormatScanner(src ByteSource, f Format, chunkSize int) *ChunkedScanner {
	s := &ChunkedScanner{src: src, parse: f}
	if chunkSize <= 0 || chunkSize == DefaultChunkSize {
		s.chunk = chunks.Get().(*[DefaultChunkSize]byte)
		s.buf = s.chunk[:]
	} else {
		s.buf = make([]byte, chunkSize)
	}
	return s
}

// Next parses the next complete entries of the window, at most limit, and
// returns the window's bytes and how many it parsed: 0 at the end of input
// or on an error (see Err). When fields is not nil it receives each entry's
// fields as spans of data, at most len(fields) of them. data is the
// scanner's buffer, valid until the next call: a reader that keeps a field
// copies it out. A window ends early where the buffer cuts an entry; the
// next call pages in the rest.
func (s *ChunkedScanner) Next(limit int, fields []Fields) (data []byte, n int) {
	if fields != nil {
		limit = min(limit, len(fields))
	}
	for s.err == nil && !s.ended && limit > 0 {
		if s.pos == s.end && s.eof {
			// The clean end of input: the parser's last call.
			s.ended = true
			_, _, s.err = s.parse(nil, true, limit, fields)
			break
		}
		if s.pos < s.end {
			data = s.buf[s.pos:s.end]
			consumed, n, err := s.parse(data, s.eof, limit, fields)
			s.pos += consumed
			s.Entries += int64(n)
			s.err = err
			if n > 0 {
				return data, n
			}
			if consumed > 0 || err != nil {
				continue
			}
			if s.eof {
				s.err = errors.New("fastq: parser made no progress on final partial entry")
				break
			}
		}
		s.err = s.page()
	}
	return nil, 0
}

// page is the paper's paging step followed by Iterator::ReadChunk(): it
// moves the incomplete entry at the parse cursor to the buffer's start,
// growing the buffer when that entry fills all of it (the equivalent of
// the paper's 2 GB state headroom for UDTs), and tops the buffer up from
// src after it.
func (s *ChunkedScanner) page() error {
	tail := copy(s.buf, s.buf[s.pos:s.end])
	if tail == len(s.buf) {
		grown := make([]byte, 2*len(s.buf))
		copy(grown, s.buf)
		s.buf = grown
	}
	s.pos, s.end = 0, tail
	read, err := s.src.GetBytes(s.filePos, s.buf[tail:])
	if err != nil && err != io.EOF {
		return err
	}
	s.filePos += int64(read)
	s.end += read
	s.eof = read == 0
	return nil
}

// MoveNext advances to the next entry, following the paper's
// Iterator::MoveNext() control flow: it is Next of one entry. It returns
// false at end of input or on error, and on every call after; check Err
// afterwards.
func (s *ChunkedScanner) MoveNext() bool {
	_, n := s.Next(1, nil)
	return n > 0
}

// Err returns the first error encountered, or nil at clean EOF.
func (s *ChunkedScanner) Err() error { return s.err }

// Release gives the scanner's buffer back for later scans. The scanner and
// every window it returned must not be used afterwards.
func (s *ChunkedScanner) Release() {
	if s.chunk != nil {
		chunks.Put(s.chunk)
	}
	s.chunk, s.buf, s.ended = nil, nil, true
}

// format is f as a Format: one call of f an entry.
func (f EntryFunc) format(data []byte, atEOF bool, limit int, _ []Fields) (consumed, n int, err error) {
	if len(data) == 0 {
		_, err = f(data, atEOF)
		return 0, 0, err
	}
	for n < limit && consumed < len(data) {
		c, err := f(data[consumed:], atEOF)
		if err == ErrSkipEntry && c > 0 {
			consumed += c
			continue
		}
		if err != nil || c == 0 {
			return consumed, n, err
		}
		consumed += c
		n++
	}
	return consumed, n, nil
}

// entryOf turns a one-entry Format call into an EntryFunc's result.
func entryOf(consumed, n int, err error) (int, error) {
	if err == nil && n == 0 && consumed > 0 {
		err = ErrSkipEntry
	}
	return consumed, err
}

// readerAtSource adapts io.ReaderAt (plain files, in-memory data) to
// ByteSource, so the same scanner serves command-line tools and tests.
type readerAtSource struct{ r io.ReaderAt }

// SourceFromReaderAt wraps an io.ReaderAt as a ByteSource.
func SourceFromReaderAt(r io.ReaderAt) ByteSource { return readerAtSource{r} }

func (s readerAtSource) GetBytes(off int64, buf []byte) (int, error) {
	n, err := s.r.ReadAt(buf, off)
	if err == io.EOF {
		return n, io.EOF
	}
	return n, err
}

// FASTQEntry parses one 4-line FASTQ entry and reports its length in bytes.
// It allocates nothing; use it for COUNT(*)-style scans.
func FASTQEntry(data []byte, atEOF bool) (int, error) {
	return entryOf(FASTQFormat(data, atEOF, 1, nil))
}

// FASTQRecordEntry returns an EntryFunc that additionally decodes each
// entry into *rec. The strings are copied out of the scan buffer so they
// remain valid after the next MoveNext.
func FASTQRecordEntry(rec *Record) EntryFunc {
	return func(data []byte, atEOF bool) (int, error) {
		var f [1]Fields
		consumed, n, err := FASTQFormat(data, atEOF, 1, f[:])
		if n == 1 {
			at := func(i int) string { return string(data[f[0][i].Start:f[0][i].End]) }
			*rec = Record{Name: at(FieldName), Seq: at(FieldSeq), Comment: at(FieldExtra), Qual: at(FieldQual)}
		}
		return entryOf(consumed, n, err)
	}
}

// lineAt finds the line of data that starts at pos. Its content ends at
// end, before its '\n' and the '\r's before that, as Reader trims them, and
// the next line starts at next. ok is false when no '\n' follows pos: the
// line then runs to the end of data, whole only at the end of input.
func lineAt(data []byte, pos int) (end, next int, ok bool) {
	i := bytes.IndexByte(data[pos:], '\n')
	if i < 0 {
		return trimCR(data, pos, len(data)), len(data), false
	}
	if end = pos + i; end > pos && data[end-1] == '\r' {
		end = trimCR(data, pos, end)
	}
	return end, pos + i + 1, true
}

// trimCR returns where the line data[pos:end] ends without its trailing
// '\r's.
func trimCR(data []byte, pos, end int) int {
	for end > pos && data[end-1] == '\r' {
		end--
	}
	return end
}

// FASTQFormat is the Format of FASTQ: four lines an entry, each mandatory
// and possibly empty, with Reader's checks — a name line "@name" with a
// name, a '+' line, a quality as long as the sequence. Blank lines between
// entries are skipped, as Reader skips them.
func FASTQFormat(data []byte, atEOF bool, limit int, fields []Fields) (consumed, n int, err error) {
	for n < limit && consumed < len(data) {
		name := consumed
		nameEnd, pos, ok := lineAt(data, name)
		if !ok && !atEOF {
			break
		}
		if nameEnd == name {
			consumed = pos // a blank line between records
			continue
		}
		var lines [3]Span // sequence, '+' line, quality
		for i := range lines {
			if pos == len(data) {
				if atEOF {
					return consumed, n, fmt.Errorf("fastq: truncated entry: only %d of 4 lines", i+1)
				}
				return consumed, n, nil
			}
			end, next, ok := lineAt(data, pos)
			if !ok && !atEOF {
				return consumed, n, nil // incomplete entry: page in more data
			}
			lines[i], pos = Span{pos, end}, next
		}
		seq, plus, qual := lines[0], lines[1], lines[2]
		switch {
		case data[name] != '@':
			return consumed, n, fmt.Errorf("fastq: entry does not start with '@': %q", data[name:min(nameEnd, name+20)])
		case nameEnd-name == 1:
			return consumed, n, fmt.Errorf("fastq: record with empty name")
		case plus.End == plus.Start || data[plus.Start] != '+':
			return consumed, n, fmt.Errorf("fastq: missing '+' separator")
		case seq.End-seq.Start != qual.End-qual.Start:
			return consumed, n, fmt.Errorf("fastq: sequence/quality length mismatch (%d vs %d)", seq.End-seq.Start, qual.End-qual.Start)
		}
		if fields != nil {
			fields[n] = Fields{FieldName: {name + 1, nameEnd}, FieldSeq: seq, FieldQual: qual, FieldExtra: {plus.Start + 1, plus.End}}
		}
		consumed = pos
		n++
	}
	return consumed, n, nil
}

// FASTAFormat is the Format of FASTA, parsed as FastaReader does: a '>'
// header, then every line up to the next '>' line or the end of input,
// blank lines skipped. The name is the header up to its first space, the
// rest of the header is FieldExtra, and the sequence is the body's lines
// joined: joined in place, in data, over the line ends between them, so a
// record costs no copy of its own; FieldQual is empty. A record is parsed
// once data holds all of it and the first byte of the next line, so the
// scanner's memory is one record, not the file.
func FASTAFormat(data []byte, atEOF bool, limit int, fields []Fields) (consumed, n int, err error) {
	for n < limit && consumed < len(data) {
		head := consumed
		headEnd, body, ok := lineAt(data, head)
		if !ok && !atEOF {
			break
		}
		if headEnd == head {
			consumed = body // blank lines before the first header
			continue
		}
		if data[head] != '>' {
			return consumed, n, fmt.Errorf("fasta: expected '>' header, got %q", data[head:min(headEnd, head+20)])
		}
		name, extra := Span{head + 1, headEnd}, Span{headEnd, headEnd}
		if i := bytes.IndexByte(data[head+1:headEnd], ' '); i >= 0 {
			name.End, extra.Start = head+1+i, head+2+i
		}
		if name.End == name.Start {
			return consumed, n, fmt.Errorf("fasta: record with empty name")
		}
		end := len(data) // the start of the next record
		if body < len(data) && data[body] == '>' {
			end = body
		} else if i := bytes.Index(data[body:], []byte("\n>")); i >= 0 {
			end = body + i + 1
		} else if !atEOF {
			break // more body lines may follow
		}
		seq := body
		for pos := body; pos < end; {
			lineEnd, next, _ := lineAt(data[:end], pos)
			seq += copy(data[seq:], data[pos:lineEnd])
			pos = next
		}
		if fields != nil {
			fields[n] = Fields{FieldName: name, FieldSeq: {body, seq}, FieldQual: {seq, seq}, FieldExtra: extra}
		}
		consumed = end
		n++
	}
	return consumed, n, nil
}

// LineEntry counts newline-terminated lines; the simplest EntryFunc, used
// by FASTA scans that only need line counts (Section 5.2's experiment notes
// "the function did not perform any record conversions").
func LineEntry(data []byte, atEOF bool) (int, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, nil
	}
	if atEOF && len(data) > 0 {
		return len(data), nil
	}
	return 0, nil
}
