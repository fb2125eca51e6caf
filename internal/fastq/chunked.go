package fastq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// DefaultChunkSize is the paging buffer size. The paper reads FileStreams
// "in larger chunks of data" rather than line by line; 1 MiB amortizes the
// per-call overhead while staying cache friendly.
const DefaultChunkSize = 1 << 20

// ChunkedScanner implements the streaming paging algorithm of the paper's
// Figure 5 / Section 4.1: a large byte buffer is filled with ReadChunk
// calls, entries are parsed in place, and when the end of the chunk cuts an
// entry in half the incomplete tail is copied to the start of the buffer
// before the next chunk is appended ("paging algorithm").
type ChunkedScanner struct {
	src   ByteSource
	parse EntryFunc

	buf          []byte
	filePos      int64 // next offset to read from src
	bufferPos    int   // parse cursor within buf
	bytesRead    int   // number of valid bytes in buf
	bufferOffset int   // length of the carried-over incomplete entry
	eof          bool
	ended        bool // the parser has seen the end of input
	err          error

	// Entries counts successfully parsed entries; the Section 5.2
	// COUNT(*) experiments read it directly.
	Entries int64
}

// NewChunkedScanner returns a scanner over src using the given entry parser
// and chunk size (DefaultChunkSize if chunkSize <= 0).
func NewChunkedScanner(src ByteSource, parse EntryFunc, chunkSize int) *ChunkedScanner {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &ChunkedScanner{src: src, parse: parse, buf: make([]byte, chunkSize)}
}

// readChunk is the paper's Iterator::ReadChunk(): it tops up the buffer
// after bufferOffset carry-over bytes and accounts for them in the count of
// valid bytes.
func (s *ChunkedScanner) readChunk() (int, error) {
	length := len(s.buf) - s.bufferOffset
	read, err := s.src.GetBytes(s.filePos, s.buf[s.bufferOffset:s.bufferOffset+length])
	if err != nil && err != io.EOF {
		return 0, err
	}
	s.filePos += int64(read)
	s.bufferPos = 0
	if read > 0 && s.bufferOffset > 0 {
		read += s.bufferOffset
		s.bufferOffset = 0
	}
	return read, nil
}

// MoveNext advances to the next entry, following the paper's
// Iterator::MoveNext() control flow. It returns false at end of input or on
// error, and on every call after; check Err afterwards.
func (s *ChunkedScanner) MoveNext() bool {
	if s.err != nil || s.ended {
		return false
	}
	if s.bytesRead == 0 && !s.eof && s.filePos == 0 && s.bufferPos == 0 {
		// Iterator::Create(): prime the buffer on first use.
		s.bytesRead, s.err = s.readChunk()
		if s.err != nil {
			return false
		}
	}
	for s.bytesRead > 0 || s.bufferOffset > 0 {
		if s.bufferPos >= s.bytesRead && !s.eof {
			n, err := s.readChunk()
			if err != nil {
				s.err = err
				return false
			}
			if n == 0 {
				s.eof = true
				if s.bufferOffset == 0 {
					return s.end()
				}
				// Final partial entry: reparse what we carried with atEOF.
				s.bytesRead = s.bufferOffset
				s.bufferOffset = 0
				s.bufferPos = 0
			} else {
				s.bytesRead = n
			}
		}
		if s.bufferPos >= s.bytesRead {
			return s.end()
		}
		consumed, err := s.parse(s.buf[s.bufferPos:s.bytesRead], s.eof)
		if err == ErrSkipEntry && consumed > 0 {
			s.bufferPos += consumed
			continue
		}
		if err != nil {
			s.err = err
			return false
		}
		if consumed > 0 {
			s.bufferPos += consumed
			s.Entries++
			return true
		}
		if s.eof {
			s.err = errors.New("fastq: parser made no progress on final partial entry")
			return false
		}
		// Paging algorithm: move the incomplete entry to the buffer start
		// and trigger the next ReadChunk.
		tail := s.bytesRead - s.bufferPos
		if tail >= len(s.buf) {
			// A single entry larger than the whole buffer: grow it, the
			// equivalent of the paper's 2 GB state headroom for UDTs.
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[s.bufferPos:s.bytesRead])
			s.buf = grown
		} else {
			copy(s.buf, s.buf[s.bufferPos:s.bytesRead])
		}
		s.bufferOffset = tail
		s.bufferPos = s.bytesRead // forces readChunk on next loop
	}
	return s.end()
}

// end tells the parser, once, that the input ended cleanly, and returns
// false.
func (s *ChunkedScanner) end() bool {
	if !s.ended {
		s.ended = true
		if _, err := s.parse(nil, true); err != nil {
			s.err = err
		}
	}
	return false
}

// Err returns the first error encountered, or nil at clean EOF.
func (s *ChunkedScanner) Err() error { return s.err }

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

// Spans is the entry an EntryFunc last parsed, as slices of the window it
// was given: valid until the scanner's next MoveNext, so a reader that keeps
// a field copies it out. A batch reader copies each field it needs into
// its column's arena and nothing else.
type Spans struct {
	Name, Seq, Qual []byte
	// Intensity is an SRF record's mean called-channel intensity
	// (SRFRecord.AvgIntensity); 0 for the text formats.
	Intensity float64
}

// FASTQEntry parses one 4-line FASTQ entry and reports its length in bytes.
// It allocates nothing; use it for COUNT(*)-style scans.
func FASTQEntry(data []byte, atEOF bool) (int, error) {
	n, _, err := fastqEntrySpan(data, atEOF)
	return n, err
}

// FASTQSpanEntry returns an EntryFunc that points *sp at each entry's
// fields in the scan buffer; it copies nothing.
func FASTQSpanEntry(sp *Spans) EntryFunc {
	return func(data []byte, atEOF bool) (int, error) {
		n, f, err := fastqEntrySpan(data, atEOF)
		if err == nil && n > 0 {
			sp.Name, sp.Seq, sp.Qual = f.name, f.seq, f.qual
		}
		return n, err
	}
}

// FASTQRecordEntry returns an EntryFunc that additionally decodes each
// entry into *rec. The strings are copied out of the scan buffer so they
// remain valid after the next MoveNext.
func FASTQRecordEntry(rec *Record) EntryFunc {
	return func(data []byte, atEOF bool) (int, error) {
		n, f, err := fastqEntrySpan(data, atEOF)
		if err == nil && n > 0 {
			*rec = Record{Name: string(f.name), Seq: string(f.seq), Comment: string(f.comment), Qual: string(f.qual)}
		}
		return n, err
	}
}

// fastqFields are one FASTQ entry's fields as spans of the parsed window.
type fastqFields struct{ name, seq, comment, qual []byte }

// nextLine returns the line of data starting at pos without its terminator
// ('\n' and the '\r's before it, as Reader trims them) and the position
// after it. ok is false when data holds no '\n' past pos: the line is then
// the rest of data, whole only at the end of input.
func nextLine(data []byte, pos int) (line []byte, next int, ok bool) {
	end, next := len(data), len(data)
	if i := bytes.IndexByte(data[pos:], '\n'); i >= 0 {
		end, next, ok = pos+i, pos+i+1, true
	}
	for end > pos && data[end-1] == '\r' {
		end--
	}
	return data[pos:end], next, ok
}

// fastqEntrySpan parses the FASTQ entry at the start of data: four lines,
// each mandatory and possibly empty, with Reader's checks. A blank line
// before an entry is consumed on its own, with ErrSkipEntry, as Reader
// skips it between records.
func fastqEntrySpan(data []byte, atEOF bool) (int, fastqFields, error) {
	var f fastqFields
	if len(data) == 0 {
		return 0, f, nil
	}
	var lines [4][]byte
	pos := 0
	for i := range lines {
		if i > 0 && pos == len(data) && atEOF {
			return 0, f, fmt.Errorf("fastq: truncated entry: only %d of 4 lines", i)
		}
		line, next, ok := nextLine(data, pos)
		if !ok && !atEOF {
			return 0, f, nil // incomplete entry: page in more data
		}
		if i == 0 && len(line) == 0 {
			return next, f, ErrSkipEntry // a blank line between records
		}
		lines[i], pos = line, next
	}
	name, seq, plus, qual := lines[0], lines[1], lines[2], lines[3]
	if name[0] != '@' {
		return 0, f, fmt.Errorf("fastq: entry does not start with '@': %q", name[:min(len(name), 20)])
	}
	if len(name) == 1 {
		return 0, f, fmt.Errorf("fastq: record with empty name")
	}
	if len(plus) == 0 || plus[0] != '+' {
		return 0, f, fmt.Errorf("fastq: missing '+' separator")
	}
	if len(seq) != len(qual) {
		return 0, f, fmt.Errorf("fastq: sequence/quality length mismatch (%d vs %d)", len(seq), len(qual))
	}
	return pos, fastqFields{name: name[1:], seq: seq, comment: plus[1:], qual: qual}, nil
}

// FASTASpanEntry returns an EntryFunc that parses FASTA records as
// FastaReader does — a '>' header, then every line up to the next '>' line
// or the end of input, blank lines skipped — and points *sp at the name
// (the header up to its first space) and the joined sequence. The sequence
// is joined into a buffer the function reuses, so a record costs no
// allocation once the buffer has grown to the longest one; Qual is empty.
// A record is parsed once the scanner holds all of it and the first byte
// of the next line, so the scanner's memory is one record, not the file.
func FASTASpanEntry(sp *Spans) EntryFunc {
	var seq []byte
	return func(data []byte, atEOF bool) (int, error) {
		if len(data) == 0 {
			return 0, nil
		}
		header, pos, ok := nextLine(data, 0)
		if !ok && !atEOF {
			return 0, nil
		}
		if len(header) == 0 {
			return pos, ErrSkipEntry // blank lines before the first header
		}
		if header[0] != '>' {
			return 0, fmt.Errorf("fasta: expected '>' header, got %q", header[:min(len(header), 20)])
		}
		name := header[1:]
		if i := bytes.IndexByte(name, ' '); i >= 0 {
			name = name[:i]
		}
		if len(name) == 0 {
			return 0, fmt.Errorf("fasta: record with empty name")
		}
		seq = seq[:0]
		for {
			if pos == len(data) {
				if !atEOF {
					return 0, nil // more body lines may follow
				}
				break
			}
			if data[pos] == '>' {
				break
			}
			line, next, ok := nextLine(data, pos)
			if !ok && !atEOF {
				return 0, nil
			}
			seq = append(seq, line...)
			pos = next
		}
		sp.Name, sp.Seq, sp.Qual = name, seq, nil
		return pos, nil
	}
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
