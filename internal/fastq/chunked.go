package fastq

import (
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
// error; check Err afterwards.
func (s *ChunkedScanner) MoveNext() bool {
	if s.err != nil {
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

// FASTQEntry parses one 4-line FASTQ entry and reports its length in bytes.
// It allocates nothing; use it for COUNT(*)-style scans. The record content
// can be recovered by the caller from the same window if needed.
func FASTQEntry(data []byte, atEOF bool) (int, error) {
	return fastqEntrySpan(data, atEOF, nil)
}

// FASTQRecordEntry returns an EntryFunc that additionally decodes each
// entry into *rec. The strings are copied out of the scan buffer so they
// remain valid after the next MoveNext.
func FASTQRecordEntry(rec *Record) EntryFunc {
	return func(data []byte, atEOF bool) (int, error) {
		return fastqEntrySpan(data, atEOF, rec)
	}
}

func fastqEntrySpan(data []byte, atEOF bool, rec *Record) (int, error) {
	if len(data) == 0 {
		return 0, nil
	}
	pos := 0
	var lines [4][2]int // start, end offsets of the four lines
	for i := 0; i < 4; i++ {
		start := pos
		for pos < len(data) && data[pos] != '\n' {
			pos++
		}
		if pos >= len(data) {
			if !atEOF {
				return 0, nil // incomplete entry: page in more data
			}
			if i < 3 {
				return 0, fmt.Errorf("fastq: truncated entry: only %d of 4 lines", i+1)
			}
		}
		end := pos
		if end > start && data[end-1] == '\r' {
			end--
		}
		lines[i] = [2]int{start, end}
		if pos < len(data) {
			pos++ // consume '\n'
		}
	}
	nameL, seqL, plusL, qualL := lines[0], lines[1], lines[2], lines[3]
	if nameL[1] == nameL[0] || data[nameL[0]] != '@' {
		return 0, fmt.Errorf("fastq: entry does not start with '@': %q", data[nameL[0]:min(nameL[1], nameL[0]+20)])
	}
	if plusL[1] == plusL[0] || data[plusL[0]] != '+' {
		return 0, fmt.Errorf("fastq: missing '+' separator")
	}
	if seqL[1]-seqL[0] != qualL[1]-qualL[0] {
		return 0, fmt.Errorf("fastq: sequence/quality length mismatch (%d vs %d)",
			seqL[1]-seqL[0], qualL[1]-qualL[0])
	}
	if rec != nil {
		rec.Name = string(data[nameL[0]+1 : nameL[1]])
		rec.Seq = string(data[seqL[0]:seqL[1]])
		rec.Comment = string(data[plusL[0]+1 : plusL[1]])
		rec.Qual = string(data[qualL[0]:qualL[1]])
	}
	return pos, nil
}

// LineEntry counts newline-terminated lines; the simplest EntryFunc, used
// by FASTA scans that only need line counts (Section 5.2's experiment notes
// "the function did not perform any record conversions").
func LineEntry(data []byte, atEOF bool) (int, error) {
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			return i + 1, nil
		}
	}
	if atEOF && len(data) > 0 {
		return len(data), nil
	}
	return 0, nil
}
