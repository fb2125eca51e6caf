package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/sqltypes"
)

// Spill files hold a query's temporary state — a hash join's or an
// aggregate's spilled partitions, a sort's runs — in the engine's paged
// format rather than ad-hoc temp files: rows are encoded with a
// self-describing variant of the row codec and packed into standard 8 KB
// pages. Spilled bytes are written once and read back once or twice, in
// order, so they bypass the buffer pool both ways: a page is written
// straight to disk when it fills (spill data is transient, so it must not
// occupy the pool's no-steal dirty frames) and read back straight from
// disk into the iterator's own page buffer (caching it would only evict the
// workload's pages). Release removes the file.
//
// The payload is a byte stream of length-prefixed rows chunked across
// pages — a row larger than one page simply spans pages, so anything the
// in-memory join can hold can also spill (unpacked SEQUENCE strings
// routinely exceed 8 KB).
//
// Spill page layout:
//
//	used uint16  payload length
//	(6 bytes reserved)
//	payload from byte 8
const (
	spillHeaderSize = 8
	spillCapacity   = PageSize - spillHeaderSize
)

// SpillManager creates temp spill files under one directory; their I/O is
// routed through inj (site "spill", nil injects nothing).
type SpillManager struct {
	dir   string
	inj   *fault.Injector
	seq   atomic.Uint64
	sweep sync.Once
}

// NewSpillManager returns a manager rooted at dir (created on first use).
func NewSpillManager(dir string, inj *fault.Injector) *SpillManager {
	return &SpillManager{dir: dir, inj: inj}
}

// Create opens a fresh spill file. The first Create sweeps spill files a
// crashed process may have left behind: they are transient query state,
// and this process's name sequence would collide with them (a reopened
// stale file would replay the previous run's rows into a join).
func (m *SpillManager) Create() (*SpillFile, error) {
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: spill dir: %w", err)
	}
	m.sweep.Do(func() {
		stale, _ := filepath.Glob(filepath.Join(m.dir, "spill-*.tmp"))
		for _, p := range stale {
			os.Remove(p)
		}
	})
	path := filepath.Join(m.dir, fmt.Sprintf("spill-%d.tmp", m.seq.Add(1)))
	os.Remove(path) // never inherit stale pages
	f, err := OpenPagedFileFault(path, m.inj, "spill")
	if err != nil {
		return nil, err
	}
	return &SpillFile{file: f, inj: m.inj}, nil
}

// SpillFile is an append-then-iterate temp row file. Append is safe for
// concurrent use (parallel probe workers feed the same spilled partition);
// iteration must not overlap appends. The unsealed tail stays in memory,
// so a file that never fills a page performs no I/O at all.
type SpillFile struct {
	mu       sync.Mutex
	file     *PagedFile
	inj      *fault.Injector
	tail     []byte
	pages    int64 // sealed data pages
	rows     int64
	bytes    int64
	scratch  []byte
	released bool
	// Run boundaries (SealRun): start of the currently open run.
	runStartPage  int64
	runStartRows  int64
	runStartBytes int64
}

// Append adds one row.
func (s *SpillFile) Append(row sqltypes.Row) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return fmt.Errorf("storage: append to released spill file")
	}
	enc, err := AppendAnyRow(s.scratch[:0], row)
	if err != nil {
		return err
	}
	s.scratch = enc
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(len(enc)))
	if err := s.writeStreamLocked(hdr[:hn]); err != nil {
		return err
	}
	if err := s.writeStreamLocked(enc); err != nil {
		return err
	}
	s.rows++
	s.bytes += int64(hn + len(enc))
	return nil
}

// writeStreamLocked appends raw stream bytes, sealing full pages as they
// fill; rows thus chunk across page boundaries.
func (s *SpillFile) writeStreamLocked(b []byte) error {
	for len(b) > 0 {
		space := spillCapacity - len(s.tail)
		if space == 0 {
			if err := s.sealTailLocked(); err != nil {
				return err
			}
			continue
		}
		n := space
		if len(b) < n {
			n = len(b)
		}
		s.tail = append(s.tail, b[:n]...)
		b = b[n:]
	}
	return nil
}

// sealTailLocked writes the tail as a new page, straight to disk.
func (s *SpillFile) sealTailLocked() error {
	if len(s.tail) == 0 {
		return nil
	}
	var page [PageSize]byte
	binary.LittleEndian.PutUint16(page[0:], uint16(len(s.tail)))
	copy(page[spillHeaderSize:], s.tail)
	id, err := s.file.Allocate()
	if err != nil {
		return fmt.Errorf("storage: spilling query temp state to %s: %w", s.file.Path(), err)
	}
	if err := s.file.WritePage(id, page[:]); err != nil {
		return fmt.Errorf("storage: spilling query temp state to %s: %w", s.file.Path(), err)
	}
	s.pages++
	s.tail = s.tail[:0]
	return nil
}

// SealRun closes the run being appended: the tail page is sealed (runs
// are page-aligned) and the run's page span, row count and payload bytes
// are returned for NewRunIterator. An external merge sort appends every
// run of one operator back to back into a single spill file this way —
// hundreds of runs cost one file create/remove instead of hundreds.
func (s *SpillFile) SealRun() (start, end, rows, bytes int64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return 0, 0, 0, 0, fmt.Errorf("storage: seal run on released spill file")
	}
	if err := s.sealTailLocked(); err != nil {
		return 0, 0, 0, 0, err
	}
	start, end = s.runStartPage, s.pages
	rows = s.rows - s.runStartRows
	bytes = s.bytes - s.runStartBytes
	s.runStartPage, s.runStartRows, s.runStartBytes = s.pages, s.rows, s.bytes
	return start, end, rows, bytes, nil
}

// NewRunIterator streams one sealed run (pages [start, end), rows rows).
// Runs never share pages, so the iterator needs no tail snapshot.
func (s *SpillFile) NewRunIterator(start, end, rows int64) *SpillIterator {
	return &SpillIterator{f: s, page: start, hiPage: end, rowsLeft: rows}
}

// Rows returns the number of appended rows.
func (s *SpillFile) Rows() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rows
}

// Bytes returns the encoded payload size.
func (s *SpillFile) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// NewIterator returns an iterator over all appended rows, in order. The
// caller must not Append while iterating.
func (s *SpillFile) NewIterator() *SpillIterator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &SpillIterator{f: s, hiPage: s.pages, rowsLeft: s.rows, tail: append([]byte(nil), s.tail...)}
}

// Release closes and removes the file. Safe to call more than once.
func (s *SpillFile) Release() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.released {
		return nil
	}
	s.released = true
	err := s.file.Close()
	if rmErr := fault.Remove(s.inj, s.file.Path()); err == nil {
		err = rmErr
	}
	return err
}

// SpillIterator streams a SpillFile's rows: sealed pages, read into its own
// page buffer, followed by a snapshot of the tail. A small carry buffer
// reassembles rows that span page boundaries.
type SpillIterator struct {
	f        *SpillFile
	page     int64
	hiPage   int64
	rowsLeft int64
	tail     []byte
	tailDone bool
	buf      []byte
	pos      int
	pageBuf  []byte
}

// Next returns the next row. Rows are safe to retain. Lengths read from
// the file are bounded by the bytes left, so corrupt bytes give an error.
func (it *SpillIterator) Next() (sqltypes.Row, bool, error) {
	if it.rowsLeft == 0 {
		return nil, false, nil
	}
	for {
		ln, n := binary.Uvarint(it.buf[it.pos:])
		if n < 0 {
			return nil, false, fmt.Errorf("storage: corrupt spill row length")
		}
		if n > 0 && ln <= uint64(len(it.buf)-it.pos-n) { // the whole frame is buffered
			frame := it.buf[it.pos+n : it.pos+n+int(ln)]
			row, consumed, err := DecodeAnyRow(frame)
			if err != nil {
				return nil, false, err
			}
			if consumed != int(ln) {
				return nil, false, fmt.Errorf("storage: spill row used %d of %d bytes", consumed, ln)
			}
			it.pos += n + int(ln)
			it.rowsLeft--
			return row, true, nil
		}
		ok, err := it.refill()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			return nil, false, fmt.Errorf("storage: spill file truncated (%d rows missing)", it.rowsLeft)
		}
	}
}

// refill appends the next page's (or the tail's) stream bytes to the
// carry buffer, compacting the consumed prefix first.
func (it *SpillIterator) refill() (bool, error) {
	if it.pos > 0 {
		it.buf = append(it.buf[:0], it.buf[it.pos:]...)
		it.pos = 0
	}
	if it.page < it.hiPage {
		if it.pageBuf == nil {
			it.pageBuf = make([]byte, PageSize)
		}
		if err := it.f.file.ReadPage(PageID(it.page), it.pageBuf); err != nil {
			return false, err
		}
		used := int(binary.LittleEndian.Uint16(it.pageBuf[0:]))
		if used > spillCapacity {
			return false, fmt.Errorf("storage: corrupt spill page (used=%d)", used)
		}
		it.buf = append(it.buf, it.pageBuf[spillHeaderSize:spillHeaderSize+used]...)
		it.page++
		return true, nil
	}
	if !it.tailDone {
		it.tailDone = true
		if len(it.tail) > 0 {
			it.buf = append(it.buf, it.tail...)
			it.tail = nil
			return true, nil
		}
	}
	return false, nil
}

// Close satisfies the row-iterator contract; the iterator holds nothing
// to release.
func (it *SpillIterator) Close() error { return nil }

// AppendAnyRow appends a self-describing encoding of row to dst: unlike
// RowCodec it needs no declared schema, so it serializes arbitrary
// intermediate query rows (join sides after projections and filters). The
// format is a column count followed by one kind tag and payload per value,
// using the same variable-length encodings as ROW compression.
func AppendAnyRow(dst []byte, row sqltypes.Row) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for i, v := range row {
		dst = append(dst, byte(v.K))
		switch v.K {
		case sqltypes.KindNull:
		case sqltypes.KindInt, sqltypes.KindBool:
			dst = binary.AppendVarint(dst, v.I)
		case sqltypes.KindFloat:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.F))
			dst = append(dst, b[:]...)
		case sqltypes.KindString:
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case sqltypes.KindBytes:
			dst = binary.AppendUvarint(dst, uint64(len(v.B)))
			dst = append(dst, v.B...)
		default:
			return nil, fmt.Errorf("storage: cannot spill value of kind %s (column %d)", v.K, i)
		}
	}
	return dst, nil
}

// DecodeAnyRow decodes one AppendAnyRow row, returning it and the bytes
// consumed. Decoded values do not alias buf.
func DecodeAnyRow(buf []byte) (sqltypes.Row, int, error) {
	cols, pos := binary.Uvarint(buf)
	if pos <= 0 || cols > uint64(len(buf)-pos) { // every value has a kind byte
		return nil, 0, fmt.Errorf("storage: truncated spill row header")
	}
	row := make(sqltypes.Row, cols)
	for i := range row {
		if pos >= len(buf) {
			return nil, 0, errTruncated(i)
		}
		k := sqltypes.Kind(buf[pos])
		pos++
		switch k {
		case sqltypes.KindNull:
			row[i] = sqltypes.Null
		case sqltypes.KindInt, sqltypes.KindBool:
			v, n := binary.Varint(buf[pos:])
			if n <= 0 {
				return nil, 0, errTruncated(i)
			}
			pos += n
			row[i] = sqltypes.Value{K: k, I: v}
		case sqltypes.KindFloat:
			if pos+8 > len(buf) {
				return nil, 0, errTruncated(i)
			}
			row[i] = sqltypes.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[pos:])))
			pos += 8
		case sqltypes.KindString, sqltypes.KindBytes:
			ln, n := binary.Uvarint(buf[pos:])
			if n <= 0 {
				return nil, 0, errTruncated(i)
			}
			pos += n
			if ln > uint64(len(buf)-pos) {
				return nil, 0, errTruncated(i)
			}
			data := buf[pos : pos+int(ln)]
			pos += int(ln)
			if k == sqltypes.KindString {
				row[i] = sqltypes.NewString(string(data))
			} else {
				row[i] = sqltypes.NewBytes(append([]byte(nil), data...))
			}
		default:
			return nil, 0, fmt.Errorf("storage: unknown spill value kind %d (column %d)", k, i)
		}
	}
	return row, pos, nil
}
