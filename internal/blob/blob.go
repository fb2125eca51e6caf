// Package blob implements the engine's FileStream store — the hybrid
// physical design at the heart of the paper (Section 2.3.6): BLOBs are kept
// as ordinary files in an engine-managed directory, under transactional
// control of the database (creation and deletion are WAL-logged by the
// engine), while external tools can still read and write them directly
// through their file path (reads.PathName() in the paper's T-SQL example).
//
// Stream provides the SqlBytes-style GetBytes interface used by table-
// valued wrapper functions, including the SequentialAccess mode "that
// implements pre-fetching on FileStream data" (Section 4.1).
package blob

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store manages FileStream blobs in a directory.
type Store struct {
	dir string
	mu  sync.Mutex
}

// OpenStore opens (creating if needed) a blob store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("blob: create store dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// NewGUID returns a fresh random identifier in UUID format — the engine's
// NEWID().
func NewGUID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("blob: crypto/rand failed: " + err.Error())
	}
	b[6] = (b[6] & 0x0f) | 0x40 // version 4
	b[8] = (b[8] & 0x3f) | 0x80 // variant
	return fmt.Sprintf("%x-%x-%x-%x-%x", b[0:4], b[4:6], b[6:8], b[8:10], b[10:16])
}

// validGUID guards against path traversal through hostile identifiers.
func validGUID(guid string) error {
	if guid == "" || strings.ContainsAny(guid, "/\\") || strings.Contains(guid, "..") {
		return fmt.Errorf("blob: invalid guid %q", guid)
	}
	return nil
}

// PathName returns the file path of a blob — the dual-access hook that
// lets existing bioinformatics tools work on the data in place.
func (s *Store) PathName(guid string) (string, error) {
	if err := validGUID(guid); err != nil {
		return "", err
	}
	return filepath.Join(s.dir, guid), nil
}

// Create streams r into a new blob. The write goes to a temporary file
// that is atomically renamed, so a crash never leaves a half-written blob
// under a valid GUID. Returns the blob size.
func (s *Store) Create(guid string, r io.Reader) (int64, error) {
	path, err := s.PathName(guid)
	if err != nil {
		return 0, err
	}
	if _, err := os.Stat(path); err == nil {
		return 0, fmt.Errorf("blob: %s already exists", guid)
	}
	tmp, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return 0, err
	}
	n, err := io.Copy(tmp, r)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("blob: write %s: %w", guid, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return 0, err
	}
	return n, nil
}

// CreateFromFile imports an existing file as a blob by copying it — the
// engine's OPENROWSET(BULK ..., SINGLE_BLOB).
func (s *Store) CreateFromFile(guid, srcPath string) (int64, error) {
	f, err := os.Open(srcPath)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return s.Create(guid, f)
}

// Delete removes a blob. Missing blobs are not an error (delete must be
// idempotent for WAL redo).
func (s *Store) Delete(guid string) error {
	path, err := s.PathName(guid)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Exists reports whether a blob is present.
func (s *Store) Exists(guid string) bool {
	path, err := s.PathName(guid)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// Size returns a blob's length in bytes — DATALENGTH(reads) in the
// paper's metadata query.
func (s *Store) Size(guid string) (int64, error) {
	path, err := s.PathName(guid)
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// List returns every blob GUID in the store.
func (s *Store) List() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		out = append(out, e.Name())
	}
	return out, nil
}

// TotalSize sums all blob sizes, for the storage-efficiency experiments.
func (s *Store) TotalSize() (int64, error) {
	guids, err := s.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, g := range guids {
		n, err := s.Size(g)
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Open returns a Stream over a blob.
func (s *Store) Open(guid string) (*Stream, error) {
	path, err := s.PathName(guid)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Stream{f: f, size: st.Size()}, nil
}

// PrefetchChunk is the read-ahead window of SequentialAccess streams.
const PrefetchChunk = 1 << 20

// windows keeps read-ahead windows between streams, so a sequential read
// does not allocate and zero a megabyte a window.
var windows = sync.Pool{New: func() any { return new([PrefetchChunk]byte) }}

// Stream is random access over one blob — the SqlBytes of the paper's TVF
// wrapper. With SetSequential(true) it prefetches the next window in the
// background while the caller parses the current one. Its windows go back
// to the pool when the stream is done with them: when a later window
// replaces one, and at SetSequential(false) and Close.
type Stream struct {
	f    *os.File
	size int64

	mu  sync.Mutex
	seq bool
	cur fetchResult // current prefetched window
	// In-flight background fetch.
	next chan fetchResult
}

// fetchResult is a window of the blob, its n bytes at off in win, or the
// error reading it.
type fetchResult struct {
	off int64
	win *[PrefetchChunk]byte
	n   int
	err error
}

// covers says whether the window holds the byte at off.
func (r fetchResult) covers(off int64) bool {
	return r.win != nil && off >= r.off && off < r.off+int64(r.n)
}

// Size returns the blob length.
func (st *Stream) Size() int64 { return st.size }

// SetSequential toggles read-ahead prefetching (the SequentialAccess flag
// of Section 4.1).
func (st *Stream) SetSequential(on bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq = on
	if !on {
		st.drainLocked()
		st.setWindowLocked(fetchResult{})
	}
}

// GetBytes copies blob content starting at off into buf, returning the
// byte count; 0 with io.EOF signals end of blob. Implements
// fastq.ByteSource.
func (st *Stream) GetBytes(off int64, buf []byte) (int, error) {
	if off < 0 {
		return 0, errors.New("blob: negative offset")
	}
	if off >= st.size {
		return 0, io.EOF
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.seq {
		return st.f.ReadAt(buf, off) // may return short read + io.EOF at end
	}
	total := 0
	for total < len(buf) && off < st.size {
		if err := st.ensureWindowLocked(off); err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		n := copy(buf[total:], st.cur.win[off-st.cur.off:st.cur.n])
		total += n
		off += int64(n)
	}
	return total, nil
}

// ensureWindowLocked makes the prefetch window cover off.
func (st *Stream) ensureWindowLocked(off int64) error {
	if st.cur.covers(off) {
		return nil
	}
	// Sequential continuation: the background fetch should hold it.
	if st.next != nil {
		res := <-st.next
		st.next = nil
		if res.covers(off) {
			st.setWindowLocked(res)
			st.startFetchLocked(res.off + int64(res.n))
			return nil
		}
		// Mismatch (random access): discard and fetch synchronously.
		release(res)
	}
	res := st.fetch(off)
	if res.err != nil {
		return res.err
	}
	st.setWindowLocked(res)
	st.startFetchLocked(off + int64(res.n))
	return nil
}

// setWindowLocked makes res the current window, giving the one it replaces
// back to the pool.
func (st *Stream) setWindowLocked(res fetchResult) {
	release(st.cur)
	st.cur = res
}

// fetch reads the window at off into a window from the pool.
func (st *Stream) fetch(off int64) fetchResult {
	if off >= st.size {
		return fetchResult{off: off, err: io.EOF}
	}
	n := int(min(PrefetchChunk, st.size-off))
	win := windows.Get().(*[PrefetchChunk]byte)
	if _, err := st.f.ReadAt(win[:n], off); err != nil {
		windows.Put(win)
		return fetchResult{off: off, err: err}
	}
	return fetchResult{off: off, win: win, n: n}
}

// release gives a fetched window nobody will read back to the pool.
func release(res fetchResult) {
	if res.win != nil {
		windows.Put(res.win)
	}
}

func (st *Stream) startFetchLocked(off int64) {
	if off >= st.size {
		return
	}
	ch := make(chan fetchResult, 1)
	st.next = ch
	go func() {
		ch <- st.fetch(off)
	}()
}

func (st *Stream) drainLocked() {
	if st.next != nil {
		release(<-st.next)
		st.next = nil
	}
}

// Close releases the stream (draining any in-flight prefetch) and its
// windows.
func (st *Stream) Close() error {
	st.mu.Lock()
	st.drainLocked()
	st.setWindowLocked(fetchResult{})
	st.mu.Unlock()
	return st.f.Close()
}
