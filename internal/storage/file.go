// Package storage implements the relational storage engine: fixed-size
// paged files, a pinning buffer pool with clock eviction, row
// serialization, and the three physical row formats of the paper's
// evaluation — uncompressed, ROW compression (variable-length encodings,
// SQL Server 2008 §2.3.5) and PAGE compression (row + column-prefix +
// page-dictionary compression applied when a page is sealed).
//
// Durability follows a force-at-checkpoint, no-steal policy: dirty pages
// are never evicted and data files are only mutated at checkpoints, which
// makes write-ahead-log redo idempotent (see package wal).
package storage

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// PageSize is the fixed page size, matching SQL Server's 8 KB pages.
const PageSize = 8192

// PageID identifies a page within a PagedFile.
type PageID int64

// PagedFile provides page-granular access to an underlying file. It is
// safe for concurrent use.
type PagedFile struct {
	mu    sync.Mutex
	f     fault.File
	pages int64
	path  string
	id    uint64 // process-unique, used to hash pages onto pool shards
	inj   *fault.Injector
	// verify, when set, checks a page image read from disk (CRC
	// verification on buffer-pool misses). Set once at open time, before
	// the file is shared.
	verify func(PageID, []byte) error
}

// pagedFileSeq hands out process-unique PagedFile ids.
var pagedFileSeq atomic.Uint64

// OpenPagedFile opens (creating if necessary) a paged file. A partial
// last page is cut off.
func OpenPagedFile(path string) (*PagedFile, error) {
	return OpenPagedFileFault(path, nil, "file")
}

// OpenPagedFileFault is OpenPagedFile with fault-injection routing: the
// file's reads, writes, syncs and truncates evaluate failpoints labelled
// with site, and a simulated crash discards its unsynced writes.
func OpenPagedFileFault(path string, inj *fault.Injector, site string) (*PagedFile, error) {
	f, err := fault.OpenFile(inj, site, path)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	if size%PageSize != 0 {
		// Every write is a whole page at a page boundary, so a partial
		// last page is an extension torn by a crash. No meta page counts
		// it (a checkpoint syncs its pages before the meta that counts
		// them), so it is cut off, as a torn WAL tail is.
		size -= size % PageSize
		if err := f.Truncate(size); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: cut torn last page of %s: %w", path, err)
		}
	}
	return &PagedFile{f: f, pages: size / PageSize, path: path, id: pagedFileSeq.Add(1), inj: inj}, nil
}

// SetPageVerifier installs fn to check every page image this file reads
// from disk. Must be called at open time, before the file is shared.
func (p *PagedFile) SetPageVerifier(fn func(PageID, []byte) error) { p.verify = fn }

// verifyPage runs the installed page verifier, if any.
func (p *PagedFile) verifyPage(id PageID, data []byte) error {
	if p.verify == nil {
		return nil
	}
	return p.verify(id, data)
}

// NumPages returns the current number of allocated pages.
func (p *PagedFile) NumPages() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pages
}

// Path returns the backing file path.
func (p *PagedFile) Path() string { return p.path }

// Allocate extends the file by one zero page and returns its id.
func (p *PagedFile) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	id := PageID(p.pages)
	var zero [PageSize]byte
	if _, err := p.f.WriteAt(zero[:], int64(id)*PageSize); err != nil {
		return 0, fmt.Errorf("storage: allocate page %d in %s: %w", id, p.path, err)
	}
	p.pages++
	return id, nil
}

// ReadPage fills buf (which must be PageSize long) with the page contents.
func (p *PagedFile) ReadPage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: ReadPage buffer size %d", len(buf))
	}
	p.mu.Lock()
	n := p.pages
	p.mu.Unlock()
	if int64(id) < 0 || int64(id) >= n {
		return fmt.Errorf("storage: page %d out of range [0,%d) in %s", id, n, p.path)
	}
	_, err := p.f.ReadAt(buf, int64(id)*PageSize)
	if err != nil {
		return fmt.Errorf("storage: read page %d of %s: %w", id, p.path, err)
	}
	return nil
}

// WritePage persists buf (PageSize long) as the page contents.
func (p *PagedFile) WritePage(id PageID, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("storage: WritePage buffer size %d", len(buf))
	}
	p.mu.Lock()
	n := p.pages
	p.mu.Unlock()
	if int64(id) < 0 || int64(id) >= n {
		return fmt.Errorf("storage: page %d out of range [0,%d) in %s", id, n, p.path)
	}
	if _, err := p.f.WriteAt(buf, int64(id)*PageSize); err != nil {
		return fmt.Errorf("storage: write page %d of %s: %w", id, p.path, err)
	}
	return nil
}

// Truncate shrinks the file to n pages (used by transaction rollback of
// appended heap pages).
func (p *PagedFile) Truncate(n int64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n > p.pages {
		return fmt.Errorf("storage: truncate %s to %d > %d pages", p.path, n, p.pages)
	}
	if err := p.f.Truncate(n * PageSize); err != nil {
		return err
	}
	p.pages = n
	return nil
}

// Sync flushes the file to stable storage.
func (p *PagedFile) Sync() error { return p.f.Sync() }

// Close releases the file handle.
func (p *PagedFile) Close() error { return p.f.Close() }

// SizeBytes returns the allocated file size.
func (p *PagedFile) SizeBytes() int64 { return p.NumPages() * PageSize }
