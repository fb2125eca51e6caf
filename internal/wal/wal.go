// Package wal implements the write-ahead log. Recovery follows the
// force-at-checkpoint protocol of package storage: data files only change
// at checkpoints, each table records its durable row count, and redo
// replays logged inserts whose row index is at or beyond that watermark —
// making replay idempotent without page LSNs.
//
// Records are length-prefixed, CRC-protected, and carry a monotonic
// sequence number. The sequence number lets Replay tell the two failure
// shapes apart: a torn tail (crash during append — the log simply ends
// early, recovery stops cleanly) versus mid-log corruption with valid
// records after it (bit rot or a misdirected write inside committed
// history — recovery fails with ErrCorruptLog rather than silently
// dropping committed transactions).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// RecordType enumerates log record kinds.
type RecordType uint8

// Log record kinds.
const (
	// RecInsert logs n >= 1 rows appended to a table (heap or clustered):
	// their row images back to back, the first at RowIndex.
	RecInsert RecordType = iota + 1
	// RecCommit marks a transaction committed; its effects must be redone.
	RecCommit
	// RecAbort marks a transaction rolled back; its effects are skipped.
	RecAbort
	// RecBlobCreate logs creation of a FileStream blob (data is the GUID).
	RecBlobCreate
	// RecBlobDelete logs deletion of a FileStream blob.
	RecBlobDelete
	// RecDDL logs a catalog change (data is the serialized statement).
	RecDDL
	// RecStats logs an ANALYZE statistics image (data is the JSON-encoded
	// table statistics); recovery re-applies the image so stats collected
	// after the last checkpoint survive a crash that loses the stats file.
	RecStats
	// RecBegin marks the first write of a transaction. Recovery does not
	// need it (commit presence decides replay) but it bounds each txn id's
	// record range for log inspection and future partial-truncate schemes.
	RecBegin
)

// Record is one log entry.
type Record struct {
	Type     RecordType
	Txn      uint64
	Table    uint32 // table id for RecInsert
	RowIndex int64  // position of the first inserted row within its table
	Data     []byte // row images, blob GUID, or DDL payload
}

// ErrCorruptLog reports damage inside committed log history: a record
// that fails its CRC or breaks the sequence while valid records exist
// after it. Unlike a torn tail this is not a crash frontier — replaying
// past it would silently drop committed transactions, so recovery
// surfaces the error instead. Match with errors.Is.
var ErrCorruptLog = errors.New("wal: corrupt log")

// WAL is an append-only log file. Appends are buffered; Flush makes them
// durable. Safe for concurrent use.
//
// Flush is a group commit: concurrent callers elect a leader that writes
// and fsyncs the whole buffer — covering every record appended before the
// grab — while followers wait for a completed sync to cover their own
// records. N concurrently committing transactions therefore pay ~1 fsync
// instead of N.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    fault.File
	buf  []byte
	size int64
	path string
	inj  *fault.Injector

	appendSeq uint64 // records appended so far
	syncedSeq uint64 // appendSeq covered by the last completed fsync
	flushing  bool   // a leader is writing/syncing outside the lock
	ioErr     error  // sticky: a failed write/sync poisons the log

	// nextSeq is the sequence number the next appended record gets
	// (monotonic from 1 within one log generation; Truncate resets it).
	nextSeq uint64
	// legacy marks a pre-sequence-number log file (no magic, 8-byte
	// record headers). It is replayable with the old torn-tail-only
	// semantics and becomes a current-format log at the first Truncate.
	legacy bool

	syncs atomic.Int64 // completed fsyncs (observability + tests)
	// groupWait optionally stretches the leader's gathering window so
	// followers can pile onto one sync; used by tests (production leaders
	// gather naturally while the previous sync is in flight).
	groupWait time.Duration
}

// Log file format: walMagic, then records of walHeaderLen-byte header
// (u32 payload length, u32 CRC over sequence+payload, u64 sequence)
// followed by the payload. Legacy files (pre-sequence) have no magic and
// legacyHeaderLen-byte headers (u32 length, u32 CRC over payload).
const (
	walMagic        = "GWALSEQ1"
	walMagicLen     = 8
	walHeaderLen    = 16
	legacyHeaderLen = 8
)

// Open opens (creating if needed) the log at path. Existing content is
// preserved for Replay.
func Open(path string) (*WAL, error) {
	return OpenFault(path, nil)
}

// OpenFault is Open with fault-injection routing: log writes and fsyncs
// evaluate failpoints at site "wal", and appends evaluate the code point
// "wal.append".
func OpenFault(path string, inj *fault.Injector) (*WAL, error) {
	f, err := fault.OpenFile(inj, "wal", path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f, size: size, path: path, inj: inj, nextSeq: 1}
	w.cond = sync.NewCond(&w.mu)
	if err := w.scanOpen(); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// scanOpen classifies the existing log (current format vs legacy) and
// positions nextSeq after the last intact record. Damage is left in place
// for Replay to diagnose (torn tail vs mid-log corruption).
func (w *WAL) scanOpen() error {
	if w.size == 0 {
		return nil
	}
	var magic [walMagicLen]byte
	if w.size >= walMagicLen {
		if _, err := w.f.ReadAt(magic[:], 0); err != nil {
			return fmt.Errorf("wal: read %s: %w", w.path, err)
		}
	}
	if string(magic[:]) != walMagic {
		// A short or unmagiced non-empty file: either a pre-sequence log
		// or the torn first flush of a new one (nothing durable yet —
		// legacy replay of unparseable bytes stops immediately).
		w.legacy = true
		return nil
	}
	off := int64(walMagicLen)
	var hdr [walHeaderLen]byte
	for off+walHeaderLen <= w.size {
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			if err == io.EOF {
				break
			}
			return fmt.Errorf("wal: read %s: %w", w.path, err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		seq := binary.LittleEndian.Uint64(hdr[8:])
		if off+walHeaderLen+n > w.size || seq != w.nextSeq {
			break
		}
		payload := make([]byte, n)
		if _, err := w.f.ReadAt(payload, off+walHeaderLen); err != nil {
			return fmt.Errorf("wal: read %s: %w", w.path, err)
		}
		if recordCRC(hdr[8:16], payload) != crc {
			break
		}
		w.nextSeq = seq + 1
		off += walHeaderLen + n
	}
	return nil
}

// recordCRC computes the checksum stored in a record header: CRC-32 over
// the sequence-number bytes followed by the payload, so a damaged
// sequence field is detected like damaged data.
func recordCRC(seqBytes, payload []byte) uint32 {
	c := crc32.ChecksumIEEE(seqBytes)
	return crc32.Update(c, crc32.IEEETable, payload)
}

// Append buffers one record. Call Flush to make it durable (the engine
// flushes on commit).
func (w *WAL) Append(rec Record) error {
	if err := w.inj.Point("wal.append"); err != nil {
		return fmt.Errorf("wal: append to %s: %w", w.path, err)
	}
	payload := encodeRecord(rec)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ioErr != nil {
		return w.ioErr
	}
	if w.legacy {
		// Mixing formats in one file would make replay ambiguous; the
		// engine checkpoints (and thus truncates to the current format)
		// before its first append, so this only guards misuse.
		return fmt.Errorf("wal: %s is a pre-sequence log; checkpoint and truncate before appending", w.path)
	}
	var hdr [walHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:], w.nextSeq)
	binary.LittleEndian.PutUint32(hdr[4:], recordCRC(hdr[8:16], payload))
	w.nextSeq++
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, payload...)
	w.appendSeq++
	return nil
}

// Flush makes every record appended before the call durable — the
// durability point of a commit. Concurrent flushes batch into one fsync.
func (w *WAL) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushToLocked(w.appendSeq)
}

// flushToLocked returns once records up to target are durable, electing
// this caller as the write/sync leader when no sync is in flight. Called
// with w.mu held; the lock is dropped during I/O.
func (w *WAL) flushToLocked(target uint64) error {
	for {
		if w.ioErr != nil {
			return w.ioErr
		}
		if w.syncedSeq >= target {
			return nil
		}
		if w.flushing {
			// A leader is syncing; it may already cover target. Re-check
			// when it finishes.
			w.cond.Wait()
			continue
		}
		w.flushing = true
		if w.groupWait > 0 {
			// Test hook: hold the gathering window open so concurrent
			// committers join this sync.
			w.mu.Unlock()
			time.Sleep(w.groupWait)
			w.mu.Lock()
		}
		batch := w.buf
		w.buf = nil
		covered := w.appendSeq
		off := w.size
		if off == 0 && len(batch) > 0 {
			// First write of a log generation: lead with the magic.
			batch = append([]byte(walMagic), batch...)
		}
		w.mu.Unlock()

		var err error
		if len(batch) > 0 {
			if _, err = w.f.WriteAt(batch, off); err != nil {
				err = fmt.Errorf("wal: write %s: %w", w.path, err)
			}
		}
		if err == nil {
			if err = w.f.Sync(); err != nil {
				err = fmt.Errorf("wal: sync %s: %w", w.path, err)
			} else {
				w.syncs.Add(1)
			}
		}

		w.mu.Lock()
		w.flushing = false
		if err != nil {
			w.ioErr = err
		} else {
			w.size = off + int64(len(batch))
			w.syncedSeq = covered
		}
		w.cond.Broadcast()
	}
}

// Syncs returns the number of completed fsyncs — with group commit this
// grows slower than the number of committed transactions.
func (w *WAL) Syncs() int64 { return w.syncs.Load() }

// awaitIdleLocked waits until no leader is writing outside the lock, so
// the caller may safely mutate the file. Called with w.mu held.
func (w *WAL) awaitIdleLocked() {
	for w.flushing {
		w.cond.Wait()
	}
}

// Size returns the durable log size in bytes (excluding buffered records).
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// PendingBytes returns the buffered, not-yet-flushed byte count.
func (w *WAL) PendingBytes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.buf)
}

// Truncate discards the entire log; called after a successful checkpoint
// has made all logged effects durable in the data files. The next flush
// starts a fresh log generation in the current format (sequence numbers
// restart at 1), which is also how a legacy-format log is upgraded.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.awaitIdleLocked() // no leader may be writing while we shrink the file
	w.buf = w.buf[:0]
	if err := w.f.Truncate(0); err != nil {
		return err
	}
	w.size = 0
	w.syncedSeq = w.appendSeq // nothing left to make durable
	w.nextSeq = 1
	w.legacy = false
	return w.f.Sync()
}

// Close flushes and closes the log.
func (w *WAL) Close() error {
	err := w.Flush()
	w.mu.Lock()
	w.awaitIdleLocked() // other committers may still have a leader in flight
	w.mu.Unlock()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Replay streams every intact record from the start of the log. A torn
// tail — the log ends mid-record with nothing after it — ends replay
// cleanly: it is the crash frontier, and the caller should Truncate after
// re-checkpointing. A record that fails its CRC, decodes badly, or breaks
// the sequence while intact records exist beyond it is mid-log corruption:
// Replay returns ErrCorruptLog, because continuing (or stopping silently)
// would drop committed transactions.
func (w *WAL) Replay(fn func(Record) error) error {
	w.mu.Lock()
	if err := w.flushToLocked(w.appendSeq); err != nil {
		w.mu.Unlock()
		return err
	}
	size := w.size
	legacy := w.legacy
	w.mu.Unlock()

	if legacy {
		return w.replayLegacy(size, fn)
	}
	if size < walMagicLen {
		return nil
	}
	var off int64 = walMagicLen
	var prevSeq uint64
	var hdr [walHeaderLen]byte
	for off+walHeaderLen <= size {
		bad := ""
		var n int64
		var rec Record
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			if err != io.EOF {
				return err
			}
			bad = "short header"
		}
		if bad == "" {
			n = int64(binary.LittleEndian.Uint32(hdr[0:]))
			crc := binary.LittleEndian.Uint32(hdr[4:])
			seq := binary.LittleEndian.Uint64(hdr[8:])
			if off+walHeaderLen+n > size {
				bad = "truncated payload"
			} else {
				payload := make([]byte, n)
				if _, err := w.f.ReadAt(payload, off+walHeaderLen); err != nil {
					return err
				}
				if recordCRC(hdr[8:16], payload) != crc {
					bad = "checksum mismatch"
				} else if seq != prevSeq+1 {
					// An intact record with the wrong sequence number is
					// corruption on its own: sequences never skip, so
					// records between prevSeq and seq were lost (or stale
					// bytes sit where newer records should be).
					return fmt.Errorf("wal: %s: intact record with sequence %d after %d at offset %d: %w",
						w.path, seq, prevSeq, off, ErrCorruptLog)
				} else {
					var err error
					rec, err = decodeRecord(payload)
					if err != nil {
						bad = "undecodable record"
					}
				}
			}
		}
		if bad != "" {
			later, err := w.laterIntactRecord(off, size, prevSeq)
			if err != nil {
				return err
			}
			if later {
				return fmt.Errorf("wal: %s: record after sequence %d at offset %d (%s) with intact records beyond it: %w",
					w.path, prevSeq, off, bad, ErrCorruptLog)
			}
			return nil // genuine torn tail: crash frontier
		}
		if err := fn(rec); err != nil {
			return err
		}
		prevSeq++
		off += walHeaderLen + n
	}
	return nil
}

// laterIntactRecord reports whether any byte offset after a damaged
// record parses as an intact record with a larger sequence number —
// the discriminator between a torn tail and mid-log corruption.
func (w *WAL) laterIntactRecord(off, size int64, prevSeq uint64) (bool, error) {
	rest := make([]byte, size-off)
	if _, err := w.f.ReadAt(rest, off); err != nil && err != io.EOF {
		return false, err
	}
	for o := int64(1); o+walHeaderLen <= int64(len(rest)); o++ {
		n := int64(binary.LittleEndian.Uint32(rest[o:]))
		if o+walHeaderLen+n > int64(len(rest)) {
			continue
		}
		crc := binary.LittleEndian.Uint32(rest[o+4:])
		seq := binary.LittleEndian.Uint64(rest[o+8:])
		if seq <= prevSeq {
			continue
		}
		payload := rest[o+walHeaderLen : o+walHeaderLen+n]
		if recordCRC(rest[o+8:o+16], payload) != crc {
			continue
		}
		if _, err := decodeRecord(payload); err != nil {
			continue
		}
		return true, nil
	}
	return false, nil
}

// replayLegacy replays a pre-sequence-number log: 8-byte headers, CRC
// over payload only, and the historical semantics where any damage is
// treated as the crash frontier (legacy logs cannot tell the difference).
func (w *WAL) replayLegacy(size int64, fn func(Record) error) error {
	var off int64
	var hdr [legacyHeaderLen]byte
	for off+legacyHeaderLen <= size {
		if _, err := w.f.ReadAt(hdr[:], off); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:]))
		crc := binary.LittleEndian.Uint32(hdr[4:])
		if off+legacyHeaderLen+n > size {
			return nil // torn tail
		}
		payload := make([]byte, n)
		if _, err := w.f.ReadAt(payload, off+legacyHeaderLen); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil // corrupt tail
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return nil // undecodable tail counts as torn
		}
		if err := fn(rec); err != nil {
			return err
		}
		off += legacyHeaderLen + n
	}
	return nil
}

func encodeRecord(rec Record) []byte {
	out := make([]byte, 0, 16+len(rec.Data))
	out = append(out, byte(rec.Type))
	out = binary.AppendUvarint(out, rec.Txn)
	out = binary.AppendUvarint(out, uint64(rec.Table))
	out = binary.AppendUvarint(out, uint64(rec.RowIndex))
	out = binary.AppendUvarint(out, uint64(len(rec.Data)))
	return append(out, rec.Data...)
}

func decodeRecord(b []byte) (Record, error) {
	var rec Record
	if len(b) < 1 {
		return rec, fmt.Errorf("wal: empty record")
	}
	rec.Type = RecordType(b[0])
	b = b[1:]
	u := func() (uint64, error) {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return 0, fmt.Errorf("wal: truncated record field")
		}
		b = b[n:]
		return v, nil
	}
	txn, err := u()
	if err != nil {
		return rec, err
	}
	table, err := u()
	if err != nil {
		return rec, err
	}
	rowIdx, err := u()
	if err != nil {
		return rec, err
	}
	dataLen, err := u()
	if err != nil {
		return rec, err
	}
	if uint64(len(b)) != dataLen {
		return rec, fmt.Errorf("wal: record data length mismatch")
	}
	rec.Txn = txn
	rec.Table = uint32(table)
	rec.RowIndex = int64(rowIdx)
	if dataLen > 0 {
		rec.Data = append([]byte(nil), b...)
	}
	return rec, nil
}
