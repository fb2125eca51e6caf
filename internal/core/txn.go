package core

import (
	"bytes"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/sqltypes"
	"repro/internal/wal"
)

// Txn is one MVCC transaction: a snapshot fixing what it reads plus
// per-table write sets (heap version spans, clustered keys, blobs) that
// commit flips visible or rollback undoes. Every session owns its own
// transaction handle; there is no global writer slot.
type Txn struct {
	id         uint64
	db         *Database
	snap       *Snapshot
	autocommit bool
	explicit   bool // counted by the txn manager (BEGIN ... COMMIT)
	began      bool // RecBegin appended
	logged     bool // WAL-only effects (e.g. ANALYZE images) need a commit record
	finished   bool
	// abortOnly is set when a statement left the transaction's write set
	// partially applied but fully undoable (e.g. a failed secondary-index
	// insert whose successful sibling entries are in idxUndo): the
	// statement failed alone, the database stays healthy, but COMMIT must
	// refuse and roll back instead — publishing the partial statement
	// would be silent wrong results.
	abortOnly error
	writes    map[uint32]*txnWrites
	blobsMade []string
}

// txnWrites is one transaction's write set against one table.
type txnWrites struct {
	td      *tableData
	spans   []*verSpan  // heap version spans owned by this txn
	keys    [][]byte    // clustered keys inserted by this txn
	idxUndo []indexUndo // secondary-index entries to delete on rollback
	rows    int64
}

// indexUndo is one secondary-index entry inserted by a transaction.
type indexUndo struct {
	ix  *indexData
	key []byte
}

// newTxn starts a transaction with a fresh snapshot.
func (db *Database) newTxn(autocommit bool) *Txn {
	id, snap := db.tm.begin(!autocommit)
	return &Txn{
		id:         id,
		db:         db,
		snap:       snap,
		autocommit: autocommit,
		explicit:   !autocommit,
		writes:     map[uint32]*txnWrites{},
	}
}

func (t *Txn) tableWrites(td *tableData) *txnWrites {
	w := t.writes[td.def.ID]
	if w == nil {
		w = &txnWrites{td: td}
		t.writes[td.def.ID] = w
	}
	return w
}

func (t *Txn) hasWrites() bool {
	return len(t.writes) > 0 || len(t.blobsMade) > 0 || t.logged
}

// beginWAL lazily logs RecBegin before the transaction's first write.
func (t *Txn) beginWAL() error {
	if t.began {
		return nil
	}
	if err := t.db.wal.Append(wal.Record{Type: wal.RecBegin, Txn: t.id}); err != nil {
		return err
	}
	t.began = true
	return nil
}

// endTxn releases the transaction's snapshot pin and explicit slot.
func (db *Database) endTxn(t *Txn) {
	db.tm.releaseSnapshot(t.snap)
	if t.explicit {
		db.tm.endExplicit()
	}
}

// markAborted hides every write of t from all snapshots without touching
// storage — used when physical undo is impossible (failed commit flush on
// a poisoned database). The rows stay until checkpoint compaction or
// recovery.
func (t *Txn) markAborted() {
	for _, w := range t.writes {
		w.td.versions.abortSpans(w.spans)
		w.td.versions.markKeysDead(w.keys)
	}
}

// commitTxn drives the pipelined commit: the commit sequence is assigned
// and the RecCommit appended under one short txn-manager critical section
// (so WAL order equals commit order — the only serialized step), then the
// caller rides the WAL's leader/follower group fsync alongside other
// committers, and finally visibility is published. Concurrent commits
// overlap everywhere except the append point.
func (db *Database) commitTxn(t *Txn) error {
	if t.finished {
		return fmt.Errorf("core: transaction already finished")
	}
	if t.abortOnly != nil {
		// A statement left a partial, undoable write set; the only legal
		// exit is rollback. The commit request surfaces the original error.
		reason := t.abortOnly
		if err := db.rollbackTxn(t); err != nil {
			return fmt.Errorf("core: transaction must roll back (%v); rollback failed: %w", reason, err)
		}
		return fmt.Errorf("core: transaction rolled back instead of committing: %w", reason)
	}
	t.finished = true
	defer db.endTxn(t)
	if !t.hasWrites() {
		return nil // read-only: nothing to log or publish
	}
	tm := db.tm
	tm.mu.Lock()
	err := db.wal.Append(wal.Record{Type: wal.RecCommit, Txn: t.id})
	var cseq uint64
	if err == nil {
		tm.nextCommitSeq++
		cseq = tm.nextCommitSeq
	}
	tm.mu.Unlock()
	if err != nil {
		// Nothing reached the log; no sequence was burned. The writes
		// can never become visible.
		t.markAborted()
		db.poison(fmt.Errorf("core: commit of txn %d failed: %w", t.id, err))
		return err
	}
	if err := db.wal.Flush(); err != nil { // durability point (group fsync)
		// The commit record may or may not have hit disk — recovery
		// decides from the log after reopen. In this process the txn is
		// treated as aborted, and the database is poisoned so no later
		// statement can observe the ambiguity. Publish the sequence so
		// the visibility horizon is not wedged behind the gap.
		t.markAborted()
		db.poison(fmt.Errorf("core: commit flush of txn %d failed: %w", t.id, err))
		tm.publish(cseq)
		return err
	}
	for _, w := range t.writes {
		w.td.versions.commit(w.spans, w.keys, cseq)
		// Stats staleness counts committed rows only; rolled-back inserts
		// must not inflate the ANALYZE drift counter.
		w.td.modCount.Add(w.rows)
	}
	tm.publish(cseq)
	return nil
}

// rollbackTxn undoes the transaction: heap spans are marked dead (the
// rows linger, invisible, until checkpoint compaction), clustered keys
// are physically deleted, created blobs removed. A failure mid-undo
// leaves half-reverted storage, so it poisons the database: every later
// statement fails until the file set is reopened and WAL recovery —
// which replays only committed transactions — rebuilds a clean image.
func (db *Database) rollbackTxn(t *Txn) error {
	if t.finished {
		return fmt.Errorf("core: transaction already finished")
	}
	t.finished = true
	defer db.endTxn(t)
	if !t.hasWrites() {
		return nil
	}
	// Best-effort abort record, no flush: recovery treats a missing
	// commit record as an abort, so losing this record is harmless.
	_ = db.wal.Append(wal.Record{Type: wal.RecAbort, Txn: t.id})
	var undoErr error
	for _, w := range t.writes {
		w.td.versions.abortSpans(w.spans)
		if len(w.idxUndo) > 0 {
			// Best effort: a failed delete leaves an entry at a dead heap
			// position, which scans never surface (visibility filters by
			// position) and the next compaction rebuild removes.
			w.td.writeMu.Lock()
			for _, u := range w.idxUndo {
				_, _ = u.ix.tree.Delete(u.key)
			}
			w.td.writeMu.Unlock()
		}
		if len(w.keys) == 0 {
			continue
		}
		if err := db.inj.Point("txn.undo"); err != nil {
			// Storage failed before any key could be deleted; keep every
			// entry as a dead mask so no key silently resurfaces.
			w.td.versions.markKeysDead(w.keys)
			if undoErr == nil {
				undoErr = fmt.Errorf("undo %s keys: %w", w.td.def.Name, err)
			}
			continue
		}
		w.td.writeMu.Lock()
		failed := false
		for _, k := range w.keys {
			if _, err := w.td.tree.Delete(k); err != nil {
				failed = true
				if undoErr == nil {
					undoErr = fmt.Errorf("undo %s key: %w", w.td.def.Name, err)
				}
			}
		}
		w.td.writeMu.Unlock()
		if failed {
			// Some keys may physically remain; keep their version entries
			// as dead masks instead of dropping them.
			w.td.versions.markKeysDead(w.keys)
		} else {
			w.td.versions.dropKeys(w.keys)
		}
	}
	for _, guid := range t.blobsMade {
		if err := db.blobs.Delete(guid); err != nil && undoErr == nil {
			undoErr = fmt.Errorf("undo blob %s: %w", guid, err)
		}
	}
	if undoErr != nil {
		err := fmt.Errorf("core: rollback of txn %d failed mid-undo: %w", t.id, undoErr)
		db.poison(err)
		return err
	}
	return nil
}

// finishAuto commits or rolls back an autocommit transaction at the end
// of its statement (explicit ones wait for COMMIT/ROLLBACK).
func (db *Database) finishAuto(t *Txn, execErr error) error {
	if !t.autocommit {
		return execErr
	}
	if execErr != nil {
		if rbErr := db.rollbackTxn(t); rbErr != nil {
			return fmt.Errorf("%w (rollback also failed: %v)", execErr, rbErr)
		}
		return execErr
	}
	return db.commitTxn(t)
}

// insertChunkRows is the most rows one RecInsert record carries.
const insertChunkRows = 1024

// insertRows is the one write path of table rows: INSERT ... VALUES and
// ... SELECT, InsertRows, ImportFileStream and provenance records all come
// through it. The whole statement is validated before anything is
// written — every row converted and encoded, each heap row, clustered
// entry and index entry checked to fit a page, a clustered table's keys
// sorted, refused when two are equal, and probed against the tree — so a
// refused statement leaves nothing behind and an explicit transaction
// stays usable. Then, under the table's write latch, the rows go out in
// chunks of insertChunkRows: one RecInsert record, the version notes and
// the storage writes per chunk. An error after the first record turns t
// abort-only: part of the statement is in the log and in storage, all of
// it undoable, and COMMIT would publish it.
func (db *Database) insertRows(t *Txn, td *tableData, rows []sqltypes.Row) error {
	if len(rows) == 0 {
		return nil
	}
	b, err := td.newRowBatch(rows)
	if err != nil {
		return err
	}
	td.writeMu.Lock()
	defer td.writeMu.Unlock()
	if td.tree != nil {
		if i, err := td.tree.FirstPresent(b.keys); err != nil {
			return err
		} else if i >= 0 {
			return fmt.Errorf("core: duplicate primary key in %s", td.def.Name)
		}
	} else if err := td.indexKeys(b, td.insertSeq); err != nil {
		return err
	}
	if err := t.beginWAL(); err != nil {
		return err
	}
	w := t.tableWrites(td)
	for lo := 0; lo < len(b.rows); lo += insertChunkRows {
		hi := min(lo+insertChunkRows, len(b.rows))
		first := td.insertSeq
		if err := db.wal.Append(wal.Record{
			Type: wal.RecInsert, Txn: t.id, Table: td.def.ID,
			RowIndex: first, Data: b.imgs[b.start(lo):b.ends[hi-1]],
		}); err != nil {
			if lo > 0 {
				t.abortOnly = err
			}
			return err
		}
		td.insertSeq += int64(hi - lo)
		w.rows += int64(hi - lo)
		// Version notes before the physical writes: a clustered key with
		// no entry is visible to everyone, so it must be masked first.
		// Every index entry the chunk is to write goes on the undo list;
		// rollback's delete of one that never landed finds nothing.
		if td.tree != nil {
			td.versions.noteKeys(t.id, b.keys[lo:hi])
			w.keys = append(w.keys, b.keys[lo:hi]...)
		} else if sp := td.versions.noteInsert(t.id, first, int64(hi-lo)); sp != nil {
			w.spans = append(w.spans, sp)
		}
		for x, ix := range td.indexes {
			for _, k := range b.ixKeys[x][lo:hi] {
				w.idxUndo = append(w.idxUndo, indexUndo{ix: ix, key: k})
			}
		}
		if err := db.writeRows(td, b, lo, hi, first, btree.Unique); err != nil {
			t.abortOnly = err
			return err
		}
	}
	return nil
}

// writeRows writes rows [lo, hi) of b, the first at heap position first,
// to td's storage: a clustered table's keys and row images, or a heap's
// rows and each index's entries for them (b.ixKeys), sorted. Live inserts
// write Unique, recovery's redo Upsert. Redo skips heap rows the heap
// already holds (durable at the last checkpoint) but still writes their
// entries: a crash between the heap's checkpoint and an index's leaves
// durable rows whose entries never reached the index file.
func (db *Database) writeRows(td *tableData, b *rowBatch, lo, hi int, first int64, mode btree.InsertMode) error {
	if td.tree != nil {
		vals := make([][]byte, hi-lo)
		for i := range vals {
			vals[i] = b.img(lo + i)
		}
		_, err := td.tree.InsertSorted(b.keys[lo:hi], vals, mode)
		return err
	}
	for i, row := range b.rows[lo:hi] {
		if first+int64(i) < td.heap.RowCount() {
			continue
		}
		if err := td.heap.Append(row); err != nil {
			// The position is burned and storage state is unknown.
			err = fmt.Errorf("core: heap append %s: %w", td.def.Name, err)
			db.poison(err)
			return err
		}
	}
	for x, ix := range td.indexes {
		keys := b.ixKeys[x][lo:hi]
		slices.SortFunc(keys, bytes.Compare)
		if _, err := ix.tree.InsertSorted(keys, nil, mode); err != nil {
			return fmt.Errorf("core: index %s maintenance on %s: %w", ix.name, td.def.Name, err)
		}
	}
	return nil
}

// rowBatch is rows ready to write to one table: storage rows, their WAL
// images back to back, and, for a clustered table, their keys — rows,
// images and keys in key order — or, for a heap, each index's entries.
type rowBatch struct {
	rows   []sqltypes.Row
	imgs   []byte
	ends   []int // row i's image is imgs[start(i):ends[i]]
	keys   [][]byte
	ixKeys [][][]byte // a heap's entries, per index in row order; writeRows sorts each chunk's in place
}

func (b *rowBatch) start(i int) int {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

func (b *rowBatch) img(i int) []byte { return b.imgs[b.start(i):b.ends[i]] }

// newRowBatch converts and encodes a statement's rows for td.
func (td *tableData) newRowBatch(rows []sqltypes.Row) (*rowBatch, error) {
	b := &rowBatch{rows: make([]sqltypes.Row, len(rows)), ends: make([]int, len(rows))}
	for i, row := range rows {
		stored, err := td.def.ToStorageRow(row)
		if err != nil {
			return nil, err
		}
		if td.heap != nil {
			if err := td.heap.CheckRow(stored); err != nil {
				return nil, fmt.Errorf("core: insert into %s: %w", td.def.Name, err)
			}
		}
		if b.imgs, err = td.walCodec.EncodeAppend(b.imgs, stored); err != nil {
			return nil, err
		}
		if i == 0 {
			// Size the image buffer from the first row's image.
			b.imgs = append(make([]byte, 0, len(b.imgs)*len(rows)*5/4), b.imgs...)
		}
		b.rows[i], b.ends[i] = stored, len(b.imgs)
	}
	if err := td.keyBatch(b); err != nil {
		return nil, err
	}
	// Only here, not in decodeRowBatch: a log may hold an aborted insert
	// of an entry this check refuses, and recovery must still read it.
	for i, key := range b.keys {
		if err := btree.CheckEntry(key, b.img(i)); err != nil {
			return nil, fmt.Errorf("core: insert into %s: %w", td.def.Name, err)
		}
	}
	return b, nil
}

// decodeRowBatch decodes a RecInsert payload for td: n >= 1 row images
// back to back (a record from before batching holds one). An arbitrary
// payload decodes or fails; it never panics.
func (td *tableData) decodeRowBatch(data []byte) (*rowBatch, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty insert record for %s", td.def.Name)
	}
	b := &rowBatch{imgs: data}
	for off := 0; off < len(data); {
		row, n, err := td.walCodec.Decode(data[off:], true)
		if err != nil {
			return nil, fmt.Errorf("core: insert record for %s, row %d: %w", td.def.Name, len(b.rows), err)
		}
		off += n
		b.rows = append(b.rows, row)
		b.ends = append(b.ends, off)
	}
	return b, td.keyBatch(b)
}

// keyBatch gives a clustered table's batch its keys and puts rows, images
// and keys in key order, refusing two equal keys. Heap batches keep
// statement order.
func (td *tableData) keyBatch(b *rowBatch) error {
	if td.tree == nil {
		return nil
	}
	keys := make([][]byte, len(b.rows))
	for i, row := range b.rows {
		key, err := td.pkKey(row)
		if err != nil {
			return err
		}
		keys[i] = key
	}
	if !slices.IsSortedFunc(keys, bytes.Compare) {
		perm := make([]int, len(keys))
		for i := range perm {
			perm[i] = i
		}
		slices.SortFunc(perm, func(i, j int) int { return bytes.Compare(keys[i], keys[j]) })
		sorted := &rowBatch{rows: make([]sqltypes.Row, len(perm)), imgs: make([]byte, 0, len(b.imgs)), ends: make([]int, len(perm))}
		sortedKeys := make([][]byte, len(perm))
		for i, p := range perm {
			sorted.imgs = append(sorted.imgs, b.img(p)...)
			sorted.rows[i], sorted.ends[i], sortedKeys[i] = b.rows[p], len(sorted.imgs), keys[p]
		}
		*b, keys = *sorted, sortedKeys
	}
	for i := 1; i < len(keys); i++ {
		if bytes.Equal(keys[i-1], keys[i]) {
			return fmt.Errorf("core: duplicate primary key in %s", td.def.Name)
		}
	}
	b.keys = keys
	return nil
}

// indexKeys gives a heap batch each index's entries, the batch's first
// row at heap position first, refusing an entry too large for a page.
func (td *tableData) indexKeys(b *rowBatch, first int64) error {
	b.ixKeys = make([][][]byte, len(td.indexes))
	for x, ix := range td.indexes {
		keys := make([][]byte, len(b.rows))
		for i, row := range b.rows {
			key, err := indexEntryKey(ix.cols, row, first+int64(i))
			if err == nil {
				err = btree.CheckEntry(key, nil)
			}
			if err != nil {
				return fmt.Errorf("core: index %s on %s: %w", ix.name, td.def.Name, err)
			}
			keys[i] = key
		}
		b.ixKeys[x] = keys
	}
	return nil
}

// createBlobInTxn imports a blob under transactional control.
func (db *Database) createBlobInTxn(t *Txn, guid, srcPath string) (int64, error) {
	if err := t.beginWAL(); err != nil {
		return 0, err
	}
	if err := db.wal.Append(wal.Record{
		Type: wal.RecBlobCreate, Txn: t.id, Data: []byte(guid),
	}); err != nil {
		return 0, err
	}
	n, err := db.blobs.CreateFromFile(guid, srcPath)
	if err != nil {
		return 0, err
	}
	t.blobsMade = append(t.blobsMade, guid)
	return n, nil
}
