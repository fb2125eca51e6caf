package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Multi-version concurrency control.
//
// Every inserted row is stamped with the transaction that created it.
// Heap rows are identified by their global row index and tracked as
// contiguous *version spans* (an in-memory version chain over the
// existing heap pages); clustered rows are tracked by primary key in a
// recent-key map. A statement reads under a Snapshot — the highest
// commit sequence published when it began — and sees exactly the rows
// whose creating transaction committed at or before that horizon, plus
// its own uncommitted writes. Readers therefore never block behind
// writers and writers never block behind readers; write-write conflicts
// are limited to per-table latches held for the duration of one
// statement's insert.
//
// Commit sequence numbers are assigned at the WAL append point (the only
// serialized step of the commit pipeline); durability comes from the
// WAL's leader/follower group fsync, and visibility is published after
// the flush returns. Because flushes can finish out of order, published
// commits above a gap stay invisible to new snapshots until the gap
// fills — a snapshot is always a prefix of the commit order.
//
// A background vacuum folds spans older than the oldest live snapshot
// into the table's all-visible floor and drops key-map entries, so the
// version metadata stays proportional to recent write activity. Rows of
// aborted transactions stay in the heap as dead spans until the next
// checkpoint compacts them away (the durable heap never contains dead
// rows — recovery only replays committed transactions).

// Snapshot fixes the commit horizon a statement or transaction reads at.
type Snapshot struct {
	seq   uint64 // commits with cseq <= seq are visible
	txnID uint64 // own uncommitted writes are visible (0 = plain reader)
}

type spanState uint8

const (
	spanPending spanState = iota
	spanCommitted
	spanDead
)

// verSpan is a contiguous run of heap rows created by one transaction.
type verSpan struct {
	start, end int64 // global row indexes [start, end)
	txnID      uint64
	cseq       uint64 // commit sequence once committed
	state      spanState
}

// rowRange is a half-open run of visible row indexes.
type rowRange struct{ start, end int64 }

// keyVer is the version stamp of a recently-inserted clustered key.
type keyVer struct {
	txnID uint64
	cseq  uint64
	state spanState
}

// tableVersions is the per-table MVCC state.
type tableVersions struct {
	mu       sync.Mutex
	floor    int64      // heap rows < floor are visible to everyone unless dead
	spans    []*verSpan // rows [floor, insertSeq), ordered, contiguous
	dead     []rowRange // aborted rows below the floor, sorted, disjoint
	deadRows int64      // total dead rows (dead list + dead-state spans)
	keys     map[string]*keyVer
	keyCount atomic.Int64 // fast empty check on the clustered scan path
}

func newTableVersions(rowCount int64) *tableVersions {
	return &tableVersions{floor: rowCount, keys: map[string]*keyVer{}}
}

// noteInsert records n heap rows appended by t from index idx on,
// extending the transaction's trailing span when the insert is
// contiguous. The returned span is non-nil only when a new span was
// created (the caller links it to the transaction for the commit/abort
// flip). Callers hold the table's write latch, so appends arrive in index
// order.
func (tv *tableVersions) noteInsert(txnID uint64, idx, n int64) *verSpan {
	tv.mu.Lock()
	defer tv.mu.Unlock()
	if k := len(tv.spans); k > 0 {
		last := tv.spans[k-1]
		if last.state == spanPending && last.txnID == txnID && last.end == idx {
			last.end += n
			return nil
		}
	}
	sp := &verSpan{start: idx, end: idx + n, txnID: txnID, state: spanPending}
	tv.spans = append(tv.spans, sp)
	return sp
}

// noteKeys records pending clustered-key inserts.
func (tv *tableVersions) noteKeys(txnID uint64, keys [][]byte) {
	tv.mu.Lock()
	for _, key := range keys {
		tv.keys[string(key)] = &keyVer{txnID: txnID, state: spanPending}
	}
	tv.keyCount.Store(int64(len(tv.keys)))
	tv.mu.Unlock()
}

// commit publishes a transaction's spans and keys at commit sequence
// cseq. Runs after the WAL flush that made the commit durable.
func (tv *tableVersions) commit(spans []*verSpan, keys [][]byte, cseq uint64) {
	tv.mu.Lock()
	for _, sp := range spans {
		sp.state = spanCommitted
		sp.cseq = cseq
	}
	for _, k := range keys {
		if e := tv.keys[string(k)]; e != nil {
			e.state = spanCommitted
			e.cseq = cseq
		}
	}
	tv.mu.Unlock()
}

// abortSpans marks a transaction's heap spans dead. The rows stay in the
// heap, invisible to every snapshot, until checkpoint compaction.
func (tv *tableVersions) abortSpans(spans []*verSpan) {
	tv.mu.Lock()
	for _, sp := range spans {
		if sp.state != spanDead {
			sp.state = spanDead
			tv.deadRows += sp.end - sp.start
		}
	}
	tv.mu.Unlock()
}

// dropKeys removes key entries after the caller has physically deleted
// the keys from the tree (rollback): an absent entry means "visible", so
// the tree delete must land first.
func (tv *tableVersions) dropKeys(keys [][]byte) {
	tv.mu.Lock()
	for _, k := range keys {
		delete(tv.keys, string(k))
	}
	tv.keyCount.Store(int64(len(tv.keys)))
	tv.mu.Unlock()
}

// markKeysDead hides keys that could not be physically removed (failed
// commit flush or failed undo on a poisoned database).
func (tv *tableVersions) markKeysDead(keys [][]byte) {
	tv.mu.Lock()
	for _, k := range keys {
		if e := tv.keys[string(k)]; e != nil {
			e.state = spanDead
		}
	}
	tv.mu.Unlock()
}

// deadCount returns the number of dead (aborted) heap rows.
func (tv *tableVersions) deadCount() int64 {
	tv.mu.Lock()
	defer tv.mu.Unlock()
	return tv.deadRows
}

// spanVisible decides one span under a snapshot. snap == nil means
// "latest committed" (recovery, TVF side scans).
func spanVisible(state spanState, txnID, cseq uint64, snap *Snapshot) bool {
	switch state {
	case spanDead:
		return false
	case spanPending:
		return snap != nil && snap.txnID != 0 && snap.txnID == txnID
	default: // committed
		return snap == nil || cseq <= snap.seq
	}
}

// visibleRanges renders the rows of this table visible under snap as
// sorted disjoint row-index ranges — computed once per scan open, so the
// per-row filter is a pointer walk.
func (tv *tableVersions) visibleRanges(snap *Snapshot) []rowRange {
	tv.mu.Lock()
	defer tv.mu.Unlock()
	out := make([]rowRange, 0, len(tv.dead)+len(tv.spans)+1)
	cur := int64(0)
	for _, d := range tv.dead {
		if d.start > cur {
			out = append(out, rowRange{cur, d.start})
		}
		cur = d.end
	}
	if cur < tv.floor {
		out = append(out, rowRange{cur, tv.floor})
	}
	for _, sp := range tv.spans {
		if !spanVisible(sp.state, sp.txnID, sp.cseq, snap) {
			continue
		}
		if n := len(out); n > 0 && out[n-1].end == sp.start {
			out[n-1].end = sp.end
		} else {
			out = append(out, rowRange{sp.start, sp.end})
		}
	}
	return out
}

// keyVisible decides a clustered key under a snapshot. Keys with no
// entry are old enough to be visible to everyone.
func (tv *tableVersions) keyVisible(key []byte, snap *Snapshot) bool {
	if tv.keyCount.Load() == 0 {
		return true
	}
	tv.mu.Lock()
	e, ok := tv.keys[string(key)]
	var cp keyVer
	if ok {
		cp = *e
	}
	tv.mu.Unlock()
	if !ok {
		return true
	}
	return spanVisible(cp.state, cp.txnID, cp.cseq, snap)
}

// prune advances the all-visible floor over leading spans resolved at or
// below horizon and drops key entries every live snapshot can see — the
// vacuum step.
func (tv *tableVersions) prune(horizon uint64) {
	tv.mu.Lock()
	defer tv.mu.Unlock()
	folded := 0
	for _, sp := range tv.spans {
		if sp.start != tv.floor {
			break // defensive: spans must tile from the floor
		}
		if sp.state == spanCommitted && sp.cseq <= horizon {
			tv.floor = sp.end
			folded++
			continue
		}
		if sp.state == spanDead {
			// Fold into the permanent dead list (kept sorted: spans are
			// ordered and everything below the floor already is).
			if n := len(tv.dead); n > 0 && tv.dead[n-1].end == sp.start {
				tv.dead[n-1].end = sp.end
			} else {
				tv.dead = append(tv.dead, rowRange{sp.start, sp.end})
			}
			tv.floor = sp.end
			folded++
			continue
		}
		break // pending, or committed above the horizon
	}
	if folded > 0 {
		n := copy(tv.spans, tv.spans[folded:])
		for j := n; j < len(tv.spans); j++ {
			tv.spans[j] = nil
		}
		tv.spans = tv.spans[:n]
	}
	if len(tv.keys) > 0 {
		for k, e := range tv.keys {
			if e.state == spanCommitted && e.cseq <= horizon {
				delete(tv.keys, k)
			}
		}
		tv.keyCount.Store(int64(len(tv.keys)))
	}
}

// resetAtCheckpoint clears all version metadata after a checkpoint
// compaction: every surviving row is committed and durable.
func (tv *tableVersions) resetAtCheckpoint(rowCount int64) {
	tv.mu.Lock()
	tv.floor = rowCount
	tv.spans = nil
	tv.dead = nil
	tv.deadRows = 0
	tv.keys = map[string]*keyVer{}
	tv.keyCount.Store(0)
	tv.mu.Unlock()
}

// firstDead returns the lowest dead row index, or -1 when none. Called
// at checkpoint with all spans resolved.
func (tv *tableVersions) firstDead() int64 {
	tv.mu.Lock()
	defer tv.mu.Unlock()
	first := int64(-1)
	if len(tv.dead) > 0 {
		first = tv.dead[0].start
	}
	for _, sp := range tv.spans {
		if sp.state == spanDead && (first < 0 || sp.start < first) {
			first = sp.start
		}
	}
	return first
}

// txnManager hands out transaction ids, commit sequences and snapshots.
type txnManager struct {
	mu             sync.Mutex
	nextTxnID      uint64
	nextCommitSeq  uint64          // last assigned commit sequence
	visibleSeq     uint64          // highest contiguous published commit
	published      map[uint64]bool // commits published above visibleSeq
	snapshots      map[uint64]int  // live snapshot seq -> refcount
	activeExplicit int             // open BEGIN...COMMIT transactions
}

func newTxnManager() *txnManager {
	return &txnManager{published: map[uint64]bool{}, snapshots: map[uint64]int{}}
}

// begin allocates a transaction id and its snapshot.
func (tm *txnManager) begin(explicit bool) (id uint64, snap *Snapshot) {
	tm.mu.Lock()
	tm.nextTxnID++
	id = tm.nextTxnID
	snap = &Snapshot{seq: tm.visibleSeq, txnID: id}
	tm.snapshots[snap.seq]++
	if explicit {
		tm.activeExplicit++
	}
	tm.mu.Unlock()
	return id, snap
}

// readSnapshot registers a statement-scoped snapshot (no transaction).
func (tm *txnManager) readSnapshot() *Snapshot {
	tm.mu.Lock()
	snap := &Snapshot{seq: tm.visibleSeq}
	tm.snapshots[snap.seq]++
	tm.mu.Unlock()
	return snap
}

// releaseSnapshot drops a snapshot's pin on the vacuum horizon.
func (tm *txnManager) releaseSnapshot(snap *Snapshot) {
	if snap == nil {
		return
	}
	tm.mu.Lock()
	if n := tm.snapshots[snap.seq]; n > 1 {
		tm.snapshots[snap.seq] = n - 1
	} else {
		delete(tm.snapshots, snap.seq)
	}
	tm.mu.Unlock()
}

// endExplicit retires one explicit transaction.
func (tm *txnManager) endExplicit() {
	tm.mu.Lock()
	tm.activeExplicit--
	tm.mu.Unlock()
}

// explicitOpen reports whether any session holds an open explicit
// transaction (checkpoint and DDL refuse to run then).
func (tm *txnManager) explicitOpen() bool {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.activeExplicit > 0
}

// publish marks commit sequence c visible and advances the contiguous
// horizon new snapshots read at.
func (tm *txnManager) publish(c uint64) {
	tm.mu.Lock()
	tm.published[c] = true
	for tm.published[tm.visibleSeq+1] {
		tm.visibleSeq++
		delete(tm.published, tm.visibleSeq)
	}
	tm.mu.Unlock()
}

// horizon is the oldest commit sequence any live snapshot can see — the
// vacuum bound. With no snapshots open it is the current visible head.
func (tm *txnManager) horizon() uint64 {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	h := tm.visibleSeq
	for seq := range tm.snapshots {
		if seq < h {
			h = seq
		}
	}
	return h
}

// vacuumInterval paces the background version pruner.
const vacuumInterval = 25 * time.Millisecond

// vacuumLoop prunes version metadata until stop is closed.
func (db *Database) vacuumLoop(stop <-chan struct{}) {
	t := time.NewTicker(vacuumInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			db.vacuum()
		}
	}
}

// vacuum runs one synchronous vacuum pass: spans and clustered-key
// entries older than the oldest live snapshot fold into each table's
// all-visible floor. The background loop calls it continuously; tests
// call it to run a pass now.
func (db *Database) vacuum() {
	db.sink.Add(obs.VacuumRuns, 1)
	horizon := db.tm.horizon()
	db.mu.RLock()
	tds := make([]*tableData, 0, len(db.tables))
	for _, td := range db.tables {
		tds = append(tds, td)
	}
	db.mu.RUnlock()
	for _, td := range tds {
		td.versions.prune(horizon)
	}
}
