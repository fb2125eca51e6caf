package storage

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/vec"
)

// frameKey identifies a cached page across files.
type frameKey struct {
	file *PagedFile
	page PageID
}

// pinMask extracts the pin count from a frame's packed state word.
const pinMask = (uint64(1) << 32) - 1

// fillLatch is the per-frame miss latch: concurrent getters of an
// in-flight page wait on done; err is written before the close, so the
// close publishes it.
type fillLatch struct {
	done chan struct{}
	err  error
}

// frame is one buffer-pool slot.
//
// form, when set, is the decoded form of the page the frame holds — a
// sealed heap page, or the values of a clustered btree leaf (pageform.go)
// — kept while the frame maps that page: every install and recycle drops
// it, and so does a dirty Unpin, since the page changed (every btree
// insert, split and delete unpins its leaves dirty).
//
// state packs generation<<32 | pins. The generation is even while the
// frame's identity (key) is stable and odd while a recycle is in flight;
// it increases by two per recycle, so a successful CAS on an unchanged
// state word proves no recycle intervened. That is the whole warm-hit
// protocol: load state (even generation), load key (match), CAS pins+1 —
// all without the shard lock. The evictor begins a recycle with a CAS
// from (even, 0 pins) to (odd, 0), which any concurrent pin invalidates,
// and ends it with a store of (even+2, pins).
type frame struct {
	state atomic.Uint64
	key   atomic.Pointer[frameKey]
	latch atomic.Pointer[fillLatch]
	dirty atomic.Bool
	used  atomic.Bool // clock reference bit
	form  atomic.Pointer[pageForm]
	data  [PageSize]byte
}

// Frame is a pinned page of the pool, as Get hands it out.
type Frame = frame

// dropForm detaches the frame's decoded form, refunding its bytes. Scans
// already holding vectors over it keep them.
func (fr *frame) dropForm() {
	if f := fr.form.Swap(nil); f != nil {
		f.detach()
	}
}

// tryPin takes a pin iff the frame currently maps key. Safe without any
// lock: the CAS succeeds only if the state word — including the
// recycle generation — is unchanged since the key was validated.
func (fr *frame) tryPin(key frameKey) bool {
	for {
		s := fr.state.Load()
		if (s>>32)&1 == 1 {
			return false // recycle in flight
		}
		k := fr.key.Load()
		if k == nil || *k != key {
			return false
		}
		if fr.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// unpin releases one pin.
func (fr *frame) unpin() {
	for {
		s := fr.state.Load()
		if s&pinMask == 0 {
			panic("storage: Unpin of unpinned frame")
		}
		if fr.state.CompareAndSwap(s, s-1) {
			return
		}
	}
}

// poolShard is one lock domain of the buffer pool: its own frame map,
// clock list and hand. budget is how many frames the shard may own;
// eviction pressure moves budget between shards (see stealBudget), with
// the invariant len(clock) <= budget per shard and sum(budget) == pool
// capacity, so the pool never materializes more than capacity frames.
// snap is a copy-on-write snapshot of frames, republished after every
// map mutation under mu — the lock-free hit path reads only the
// snapshot, so misses and evictions never block warm hits.
type poolShard struct {
	mu     sync.Mutex
	frames map[frameKey]*frame
	snap   atomic.Pointer[map[frameKey]*frame]
	clock  []*frame
	hand   int
	budget int
}

// publishLocked republishes the frame-map snapshot. Called with mu held
// after every mutation of frames.
func (sh *poolShard) publishLocked() {
	m := make(map[frameKey]*frame, len(sh.frames))
	for k, v := range sh.frames {
		m[k] = v
	}
	sh.snap.Store(&m)
}

// installLocked binds an allocLocked frame to key with one pin held,
// completing the frame's recycle (generation back to even). latch is
// non-nil while a disk fill is pending; dirty marks freshly allocated
// pages. Called with mu held.
func (sh *poolShard) installLocked(fr *frame, key frameKey, dirty bool, latch *fillLatch) {
	gen := fr.state.Load() >> 32
	if gen&1 == 1 {
		gen++
	}
	fr.dirty.Store(dirty)
	fr.used.Store(true)
	fr.latch.Store(latch)
	fr.dropForm()
	k := key
	fr.key.Store(&k)
	sh.frames[key] = fr
	sh.publishLocked()
	// The store makes the frame pinnable; every identity field above is
	// ordered before it.
	fr.state.Store(gen<<32 | 1)
}

// BufferPool caches pages with pin/unpin semantics and clock eviction.
// Dirty pages are never evicted (no-steal); FlushFile persists them at
// checkpoints. The pool is safe for concurrent use; the paper's parallel
// query plans scan through it from multiple goroutines ("with a warm
// buffer pool", Section 5.3.3).
//
// The pool is sharded: pages hash (by file and page id) onto
// power-of-two many shards, each with its own mutex. Warm hits take no
// lock at all: they look the page up in the shard's copy-on-write map
// snapshot and pin with a single CAS on the frame's generation-stamped
// state word, so parallel scans over a warm pool scale without touching
// a mutex. Misses, evictions and flushes serialize on the shard lock as
// before; cache-miss disk reads happen outside it behind a per-frame
// fill latch.
//
// A frame holding a sealed heap page or a clustered btree leaf may also
// carry the page's decoded form, so a warm page is decoded once while it
// is resident, not once per scan. Forms are charged to one budget as large
// as the frames themselves (capacity × PageSize): a form that does not fit
// is not kept, and its scan decodes the page for itself. The pool's memory
// is therefore at most twice its configured size.
type BufferPool struct {
	shards   []poolShard
	mask     uint64
	capacity int

	hits, misses, evictions atomic.Int64
	decoded                 atomic.Int64 // bytes of the forms frames keep
}

// PoolStats is a point-in-time snapshot of the pool's counters.
// DecodedBytes is the memory the decoded forms on frames hold.
type PoolStats struct {
	Hits, Misses, Evictions, DecodedBytes int64
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s PoolStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewBufferPool returns a pool caching up to capacity pages, with a
// shard count sized to the machine.
func NewBufferPool(capacity int) *BufferPool {
	return NewBufferPoolSharded(capacity, 0)
}

// NewBufferPoolSharded returns a pool caching up to capacity pages
// split across the given number of shards (rounded up to a power of
// two). shards <= 0 selects a default based on GOMAXPROCS, capped so
// each shard still has a useful number of frames.
func NewBufferPoolSharded(capacity, shards int) *BufferPool {
	if capacity < 8 {
		capacity = 8
	}
	if shards <= 0 {
		// Oversubscribe shards vs cores so random page hashes rarely
		// collide on a lock even when every core runs a scan worker.
		shards = 4 * runtime.GOMAXPROCS(0)
		if shards < 8 {
			shards = 8
		}
	}
	n := 1
	for n < shards && n < 64 {
		n <<= 1
	}
	// Keep at least 4 frames of budget per shard on average.
	for n > 1 && capacity/n < 4 {
		n >>= 1
	}
	bp := &BufferPool{
		shards:   make([]poolShard, n),
		mask:     uint64(n - 1),
		capacity: capacity,
	}
	base, extra := capacity/n, capacity%n
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.frames = make(map[frameKey]*frame, base+1)
		sh.budget = base
		if i < extra {
			sh.budget++
		}
		sh.publishLocked()
	}
	return bp
}

// Capacity returns the maximum number of cached pages.
func (bp *BufferPool) Capacity() int { return bp.capacity }

// ShardCount returns the number of lock domains.
func (bp *BufferPool) ShardCount() int { return len(bp.shards) }

// Stats returns a consistent snapshot of the pool counters. Safe to
// call concurrently with scans (counters are atomics).
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:         bp.hits.Load(),
		Misses:       bp.misses.Load(),
		Evictions:    bp.evictions.Load(),
		DecodedBytes: bp.decoded.Load(),
	}
}

// reserveDecoded charges size bytes to the decoded budget, or reports
// that they do not fit.
func (bp *BufferPool) reserveDecoded(size int64) bool {
	limit := int64(bp.capacity) * PageSize
	for {
		d := bp.decoded.Load()
		if d+size > limit {
			return false
		}
		if bp.decoded.CompareAndSwap(d, d+size) {
			return true
		}
	}
}

// keepForm keeps f, the form just decoded from pinned frame fr, on the
// frame if the decoded budget takes it and no other scan kept one first.
// A form not kept stays with the scan that decoded it.
func (bp *BufferPool) keepForm(fr *frame, f *pageForm) {
	if !bp.reserveDecoded(f.bytes) {
		return
	}
	f.pool = bp
	f.charged.Store(f.bytes)
	if !fr.form.CompareAndSwap(nil, f) {
		f.pool = nil
		bp.decoded.Add(-f.bytes)
	}
}

// shard maps a page to its lock domain via a splitmix-style mix of the
// file id and page number.
func (bp *BufferPool) shard(key frameKey) *poolShard {
	h := key.file.id*0x9E3779B97F4A7C15 + uint64(key.page)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return &bp.shards[h&bp.mask]
}

// Get pins the page and returns its in-memory image. The caller must call
// Unpin (with dirty=true if it modified the image) when done.
//
// Warm hits complete entirely lock-free (snapshot lookup + tryPin). A
// miss reads from disk outside the shard lock: the frame is published
// with a fill latch first, so concurrent getters of the same page block
// on the latch (not on the shard), and getters of other pages proceed.
func (bp *BufferPool) Get(f *PagedFile, id PageID) (*frame, error) {
	return bp.GetT(f, id, obs.Sink{})
}

// GetT is Get on behalf of a consumer: the hit or miss is also written to
// sink, alongside the pool's own counters, so a plan operator's profile
// reports the pool traffic it caused.
func (bp *BufferPool) GetT(f *PagedFile, id PageID, sink obs.Sink) (*frame, error) {
	key := frameKey{f, id}
	sh := bp.shard(key)
	if m := sh.snap.Load(); m != nil {
		if fr, ok := (*m)[key]; ok && fr.tryPin(key) {
			return bp.pinned(fr, sink)
		}
	}
	sh.mu.Lock()
	for {
		if fr, ok := sh.frames[key]; ok {
			// Under mu the mapping is stable (recycles hold mu), so the
			// pin cannot fail.
			if !fr.tryPin(key) {
				sh.mu.Unlock()
				panic("storage: mapped frame rejected pin under shard lock")
			}
			sh.mu.Unlock()
			return bp.pinned(fr, sink)
		}
		fr := sh.allocLocked(bp)
		if fr == nil {
			sh.mu.Unlock()
			if err := bp.stealBudget(sh); err != nil {
				return nil, err
			}
			sh.mu.Lock()
			continue // re-check: the page may have been cached meanwhile
		}
		bp.misses.Add(1)
		sink.Add(obs.PoolMisses, 1)
		latch := &fillLatch{done: make(chan struct{})}
		sh.installLocked(fr, key, false, latch)
		sh.mu.Unlock()

		err := f.ReadPage(id, fr.data[:]) // the actual I/O, outside the lock
		if err == nil {
			// Checksum-verify the page image on its way into the pool.
			// Warm hits skip this: a frame is verified once per fill.
			err = f.verifyPage(id, fr.data[:])
		}
		if err != nil {
			// Publish the error, then unmap. The stale latch stays on the
			// frame until its next install: a racing lock-free pin that
			// slips in before the key is cleared finds the latch, observes
			// the error, and unpins — it can never mistake the frame for a
			// clean hit.
			latch.err = err
			sh.mu.Lock()
			delete(sh.frames, key)
			sh.publishLocked()
			fr.key.Store(nil)
			sh.mu.Unlock()
			fr.unpin()
			close(latch.done)
			return nil, err
		}
		fr.latch.Store(nil)
		close(latch.done)
		return fr, nil
	}
}

// pinned finishes a successful pin: account a hit, or wait out a pending
// fill.
func (bp *BufferPool) pinned(fr *frame, sink obs.Sink) (*frame, error) {
	latch := fr.latch.Load()
	if latch == nil {
		bp.hits.Add(1)
		sink.Add(obs.PoolHits, 1)
		fr.used.Store(true)
		return fr, nil
	}
	// Waiting on another getter's fill pays the I/O latency, so it
	// counts as a miss, keeping the reported hit rate honest about how
	// many accesses were served from memory.
	bp.misses.Add(1)
	sink.Add(obs.PoolMisses, 1)
	<-latch.done
	// The pin keeps the frame from being recycled, so latch.err still
	// belongs to the fill we waited for.
	if latch.err != nil {
		fr.unpin()
		return nil, latch.err
	}
	fr.used.Store(true)
	return fr, nil
}

// NewPage pins a frame for a freshly allocated page without reading from
// disk (the page is known to be zero).
func (bp *BufferPool) NewPage(f *PagedFile, id PageID) (*frame, error) {
	key := frameKey{f, id}
	sh := bp.shard(key)
	sh.mu.Lock()
	for {
		if _, ok := sh.frames[key]; ok {
			sh.mu.Unlock()
			return nil, fmt.Errorf("storage: NewPage for already-cached page %d", id)
		}
		fr := sh.allocLocked(bp)
		if fr == nil {
			sh.mu.Unlock()
			if err := bp.stealBudget(sh); err != nil {
				return nil, err
			}
			sh.mu.Lock()
			continue
		}
		clear(fr.data[:]) // before install: no reader can pin yet; install drops the form
		sh.installLocked(fr, key, true, nil)
		sh.mu.Unlock()
		return fr, nil
	}
}

// allocLocked finds a reusable frame in the shard: a fresh frame while
// the shard is under budget, else an unpinned clean page evicted via the
// clock algorithm. Returns nil when every frame is pinned or dirty. A
// returned recycled frame is in the odd-generation state (unpinnable)
// until installLocked. Called with sh.mu held.
func (sh *poolShard) allocLocked(bp *BufferPool) *frame {
	if len(sh.clock) < sh.budget {
		// A fresh frame starts mid-recycle (odd generation), like an
		// evicted one: installLocked publishes the frame in the snapshot
		// before it stores the pinned state, and an even generation would
		// let a lock-free getter pin it in between and lose that pin to
		// the store.
		fr := &frame{}
		fr.state.Store(1 << 32)
		sh.clock = append(sh.clock, fr)
		return fr
	}
	return sh.evictLocked(bp)
}

// evictLocked runs the clock sweep, returning an evicted frame (still
// tracked in the shard's clock, generation odd) or nil.
func (sh *poolShard) evictLocked(bp *BufferPool) *frame {
	for sweep := 0; sweep < 2*len(sh.clock); sweep++ {
		fr := sh.clock[sh.hand]
		sh.hand = (sh.hand + 1) % len(sh.clock)
		s := fr.state.Load()
		if s&pinMask != 0 || fr.dirty.Load() {
			continue
		}
		if fr.used.Load() {
			fr.used.Store(false)
			continue
		}
		// Begin the recycle: odd generation with zero pins. Any
		// concurrent lock-free pin changes the state word and fails the
		// CAS.
		if !fr.state.CompareAndSwap(s, (s>>32+1)<<32) {
			continue
		}
		// A pin taken and released between the dirty check and the CAS
		// leaves the state word unchanged but may have dirtied the frame
		// (Unpin orders the dirty store before the pin release, and that
		// release is ordered before our successful CAS). Re-check now
		// that the odd generation blocks further pins.
		if fr.dirty.Load() {
			fr.state.Store((s>>32 + 2) << 32) // abort: back to even, mapping intact
			continue
		}
		fr.dropForm()
		if k := fr.key.Load(); k != nil {
			fr.key.Store(nil)
			delete(sh.frames, *k)
			sh.publishLocked()
			bp.evictions.Add(1)
		}
		return fr
	}
	return nil
}

// stealBudget rebalances one unit of frame budget from a sibling shard
// into home after home's local allocation failed. Victim selection is
// pressure-aware: the sibling with the most spare (unmaterialized) budget
// cedes a unit first; otherwise the sibling with the most unpinned clean
// frames — the one losing the least cache utility — is evicted from and a
// frame physically moves. A first-fit sweep remains as the fallback
// because the scored pick is made from racy snapshots. Only one shard
// lock is held at a time (no ordering, no deadlock). Errors when every
// frame in the pool is pinned or dirty.
func (bp *BufferPool) stealBudget(home *poolShard) error {
	// Pass 1: the shard with the most spare budget cedes a unit without
	// losing any cached page.
	if sib := bp.maxScoreShard(home, func(sh *poolShard) int {
		return sh.budget - len(sh.clock)
	}); sib != nil {
		sib.mu.Lock()
		if len(sib.clock) < sib.budget { // re-validate under the lock
			sib.budget--
			sib.mu.Unlock()
			home.mu.Lock()
			home.budget++
			home.mu.Unlock()
			return nil
		}
		sib.mu.Unlock()
	}
	// Pass 2: evict from the shard under the least eviction pressure (most
	// unpinned clean frames).
	if sib := bp.maxScoreShard(home, func(sh *poolShard) int {
		free := 0
		for _, fr := range sh.clock {
			if fr.state.Load()&pinMask == 0 && !fr.dirty.Load() {
				free++
			}
		}
		return free
	}); sib != nil {
		sib.mu.Lock()
		if fr := sib.evictLocked(bp); fr != nil {
			sib.removeFromClockLocked(fr)
			sib.budget--
			sib.mu.Unlock()
			home.mu.Lock()
			home.budget++
			home.clock = append(home.clock, fr)
			home.mu.Unlock()
			return nil
		}
		sib.mu.Unlock()
	}
	// Fallback: the snapshots raced with concurrent pins; take whatever
	// any shard can give, first fit.
	for i := range bp.shards {
		sib := &bp.shards[i]
		if sib == home {
			continue
		}
		sib.mu.Lock()
		if len(sib.clock) < sib.budget {
			sib.budget--
			sib.mu.Unlock()
			home.mu.Lock()
			home.budget++
			home.mu.Unlock()
			return nil
		}
		if fr := sib.evictLocked(bp); fr != nil {
			sib.removeFromClockLocked(fr)
			sib.budget--
			sib.mu.Unlock()
			home.mu.Lock()
			home.budget++
			home.clock = append(home.clock, fr)
			home.mu.Unlock()
			return nil
		}
		sib.mu.Unlock()
	}
	return fmt.Errorf("storage: buffer pool exhausted (%d frames, all pinned or dirty); checkpoint required", bp.capacity)
}

// maxScoreShard returns the shard (other than home) with the highest
// positive score, or nil. Scores are computed one shard lock at a time,
// so they are snapshots; callers re-validate under the winner's lock.
func (bp *BufferPool) maxScoreShard(home *poolShard, score func(*poolShard) int) *poolShard {
	var best *poolShard
	bestScore := 0
	for i := range bp.shards {
		sib := &bp.shards[i]
		if sib == home {
			continue
		}
		sib.mu.Lock()
		s := score(sib)
		sib.mu.Unlock()
		if s > bestScore {
			bestScore, best = s, sib
		}
	}
	return best
}

// removeFromClockLocked unlinks fr from the shard's clock list.
func (sh *poolShard) removeFromClockLocked(fr *frame) {
	for i, c := range sh.clock {
		if c == fr {
			last := len(sh.clock) - 1
			sh.clock[i] = sh.clock[last]
			sh.clock[last] = nil
			sh.clock = sh.clock[:last]
			if sh.hand >= len(sh.clock) {
				sh.hand = 0
			}
			return
		}
	}
}

// Unpin releases a pinned frame. Lock-free: the dirty bit is published
// before the pin drops, and the evictor re-checks dirty after taking the
// frame, so the write can never be lost to a concurrent eviction.
func (bp *BufferPool) Unpin(fr *frame, dirty bool) {
	if dirty {
		fr.dropForm()
		fr.dirty.Store(true)
	}
	fr.unpin()
}

// EachDecodedColumn calls fn, under the frame's shard lock, with every
// array-holding vector of every decoded form a frame keeps: each column's
// template and its filled array. It is how a caller proves that scans
// never write a shared page (checksum before and after).
func (bp *BufferPool) EachDecodedColumn(fn func(*vec.Vector)) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.frames {
			if f := fr.form.Load(); f != nil {
				for c := range f.cols {
					fn(&f.cols[c].vec)
					if filled := f.cols[c].filled.Load(); filled != nil {
						fn(filled)
					}
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Data exposes the page image of a pinned frame.
func (fr *frame) Data() []byte { return fr.data[:] }

// FlushFile writes every dirty page of f to disk, in ascending PageID
// order for sequential I/O, and clears dirty flags. The file is not
// fsynced; callers sequence Sync with their WAL protocol. Concurrent
// Get/Unpin on other pages proceed; callers must not mutate pinned
// pages of f during the flush (checkpoints run with the engine's
// writer lock held).
func (bp *BufferPool) FlushFile(f *PagedFile) error {
	type flushEntry struct {
		fr   *frame
		page PageID
	}
	var toFlush []flushEntry
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		for k, fr := range sh.frames {
			if k.file == f && fr.dirty.Load() {
				// Mapped frames cannot be recycled while we hold the shard
				// lock, so a plain atomic increment pins safely.
				fr.state.Add(1)
				toFlush = append(toFlush, flushEntry{fr, k.page})
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(toFlush, func(i, j int) bool {
		return toFlush[i].page < toFlush[j].page
	})
	var firstErr error
	for _, e := range toFlush {
		var err error
		if firstErr == nil {
			err = f.WritePage(e.page, e.fr.data[:])
		}
		if err == nil && firstErr == nil {
			e.fr.dirty.Store(false)
		}
		e.fr.unpin()
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// DropFile removes every cached page of f (used when a table is dropped or
// truncated during rollback). Dirty pages are discarded.
func (bp *BufferPool) DropFile(f *PagedFile) {
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		changed := false
		for k, fr := range sh.frames {
			if k.file != f {
				continue
			}
			// Recycle the frame; pins>0 means the caller broke the
			// exclusivity contract (as before).
			for {
				s := fr.state.Load()
				if s&pinMask != 0 {
					sh.mu.Unlock()
					panic("storage: DropFile with pinned pages")
				}
				if fr.state.CompareAndSwap(s, (s>>32+1)<<32) {
					fr.dropForm()
					fr.dirty.Store(false)
					fr.key.Store(nil)
					delete(sh.frames, k)
					fr.state.Store((s>>32 + 2) << 32)
					changed = true
					break
				}
			}
		}
		if changed {
			sh.publishLocked()
		}
		sh.mu.Unlock()
	}
}
