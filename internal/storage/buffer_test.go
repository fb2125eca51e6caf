package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// stampedFile creates a paged file of n pages where page i starts with
// byte(i) (and byte(i>>8)), for content verification under concurrency.
func stampedFile(t testing.TB, dir string, name string, n int) *PagedFile {
	t.Helper()
	f, err := OpenPagedFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	for i := 0; i < n; i++ {
		id, err := f.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i)
		buf[1] = byte(i >> 8)
		if err := f.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// checkPoolInvariants asserts the sharding bookkeeping: budgets sum to
// capacity, no shard materialized more frames than its budget, and no
// frame is left pinned or mid-load.
func checkPoolInvariants(t *testing.T, bp *BufferPool) {
	t.Helper()
	totalBudget, totalFrames := 0, 0
	for i := range bp.shards {
		sh := &bp.shards[i]
		sh.mu.Lock()
		totalBudget += sh.budget
		totalFrames += len(sh.clock)
		if len(sh.clock) > sh.budget {
			t.Errorf("shard %d holds %d frames over budget %d", i, len(sh.clock), sh.budget)
		}
		for _, fr := range sh.clock {
			if fr.state.Load()&pinMask != 0 {
				t.Errorf("shard %d leaked a pin on page %v", i, fr.key.Load())
			}
			if fr.key.Load() != nil && fr.latch.Load() != nil {
				t.Errorf("shard %d left a frame mid-load", i)
			}
		}
		if len(sh.frames) > len(sh.clock) {
			t.Errorf("shard %d maps %d keys over %d frames", i, len(sh.frames), len(sh.clock))
		}
		sh.mu.Unlock()
	}
	if totalBudget != bp.capacity {
		t.Errorf("budgets sum to %d, capacity %d", totalBudget, bp.capacity)
	}
	if totalFrames > bp.capacity {
		t.Errorf("%d frames materialized over capacity %d", totalFrames, bp.capacity)
	}
}

func TestBufferPoolShardedBasics(t *testing.T) {
	bp := NewBufferPoolSharded(64, 8)
	if bp.ShardCount() != 8 {
		t.Fatalf("shard count = %d", bp.ShardCount())
	}
	if bp.Capacity() != 64 {
		t.Fatalf("capacity = %d", bp.Capacity())
	}
	// Tiny pools collapse shards to keep per-shard budgets useful.
	small := NewBufferPoolSharded(8, 64)
	if small.ShardCount() > 2 {
		t.Errorf("8-frame pool got %d shards", small.ShardCount())
	}
	f := stampedFile(t, t.TempDir(), "t.dat", 128)
	defer f.Close()
	for i := 0; i < 128; i++ {
		fr, err := bp.Get(f, PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data()[0] != byte(i) {
			t.Fatalf("page %d content %d", i, fr.Data()[0])
		}
		bp.Unpin(fr, false)
	}
	st := bp.Stats()
	if st.Misses != 128 {
		t.Errorf("misses = %d, want 128", st.Misses)
	}
	if st.Evictions == 0 {
		t.Error("no evictions with 128 pages in 64 frames")
	}
	checkPoolInvariants(t, bp)
}

// TestBufferPoolShardSteal pins the whole capacity through NewPage — the
// pages hash unevenly, so some shards must probe siblings for budget —
// then verifies exhaustion, the no-steal rule for dirty pages, and
// recovery after a flush.
func TestBufferPoolShardSteal(t *testing.T) {
	dir := t.TempDir()
	f, err := OpenPagedFile(filepath.Join(dir, "t.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bp := NewBufferPoolSharded(16, 4)
	var frames []*frame
	for i := 0; i < 16; i++ {
		id, _ := f.Allocate()
		fr, err := bp.NewPage(f, id)
		if err != nil {
			t.Fatalf("NewPage %d (steal across shards failed): %v", i, err)
		}
		frames = append(frames, fr)
	}
	id, _ := f.Allocate()
	if _, err := bp.Get(f, id); err == nil {
		t.Error("expected pool exhaustion with all frames pinned")
	}
	for _, fr := range frames {
		bp.Unpin(fr, true)
	}
	if _, err := bp.Get(f, id); err == nil {
		t.Error("expected pool exhaustion with all frames dirty (no-steal)")
	}
	if err := bp.FlushFile(f); err != nil {
		t.Fatal(err)
	}
	fr, err := bp.Get(f, id)
	if err != nil {
		t.Fatalf("after flush: %v", err)
	}
	bp.Unpin(fr, false)
	checkPoolInvariants(t, bp)
}

// TestBufferPoolConcurrentSamePage hammers one page from many goroutines
// so the fill latch (miss published before the read completes) is
// exercised: everyone must see fully-read page contents.
func TestBufferPoolConcurrentSamePage(t *testing.T) {
	f := stampedFile(t, t.TempDir(), "t.dat", 4)
	defer f.Close()
	for round := 0; round < 50; round++ {
		bp := NewBufferPoolSharded(16, 4)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					fr, err := bp.Get(f, PageID(i))
					if err != nil {
						t.Error(err)
						return
					}
					if fr.Data()[0] != byte(i) {
						t.Errorf("page %d content %d mid-fill", i, fr.Data()[0])
					}
					bp.Unpin(fr, false)
				}
			}()
		}
		wg.Wait()
		st := bp.Stats()
		if st.Hits+st.Misses != 8*4 {
			t.Fatalf("hits %d + misses %d != 32", st.Hits, st.Misses)
		}
		checkPoolInvariants(t, bp)
	}
}

// TestBufferPoolConcurrentStress runs parallel Get/Unpin over shared
// read-only files, concurrent FlushFile, a private dirty-page
// writer/dropper, and a stats poller — the workload mix of a checkpoint
// racing parallel scans. Run under -race (the CI does).
func TestBufferPoolConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	const pages = 200
	fa := stampedFile(t, dir, "a.dat", pages)
	fb := stampedFile(t, dir, "b.dat", pages)
	defer fa.Close()
	defer fb.Close()
	fc, err := OpenPagedFile(filepath.Join(dir, "c.dat"))
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	bp := NewBufferPoolSharded(64, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: random pages across both shared files, verifying stamps.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 3000; i++ {
				f := fa
				if rng.Intn(2) == 1 {
					f = fb
				}
				p := rng.Intn(pages)
				if i%16 == 0 {
					p = 0 // shared hot page: same-page latch contention
				}
				fr, err := bp.Get(f, PageID(p))
				if err != nil {
					t.Error(err)
					return
				}
				if fr.Data()[0] != byte(p) || fr.Data()[1] != byte(p>>8) {
					t.Errorf("page %d stamp %d/%d", p, fr.Data()[0], fr.Data()[1])
				}
				bp.Unpin(fr, false)
			}
		}(int64(g))
	}

	// Flusher over a shared read-only file (no dirty frames: exercises the
	// shard traversal against concurrent Gets).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if err := bp.FlushFile(fa); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Writer: owns file C exclusively — NewPage, dirty, flush, drop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for cycle := 0; cycle < 100; cycle++ {
			var frames []*frame
			for j := 0; j < 3; j++ {
				id, err := fc.Allocate()
				if err != nil {
					t.Error(err)
					return
				}
				fr, err := bp.NewPage(fc, id)
				if err != nil {
					t.Error(err)
					return
				}
				fr.Data()[0] = byte(cycle)
				frames = append(frames, fr)
			}
			for _, fr := range frames {
				bp.Unpin(fr, true)
			}
			if err := bp.FlushFile(fc); err != nil {
				t.Error(err)
				return
			}
			bp.DropFile(fc)
		}
	}()

	// Stats poller: reading counters during a scan must be race-free. It
	// joins separately since it only exits once the workers are done.
	pollerDone := make(chan struct{})
	go func() {
		defer close(pollerDone)
		for {
			select {
			case <-stop:
				return
			default:
				st := bp.Stats()
				if st.Hits < 0 || st.Misses < 0 {
					t.Error("negative counters")
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-pollerDone
	checkPoolInvariants(t, bp)
}

// TestBufferPoolReadErrorPropagatesToWaiters forces a miss on an
// out-of-range page and checks the pool recovers (the failed frame is
// recycled, no pin leaks).
func TestBufferPoolReadError(t *testing.T) {
	f := stampedFile(t, t.TempDir(), "t.dat", 2)
	defer f.Close()
	bp := NewBufferPoolSharded(16, 4)
	if _, err := bp.Get(f, 99); err == nil {
		t.Fatal("out-of-range Get succeeded")
	}
	// Pool stays usable and invariants hold after the failed fill.
	fr, err := bp.Get(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fr, false)
	checkPoolInvariants(t, bp)
}

// benchHeap builds a heap with enough sealed pages for partitioned scans.
func benchHeap(b *testing.B, pool *BufferPool, rows int) *Heap {
	b.Helper()
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	h, err := OpenHeap(filepath.Join(b.TempDir(), "bench.heap"), kinds, CompressNone, pool)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		err := h.Append(sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString("ACGTACGTACGTACGTACGTACGTACGTACGT"),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if err := h.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	return h
}

// scanParallel scans all sealed pages with dop goroutines over disjoint
// page ranges, returning the total rows seen.
func scanParallel(b *testing.B, h *Heap, dop int) int64 {
	b.Helper()
	sealed := h.SealedPages()
	var wg sync.WaitGroup
	counts := make([]int64, dop)
	for w := 0; w < dop; w++ {
		lo := sealed * int64(w) / int64(dop)
		hi := sealed * int64(w+1) / int64(dop)
		wg.Add(1)
		go func(w int, lo, hi int64) {
			defer wg.Done()
			it := h.NewBatchIterator(lo, hi, false, obs.Sink{})
			for {
				batch, err := it.NextBatch()
				if err != nil {
					b.Error(err)
				}
				if err != nil || batch == nil {
					return
				}
				// Every cell, as the row scan this replaced decoded them.
				for _, col := range batch.Cols {
					if err := col.Materialize(); err != nil {
						b.Error(err)
						return
					}
				}
				counts[w] += int64(batch.Len())
			}
		}(w, lo, hi)
	}
	wg.Wait()
	total := int64(0)
	for _, c := range counts {
		total += c
	}
	return total
}

// BenchmarkPoolShardedScan measures partitioned heap scans through the
// sharded pool at DOP 1/2/4/8, with a cold pool (every page a miss, the
// fill I/O overlapping across shards) and a warm pool (the paper's
// Section 5.3.3 methodology, Figure 9's scaling shape).
func BenchmarkPoolShardedScan(b *testing.B) {
	const rows = 120_000
	if runtime.GOMAXPROCS(0) < 4 {
		b.Logf("GOMAXPROCS=%d: warm-scan speedup needs cores; cold scans still overlap I/O", runtime.GOMAXPROCS(0))
	}
	for _, temp := range []string{"cold", "warm"} {
		for _, dop := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/dop%d", temp, dop), func(b *testing.B) {
				pool := NewBufferPoolSharded(4096, 0)
				h := benchHeap(b, pool, rows)
				defer h.Close()
				if temp == "warm" {
					scanParallel(b, h, dop) // fill the pool
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if temp == "cold" {
						b.StopTimer()
						pool.DropFile(h.File())
						b.StartTimer()
					}
					if got := scanParallel(b, h, dop); got != rows {
						b.Fatalf("scanned %d rows, want %d", got, rows)
					}
				}
			})
		}
	}
}

// TestStealBudgetPressureAware verifies victim selection: when home's
// frames are exhausted, budget is stolen from the shard with the most
// unpinned clean frames, not first-fit by shard index.
func TestStealBudgetPressureAware(t *testing.T) {
	f := stampedFile(t, t.TempDir(), "t.dat", 64)
	defer f.Close()
	bp := NewBufferPoolSharded(16, 4)
	if bp.ShardCount() != 4 {
		t.Skipf("shard count %d, want 4", bp.ShardCount())
	}
	// Classify pages by shard.
	pagesByShard := make([][]PageID, 4)
	for p := int64(0); p < 64; p++ {
		key := frameKey{f, PageID(p)}
		for i := range bp.shards {
			if bp.shard(key) == &bp.shards[i] {
				pagesByShard[i] = append(pagesByShard[i], PageID(p))
				break
			}
		}
	}
	for i, ps := range pagesByShard {
		if len(ps) < 5 {
			t.Skipf("shard %d drew only %d of 64 pages", i, len(ps))
		}
	}
	home := &bp.shards[0]
	// Materialize every shard's full budget. Shards 1 and 2 keep all their
	// frames pinned; shard 3's frames are unpinned (the pressure-aware
	// victim); home's are pinned so its own allocation fails.
	var pinned []*frame
	for i := 0; i < 4; i++ {
		sh := &bp.shards[i]
		sh.mu.Lock()
		budget := sh.budget
		sh.mu.Unlock()
		for k := 0; k < budget; k++ {
			fr, err := bp.Get(f, pagesByShard[i][k])
			if err != nil {
				t.Fatal(err)
			}
			if i == 3 {
				bp.Unpin(fr, false)
			} else {
				pinned = append(pinned, fr)
			}
		}
	}
	shard3Before := func() int {
		bp.shards[3].mu.Lock()
		defer bp.shards[3].mu.Unlock()
		return bp.shards[3].budget
	}()
	// A new page on home must steal — and should take from shard 3.
	extra := pagesByShard[0][len(pagesByShard[0])-1]
	var fr *frame
	var err error
	for _, p := range pagesByShard[0] {
		already := false
		home.mu.Lock()
		_, already = home.frames[frameKey{f, p}]
		home.mu.Unlock()
		if !already {
			extra = p
			break
		}
	}
	fr, err = bp.Get(f, extra)
	if err != nil {
		t.Fatalf("pressure steal failed: %v", err)
	}
	bp.Unpin(fr, false)
	shard3After := func() int {
		bp.shards[3].mu.Lock()
		defer bp.shards[3].mu.Unlock()
		return bp.shards[3].budget
	}()
	if shard3After != shard3Before-1 {
		t.Errorf("budget was not stolen from the unpinned shard 3: before %d after %d", shard3Before, shard3After)
	}
	for i := 1; i <= 2; i++ {
		bp.shards[i].mu.Lock()
		got := bp.shards[i].budget
		materialized := len(bp.shards[i].clock)
		bp.shards[i].mu.Unlock()
		if got < materialized {
			t.Errorf("pinned shard %d lost budget below its frames: budget %d frames %d", i, got, materialized)
		}
	}
	for _, p := range pinned {
		bp.Unpin(p, false)
	}
	checkPoolInvariants(t, bp)
}
