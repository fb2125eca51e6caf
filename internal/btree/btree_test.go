package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
)

func TestAppendKeyOrderPreserving(t *testing.T) {
	rows := []sqltypes.Row{
		{sqltypes.Null},
		{sqltypes.NewBool(false)},
		{sqltypes.NewBool(true)},
		{sqltypes.NewInt(-10)},
		{sqltypes.NewInt(0)},
		{sqltypes.NewInt(42)},
		{sqltypes.NewInt(1 << 40)},
		{sqltypes.NewString("")},
		{sqltypes.NewString("a")},
		{sqltypes.NewString("a\x00b")},
		{sqltypes.NewString("ab")},
		{sqltypes.NewString("b")},
	}
	for i := range rows {
		for j := range rows {
			// Skip cross-kind pairs whose Compare semantics the key
			// encoding does not claim to match (int vs float handled
			// below; here all same-rank or rank-ordered).
			a, _ := AppendKey(nil, rows[i])
			b, _ := AppendKey(nil, rows[j])
			want := sqltypes.CompareRows(rows[i], rows[j])
			if got := bytes.Compare(a, b); got != want && !mixedNumeric(rows[i][0], rows[j][0]) {
				t.Errorf("key order (%v, %v): bytes %d, rows %d", rows[i], rows[j], got, want)
			}
		}
	}
}

func mixedNumeric(a, b sqltypes.Value) bool {
	num := func(v sqltypes.Value) bool {
		return v.K == sqltypes.KindInt || v.K == sqltypes.KindFloat || v.K == sqltypes.KindBool
	}
	return num(a) && num(b) && a.K != b.K
}

func TestAppendKeyFloats(t *testing.T) {
	vals := []float64{-1e300, -2.5, -0.0, 0.0, 1e-10, 2.5, 1e300}
	var prev []byte
	for i, f := range vals {
		k, err := AppendKey(nil, sqltypes.Row{sqltypes.NewFloat(f)})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && bytes.Compare(prev, k) > 0 {
			t.Errorf("float key order broken at %v", f)
		}
		prev = k
	}
}

func TestAppendKeyCompositeQuick(t *testing.T) {
	f := func(a1, b1 int64, a2, b2 string) bool {
		ra := sqltypes.Row{sqltypes.NewInt(a1), sqltypes.NewString(a2)}
		rb := sqltypes.Row{sqltypes.NewInt(b1), sqltypes.NewString(b2)}
		ka, err1 := AppendKey(nil, ra)
		kb, err2 := AppendKey(nil, rb)
		if err1 != nil || err2 != nil {
			return false
		}
		return bytes.Compare(ka, kb) == sqltypes.CompareRows(ra, rb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func openTestTree(t *testing.T) *BTree {
	t.Helper()
	tree, err := Open(filepath.Join(t.TempDir(), "t.btree"), storage.NewBufferPool(4096))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tree.Close() })
	return tree
}

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, "payload")) }

func TestInsertGet(t *testing.T) {
	tree := openTestTree(t)
	const n = 10_000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		replaced, err := tree.Insert(key(i), val(i))
		if err != nil {
			t.Fatal(err)
		}
		if replaced {
			t.Fatalf("fresh insert of %d reported replaced", i)
		}
	}
	if tree.Count() != n {
		t.Fatalf("Count = %d", tree.Count())
	}
	for i := 0; i < n; i++ {
		v, found, err := tree.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, v, found)
		}
	}
	if _, found, _ := tree.Get([]byte("missing")); found {
		t.Error("found a missing key")
	}
}

func TestInsertReplace(t *testing.T) {
	tree := openTestTree(t)
	tree.Insert(key(1), []byte("old"))
	replaced, err := tree.Insert(key(1), []byte("new-longer-value"))
	if err != nil {
		t.Fatal(err)
	}
	if !replaced {
		t.Error("replace not reported")
	}
	if tree.Count() != 1 {
		t.Errorf("Count = %d after replace", tree.Count())
	}
	v, _, _ := tree.Get(key(1))
	if string(v) != "new-longer-value" {
		t.Errorf("value = %q", v)
	}
}

func TestReplaceChurnTriggersCompaction(t *testing.T) {
	tree := openTestTree(t)
	// Repeatedly replacing values leaves dead bytes; the page must
	// compact rather than split forever.
	for round := 0; round < 200; round++ {
		for i := 0; i < 20; i++ {
			if _, err := tree.Insert(key(i), []byte(fmt.Sprintf("round-%d-value-%d", round, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tree.Count() != 20 {
		t.Errorf("Count = %d", tree.Count())
	}
	for i := 0; i < 20; i++ {
		v, found, _ := tree.Get(key(i))
		if !found || !bytes.Contains(v, []byte("round-199")) {
			t.Errorf("key %d = %q", i, v)
		}
	}
}

func TestScanOrder(t *testing.T) {
	tree := openTestTree(t)
	const n = 5000
	perm := rand.New(rand.NewSource(2)).Perm(n)
	for _, i := range perm {
		tree.Insert(key(i), val(i))
	}
	it, err := tree.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 0
	for it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("scan position %d = %q, want %q", i, it.Key(), key(i))
		}
		if !bytes.Equal(it.Value(), val(i)) {
			t.Fatalf("scan value %d mismatch", i)
		}
		i++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if i != n {
		t.Fatalf("scanned %d of %d", i, n)
	}
}

func TestSeekRange(t *testing.T) {
	tree := openTestTree(t)
	for i := 0; i < 1000; i++ {
		tree.Insert(key(i), val(i))
	}
	it, err := tree.Seek(key(100), key(200))
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	i := 100
	for it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("range scan at %d got %q", i, it.Key())
		}
		i++
	}
	if i != 200 {
		t.Errorf("range scan ended at %d, want 200", i)
	}
	// Seek to a key between entries starts at the next one.
	it2, _ := tree.Seek([]byte("key-00000100x"), nil)
	defer it2.Close()
	if !it2.Next() || !bytes.Equal(it2.Key(), key(101)) {
		t.Errorf("between-keys seek got %q", it2.Key())
	}
}

func TestDelete(t *testing.T) {
	tree := openTestTree(t)
	for i := 0; i < 500; i++ {
		tree.Insert(key(i), val(i))
	}
	for i := 0; i < 500; i += 2 {
		ok, err := tree.Delete(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("delete of %d found nothing", i)
		}
	}
	if tree.Count() != 250 {
		t.Errorf("Count = %d", tree.Count())
	}
	if ok, _ := tree.Delete(key(0)); ok {
		t.Error("double delete reported success")
	}
	it, _ := tree.Seek(nil, nil)
	defer it.Close()
	i := 1
	for it.Next() {
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("after deletes, scan got %q want %q", it.Key(), key(i))
		}
		i += 2
	}
}

func TestCheckpointAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.btree")
	pool := storage.NewBufferPool(4096)
	tree, err := Open(path, pool)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	for i := 0; i < n; i++ {
		tree.Insert(key(i), val(i))
	}
	if err := tree.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint inserts simulate a crash: discarded on reopen.
	for i := n; i < n+500; i++ {
		tree.Insert(key(i), val(i))
	}
	tree.Close()

	tree2, err := Open(path, storage.NewBufferPool(4096))
	if err != nil {
		t.Fatal(err)
	}
	defer tree2.Close()
	if tree2.Count() != n {
		t.Fatalf("recovered count = %d, want %d", tree2.Count(), n)
	}
	for i := 0; i < n; i++ {
		v, found, err := tree2.Get(key(i))
		if err != nil {
			t.Fatal(err)
		}
		if !found || !bytes.Equal(v, val(i)) {
			t.Fatalf("after reopen Get(%d) = %q, %v", i, v, found)
		}
	}
	if _, found, _ := tree2.Get(key(n + 100)); found {
		t.Error("uncheckpointed key survived reopen")
	}
}

func TestCheckpointCompactsDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.btree")
	pool := storage.NewBufferPool(4096)
	tree, _ := Open(path, pool)
	defer tree.Close()
	for i := 0; i < 2000; i++ {
		tree.Insert(key(i), val(i))
	}
	tree.Checkpoint()
	before := tree.SizeBytes()
	for i := 0; i < 2000; i++ {
		if i%10 != 0 {
			tree.Delete(key(i))
		}
	}
	if err := tree.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tree.SizeBytes() >= before {
		t.Errorf("checkpoint did not compact: %d >= %d", tree.SizeBytes(), before)
	}
	// Survivors intact.
	for i := 0; i < 2000; i += 10 {
		if _, found, _ := tree.Get(key(i)); !found {
			t.Fatalf("survivor %d lost after compaction", i)
		}
	}
}

func TestBulkLoadMatchesInserts(t *testing.T) {
	const n = 8000
	i := 0
	tree, err := BulkLoad(filepath.Join(t.TempDir(), "bulk.btree"), storage.NewBufferPool(4096),
		func() ([]byte, []byte, bool, error) {
			if i >= n {
				return nil, nil, false, nil
			}
			k, v := key(i), val(i)
			i++
			return k, v, true, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.Count() != n {
		t.Fatalf("Count = %d", tree.Count())
	}
	for _, probe := range []int{0, 1, n / 2, n - 1} {
		v, found, err := tree.Get(key(probe))
		if err != nil || !found || !bytes.Equal(v, val(probe)) {
			t.Fatalf("Get(%d) = %q, %v, %v", probe, v, found, err)
		}
	}
	it, _ := tree.Seek(nil, nil)
	defer it.Close()
	count := 0
	var prev []byte
	for it.Next() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("bulk-loaded scan out of order")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != n {
		t.Fatalf("scan saw %d", count)
	}
	// Inserts after a bulk load still work.
	if _, err := tree.Insert([]byte("key-99999999"), []byte("post")); err != nil {
		t.Fatal(err)
	}
	if v, found, _ := tree.Get([]byte("key-99999999")); !found || string(v) != "post" {
		t.Error("post-bulk-load insert lost")
	}
}

func TestBulkLoadRejectsUnsorted(t *testing.T) {
	keys := [][]byte{[]byte("b"), []byte("a")}
	i := 0
	_, err := BulkLoad(filepath.Join(t.TempDir(), "bad.btree"), storage.NewBufferPool(64),
		func() ([]byte, []byte, bool, error) {
			if i >= len(keys) {
				return nil, nil, false, nil
			}
			k := keys[i]
			i++
			return k, []byte("v"), true, nil
		})
	if err == nil {
		t.Error("unsorted bulk load accepted")
	}
}

func TestEmptyTreeScan(t *testing.T) {
	tree := openTestTree(t)
	it, err := tree.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if it.Next() {
		t.Error("empty tree scan returned a row")
	}
}

func TestLargeValues(t *testing.T) {
	tree := openTestTree(t)
	big := bytes.Repeat([]byte("x"), 4000) // ~half a page per entry
	for i := 0; i < 50; i++ {
		if _, err := tree.Insert(key(i), append(big, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		v, found, _ := tree.Get(key(i))
		if !found || len(v) != 4001 || v[4000] != byte(i) {
			t.Fatalf("big value %d corrupted", i)
		}
	}
	// A value that cannot fit a page must be rejected.
	if _, err := tree.Insert([]byte("huge"), bytes.Repeat([]byte("y"), storage.PageSize)); err == nil {
		t.Error("page-sized entry accepted")
	}
}

func TestInsertQuickRandomOrder(t *testing.T) {
	f := func(seed int64) bool {
		tree, err := Open(filepath.Join(t.TempDir(), fmt.Sprintf("q%d.btree", seed)), storage.NewBufferPool(1024))
		if err != nil {
			return false
		}
		defer tree.Close()
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(800) + 50
		keys := make(map[string]string, n)
		for i := 0; i < n; i++ {
			k := fmt.Sprintf("k%d", rng.Intn(300))
			v := fmt.Sprintf("v%d", rng.Int())
			keys[k] = v
			if _, err := tree.Insert([]byte(k), []byte(v)); err != nil {
				return false
			}
		}
		if tree.Count() != int64(len(keys)) {
			return false
		}
		// Scan equals sorted map.
		want := make([]string, 0, len(keys))
		for k := range keys {
			want = append(want, k)
		}
		sort.Strings(want)
		it, err := tree.Seek(nil, nil)
		if err != nil {
			return false
		}
		defer it.Close()
		i := 0
		for it.Next() {
			if i >= len(want) || string(it.Key()) != want[i] || string(it.Value()) != keys[want[i]] {
				return false
			}
			i++
		}
		return i == len(want) && it.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestInsertSortedMatchesOracle: sorted batches of random keys (appends,
// keys between existing ones, runs past one writer's edge while another
// writes further right, replacements) leave the tree equal to a map
// oracle, in scan order and by Get; FirstPresent finds the first held key;
// Unique mode refuses a held key.
func TestInsertSortedMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		tree, err := Open(filepath.Join(t.TempDir(), fmt.Sprintf("s%d.btree", seed)), storage.NewBufferPool(1024))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		oracle := map[string]string{}
		edges := []int{0, 1_000_000} // two writers appending at their own edge
		for round := 0; round < 60; round++ {
			batch := map[string]string{}
			n := 1 + rng.Intn(300)
			for i := 0; i < n; i++ {
				var k int
				switch rng.Intn(3) {
				case 0: // past a writer's edge
					w := rng.Intn(len(edges))
					edges[w] += 1 + rng.Intn(3)
					k = edges[w]
				case 1: // anywhere
					k = rng.Intn(2_000_000)
				default: // an existing key, when there is one
					k = rng.Intn(2_000_000)
					for s := range oracle {
						fmt.Sscanf(s, "key-%d", &k)
						break
					}
				}
				batch[string(key(k))] = fmt.Sprintf("v%d-%d-%s", round, i, bytes.Repeat([]byte("x"), rng.Intn(40)))
			}
			keys := make([][]byte, 0, len(batch))
			for k := range batch {
				keys = append(keys, []byte(k))
			}
			sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
			vals := make([][]byte, len(keys))
			wantFirst, wantReplaced := -1, 0
			for i, k := range keys {
				vals[i] = []byte(batch[string(k)])
				if _, held := oracle[string(k)]; held {
					wantReplaced++
					if wantFirst < 0 {
						wantFirst = i
					}
				}
			}
			first, err := tree.FirstPresent(keys)
			if err != nil || first != wantFirst {
				t.Fatalf("seed %d round %d: FirstPresent = %d, %v; want %d", seed, round, first, err, wantFirst)
			}
			if wantFirst >= 0 {
				if _, err := tree.InsertSorted(keys[wantFirst:wantFirst+1], nil, Unique); !errors.Is(err, ErrDuplicateKey) {
					t.Fatalf("seed %d round %d: Unique insert of a held key: %v", seed, round, err)
				}
			}
			replaced, err := tree.InsertSorted(keys, vals, Upsert)
			if err != nil || replaced != wantReplaced {
				t.Fatalf("seed %d round %d: InsertSorted = %d, %v; want %d replaced", seed, round, replaced, err, wantReplaced)
			}
			for k, v := range batch {
				oracle[k] = v
			}
		}
		if tree.Count() != int64(len(oracle)) {
			t.Fatalf("seed %d: Count = %d, oracle %d", seed, tree.Count(), len(oracle))
		}
		want := make([]string, 0, len(oracle))
		for k := range oracle {
			want = append(want, k)
		}
		sort.Strings(want)
		it, err := tree.Seek(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		i := 0
		for ; it.Next(); i++ {
			if i >= len(want) || string(it.Key()) != want[i] || string(it.Value()) != oracle[want[i]] {
				t.Fatalf("seed %d: scan entry %d differs from the oracle", seed, i)
			}
		}
		it.Close()
		if i != len(want) || it.Err() != nil {
			t.Fatalf("seed %d: scan gave %d of %d entries (%v)", seed, i, len(want), it.Err())
		}
		for _, k := range want {
			if v, ok, err := tree.Get([]byte(k)); err != nil || !ok || string(v) != oracle[k] {
				t.Fatalf("seed %d: Get(%s) = %q, %v, %v", seed, k, v, ok, err)
			}
		}
		tree.Close()
	}
}

// TestInsertSortedFillsLeavesPastTheEdge: ascending batches appended past
// the tree's last key leave leaves about as full as a bulk load, not half
// full as two-way splits would.
func TestInsertSortedFillsLeavesPastTheEdge(t *testing.T) {
	tree := openTestTree(t)
	const perBatch, batches = 64, 400
	for b := 0; b < batches; b++ {
		keys := make([][]byte, perBatch)
		vals := make([][]byte, perBatch)
		for i := range keys {
			keys[i] = key(b*perBatch + i)
			vals[i] = val(b*perBatch + i)
		}
		if _, err := tree.InsertSorted(keys, vals, Unique); err != nil {
			t.Fatal(err)
		}
	}
	var leaves, used int
	pid, err := tree.leftmostLeaf(obs.Sink{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		fr, err := tree.pool.Get(tree.file, storage.PageID(pid))
		if err != nil {
			t.Fatal(err)
		}
		n := node{fr.Data()}
		leaves++
		used += n.usedEnd() + 2*n.count()
		next := n.aux()
		tree.pool.Unpin(fr, false)
		if next == 0 {
			break
		}
		pid = next - 1
	}
	if fill := float64(used) / float64(leaves*storage.PageSize); fill < 0.85 {
		t.Fatalf("%d leaves %.0f%% full on average, want >= 85%%", leaves, 100*fill)
	}
}

// TestInsertSortedRefusesOversizeEntry: a batch with an entry too large
// for a page — bound for new leaves past a full leaf's last key, or for
// the leaf itself — is refused before anything is written, and the tree
// still reads back whole.
func TestInsertSortedRefusesOversizeEntry(t *testing.T) {
	tree := openTestTree(t)
	// One leaf filled past bulkFillLimit, so later keys after its last one
	// go to new leaves.
	if _, err := tree.InsertSorted([][]byte{key(10)}, [][]byte{bytes.Repeat([]byte("v"), 7900)}, Unique); err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte("h"), storage.PageSize)
	for _, batch := range [][][]byte{
		{key(11), key(12)}, // past the last key: new leaves
		{key(1), key(2)},   // before it: the leaf itself
	} {
		if _, err := tree.InsertSorted(batch, [][]byte{val(0), huge}, Unique); err == nil || !strings.Contains(err.Error(), "exceeds page capacity") {
			t.Fatalf("oversize entry: err = %v", err)
		}
		if tree.Count() != 1 {
			t.Fatalf("Count = %d after a refused batch, want 1", tree.Count())
		}
		if _, ok, err := tree.Get(batch[0]); ok || err != nil {
			t.Fatalf("Get(%s) = %v, %v after a refused batch", batch[0], ok, err)
		}
	}
	// A key that fits a leaf with an empty value but not an internal entry.
	long := bytes.Repeat([]byte("k"), storage.PageSize-nodeHeaderSize-2-2-1)
	if err := CheckEntry(long, nil); err == nil {
		t.Fatalf("CheckEntry accepted a %d-byte key that no internal entry can hold", len(long))
	}
	it, err := tree.Seek(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() || !bytes.Equal(it.Key(), key(10)) || len(it.Value()) != 7900 || it.Next() || it.Err() != nil {
		t.Fatalf("tree after refused batches does not read back its one entry (%v)", it.Err())
	}
}
