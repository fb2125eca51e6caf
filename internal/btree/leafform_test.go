package btree

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/vec"
)

// leafCodec is the row format of the leaf tests' values: an INT, a
// nullable VARCHAR and a FLOAT.
var leafCodec = storage.RowCodec{Kinds: []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString, sqltypes.KindFloat}, Mode: storage.CompressRow}

func leafRow(i int) sqltypes.Row {
	tag := sqltypes.NewString(fmt.Sprintf("tag-%d-%s", i, strings.Repeat("x", i%13)))
	if i%7 == 0 {
		tag = sqltypes.Null
	}
	return sqltypes.Row{sqltypes.NewInt(int64(i)), tag, sqltypes.NewFloat(float64(i) / 4)}
}

func leafKey(tb testing.TB, i int) []byte {
	k, err := AppendKey(nil, sqltypes.Row{sqltypes.NewInt(int64(i))})
	if err != nil {
		tb.Fatal(err)
	}
	return k
}

// rowTree bulk-loads, as a checkpoint does, a tree in pool whose keys are
// 0, 2, ..., 2(n-1), each with leafRow of itself as its value.
func rowTree(tb testing.TB, pool *storage.BufferPool, n int) *BTree {
	i := 0
	tree, err := BulkLoad(filepath.Join(tb.TempDir(), "rows.btree"), pool, func() ([]byte, []byte, bool, error) {
		if i == n {
			return nil, nil, false, nil
		}
		val, err := leafCodec.EncodeAppend(nil, leafRow(2*i))
		key := leafKey(tb, 2*i)
		i++
		return key, val, true, err
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { tree.Close() })
	return tree
}

// leafWalk reads [start, end) of tree a leaf at a time and returns the
// keys and rows it passed, reading every cell.
func leafWalk(tb testing.TB, tree *BTree, start, end []byte, sink obs.Sink) (keys [][]byte, rows []sqltypes.Row) {
	tb.Helper()
	it, err := tree.SeekT(start, end, sink)
	if err != nil {
		tb.Fatal(err)
	}
	defer it.Close()
	for {
		cols, n, err := it.NextLeaf(&leafCodec)
		if err != nil {
			tb.Fatal(err)
		}
		if cols == nil {
			return keys, rows
		}
		b := vec.Batch{Cols: cols}
		for r := 0; r < n; r++ {
			row, err := b.ReadRow(r, nil)
			if err != nil {
				tb.Fatal(err)
			}
			keys, rows = append(keys, append([]byte(nil), it.LeafKey(r)...)), append(rows, row)
		}
	}
}

// TestLeafWalkMatchesNext: a walk a leaf at a time passes the entries an
// entry-at-a-time walk does, with their keys, over whole and partial
// leaves, cold (each leaf decoded from its page) and warm (whole leaves
// read from the forms their frames keep), and again after an insert
// between two keys drops the form of the leaf it lands in.
func TestLeafWalkMatchesNext(t *testing.T) {
	pool := storage.NewBufferPool(4096)
	tree := rowTree(t, pool, 3000)
	ranges := []struct{ lo, hi int }{
		{-1, -1}, {1001, -1}, {-1, 2999}, {1000, 1002}, {777, 3333}, {4000, 4100}, {6000, -1}, {-1, 0}, {2001, 2001},
	}
	bound := func(i int) []byte {
		if i < 0 {
			return nil
		}
		return leafKey(t, i)
	}
	check := func(pass string) {
		t.Helper()
		for _, rg := range ranges {
			var wantKeys [][]byte
			var wantRows []sqltypes.Row
			it, err := tree.Seek(bound(rg.lo), bound(rg.hi))
			if err != nil {
				t.Fatal(err)
			}
			for it.Next() {
				row, _, err := leafCodec.Decode(it.Value(), true)
				if err != nil {
					t.Fatal(err)
				}
				wantKeys, wantRows = append(wantKeys, append([]byte(nil), it.Key()...)), append(wantRows, row)
			}
			it.Close()
			keys, rows := leafWalk(t, tree, bound(rg.lo), bound(rg.hi), obs.Sink{})
			if !reflect.DeepEqual(keys, wantKeys) || !reflect.DeepEqual(rows, wantRows) {
				t.Fatalf("%s, [%d, %d): the leaf walk passed %d entries, the entry walk %d", pass, rg.lo, rg.hi, len(rows), len(wantRows))
			}
		}
	}
	check("cold")
	if pool.Stats().DecodedBytes == 0 {
		t.Fatal("the walks kept no leaf form")
	}
	sink := obs.Sink{Engine: new(obs.Counters)}
	leafWalk(t, tree, nil, nil, sink)
	if sink.Engine.Get(obs.ScanDecodedPageHits) == 0 {
		t.Fatal("a warm walk served no leaf from a kept form")
	}
	check("warm")
	if _, err := tree.Insert(leafKey(t, 1001), mustEncode(t, leafRow(1001))); err != nil {
		t.Fatal(err)
	}
	check("after an insert")
}

func mustEncode(tb testing.TB, row sqltypes.Row) []byte {
	val, err := leafCodec.EncodeAppend(nil, row)
	if err != nil {
		tb.Fatal(err)
	}
	return val
}

// warmLeafScan walks every leaf of tree and reads every column of each.
func warmLeafScan(tb testing.TB, tree *BTree) (leaves int) {
	it, err := tree.Seek(nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	defer it.Close()
	for {
		cols, n, err := it.NextLeaf(&leafCodec)
		if err != nil {
			tb.Fatal(err)
		}
		if cols == nil {
			return leaves
		}
		leaves++
		for _, col := range cols {
			if _, err := col.Value(n - 1); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// checkWarmLeafScanAllocs returns the allocations per leaf of a warm walk
// of a 20 000-entry tree (after a cold one), and fails tb unless they are
// fewer than one: a warm leaf costs its share of the walk's header blocks
// and nothing else, where decoding it again costs several allocations a
// column.
func checkWarmLeafScanAllocs(tb testing.TB) float64 {
	tree := rowTree(tb, storage.NewBufferPool(1024), 20000)
	leaves := warmLeafScan(tb, tree)
	perLeaf := testing.AllocsPerRun(5, func() { warmLeafScan(tb, tree) }) / float64(leaves)
	if perLeaf >= 1 {
		tb.Errorf("a warm walk allocates %.2f times a leaf, want < 1", perLeaf)
	}
	return perLeaf
}

// TestWarmLeafScanAllocs holds a warm leaf walk to
// checkWarmLeafScanAllocs' bound.
func TestWarmLeafScanAllocs(t *testing.T) {
	t.Logf("%.2f allocations a leaf", checkWarmLeafScanAllocs(t))
}

// BenchmarkWarmLeafScan times warm walks of a tree's leaves, reading every
// column, and reports their allocations per leaf.
func BenchmarkWarmLeafScan(b *testing.B) {
	perLeaf := checkWarmLeafScanAllocs(b)
	tree := rowTree(b, storage.NewBufferPool(1024), 20000)
	warmLeafScan(b, tree)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		warmLeafScan(b, tree)
	}
	b.ReportMetric(perLeaf, "allocs/leaf")
}

// FuzzLeafForm feeds the leaf walk a page image read from disk as a tree's
// only leaf (its sibling link cut: the chain is the tree's, not the
// leaf's; each image replaces the last through a dirty unpin), with an
// optional start and end key. Every step must return an
// error or readable rows with their keys, never panic; a corrupt directory
// is storage.ErrCorruptPage. The walk runs twice, the second over the form
// the first kept.
func FuzzLeafForm(f *testing.F) {
	pool := storage.NewBufferPool(64)
	tree := rowTree(f, pool, 40)
	fr, err := pool.Get(tree.file, storage.PageID(tree.root))
	if err != nil {
		f.Fatal(err)
	}
	page := append([]byte(nil), fr.Data()...)
	pool.Unpin(fr, false)
	f.Add(page, []byte(nil), []byte(nil))
	f.Add(page, leafKey(f, 11), leafKey(f, 40))
	short := append([]byte(nil), page...)
	short[2] = 200 // more slots than entries
	f.Add(short, []byte(nil), leafKey(f, 60))
	tree, err = Open(filepath.Join(f.TempDir(), "leaf.btree"), storage.NewBufferPool(8))
	if err != nil {
		f.Fatal(err)
	}
	defer tree.Close()
	f.Fuzz(func(t *testing.T, img, start, end []byte) {
		fr, err := tree.pool.Get(tree.file, storage.PageID(tree.root))
		if err != nil {
			t.Fatal(err)
		}
		data := fr.Data()
		copy(data, img)
		clear(data[min(len(img), len(data)):])
		data[0] = nodeLeaf
		node{data}.setAux(0)
		tree.pool.Unpin(fr, true)
		if len(start) == 0 {
			start = nil
		}
		if len(end) == 0 {
			end = nil
		}
		for pass := 0; pass < 2; pass++ {
			it, err := tree.Seek(start, end)
			if err != nil {
				t.Fatal(err)
			}
			for {
				cols, n, err := it.NextLeaf(&leafCodec)
				if err != nil {
					if _, cerr := (node{data}).checkLeaf(nil); cerr != nil && !errors.Is(err, storage.ErrCorruptPage) {
						t.Fatalf("a corrupt leaf directory gave %v, want ErrCorruptPage", err)
					}
					break
				}
				if cols == nil {
					break
				}
				b := vec.Batch{Cols: cols}
				for r := 0; r < n; r++ {
					if _, err := b.ReadRow(r, nil); err != nil {
						t.Fatalf("row %d of a checked form: %v", r, err)
					}
					it.LeafKey(r)
				}
			}
			it.Close()
		}
	})
}
