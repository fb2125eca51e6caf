package exec

import (
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/sqltypes"
	"repro/internal/storage"
)

// partitionedHeapScan builds one Scan per sealed-page range of h, the
// same partitioning the engine's parallel table scans use.
func partitionedHeapScan(h *storage.Heap, parts int) []Operator {
	sealed := h.SealedPages()
	ops := make([]Operator, 0, parts)
	for i := 0; i < parts; i++ {
		lo := sealed * int64(i) / int64(parts)
		hi := sealed * int64(i+1) / int64(parts)
		includeTail := i == parts-1
		ops = append(ops, &Scan{
			Factory: func(ctx *Context, _ []bool) (BatchIterator, error) {
				return h.NewBatchIterator(lo, hi, includeTail, ctx.Sink), nil
			},
		})
	}
	return ops
}

func rowSetKeys(rows []sqltypes.Row) []string {
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = fmt.Sprintf("%v|%v", r[0], r[1])
	}
	sort.Strings(keys)
	return keys
}

// TestGatherOrderedUnorderedSameRows scans a partitioned heap through
// both gather modes: the unordered exchange may interleave rows, but the
// multisets must match, and the ordered exchange must additionally
// preserve the partition-concatenation (insertion) order.
func TestGatherOrderedUnorderedSameRows(t *testing.T) {
	pool := storage.NewBufferPool(256)
	kinds := []sqltypes.Kind{sqltypes.KindInt, sqltypes.KindString}
	h, err := storage.OpenHeap(filepath.Join(t.TempDir(), "g.heap"), kinds, storage.CompressNone, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	const n = 20_000
	for i := 0; i < n; i++ {
		err := h.Append(sqltypes.Row{
			sqltypes.NewInt(int64(i)),
			sqltypes.NewString(fmt.Sprintf("read-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if h.SealedPages() < 4 {
		t.Fatalf("only %d sealed pages", h.SealedPages())
	}

	run := func(ordered bool, parts int) []sqltypes.Row {
		t.Helper()
		g := &Gather{Children: partitionedHeapScan(h, parts), Ordered: ordered}
		rows, err := Run(&Context{DOP: parts}, g)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}

	for _, parts := range []int{2, 4, 8} {
		unordered := run(false, parts)
		ordered := run(true, parts)
		if len(unordered) != n || len(ordered) != n {
			t.Fatalf("parts=%d: %d unordered, %d ordered rows, want %d",
				parts, len(unordered), len(ordered), n)
		}
		uk, ok := rowSetKeys(unordered), rowSetKeys(ordered)
		for i := range uk {
			if uk[i] != ok[i] {
				t.Fatalf("parts=%d: row sets diverge at %d: %q vs %q", parts, i, uk[i], ok[i])
			}
		}
		// Ordered mode drains partitions in index order, and each
		// partition is itself in insertion order: global order results.
		for i, r := range ordered {
			if r[0].I != int64(i) {
				t.Fatalf("parts=%d: ordered gather row %d has key %d", parts, i, r[0].I)
			}
		}
	}
}
