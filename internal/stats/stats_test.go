package stats_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen/lanes"
	"repro/internal/sqltypes"
	"repro/internal/stats"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

// TestHLLAccuracy: the NDV sketch must land within a few percent at the
// cardinalities the planner cares about (the 2^12-register configuration
// has ~1.6% standard error).
func TestHLLAccuracy(t *testing.T) {
	for _, n := range []int{10, 500, 10_000, 250_000} {
		h := stats.NewHLL()
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			h.Add(rng.Uint64())
		}
		got := float64(h.Estimate())
		tol := 0.06
		if n <= 500 {
			tol = 0.02 // linear-counting range is near exact
		}
		if e := relErr(got, float64(n)); e > tol {
			t.Errorf("n=%d: estimate %v, relative error %.3f > %.2f", n, got, e, tol)
		}
	}
}

// zipfRows draws `n` rows of (key BIGINT, depth BIGINT, name VARCHAR)
// with a Zipfian key — the read-depth / duplicate-read skew shape — plus
// a uniform depth column and occasional NULLs.
func zipfRows(n int, seed int64) ([]sqltypes.Row, map[int64]int64) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 4, 40_000)
	counts := map[int64]int64{}
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		k := int64(z.Uint64())
		counts[k]++
		depth := sqltypes.NewInt(int64(rng.Intn(1000)))
		if rng.Intn(50) == 0 {
			depth = sqltypes.Null
		}
		rows[i] = sqltypes.Row{sqltypes.NewInt(k), depth, sqltypes.NewString("r")}
	}
	return rows, counts
}

// TestCollectorZipfAccuracy bounds the estimation error over a Zipfian
// read-depth-style dataset: NDV, null fraction, equality selectivity of
// the hottest key (an MCV), and histogram range selectivity.
func TestCollectorZipfAccuracy(t *testing.T) {
	const n = 200_000
	rows, counts := zipfRows(n, 42)
	c := stats.NewCollector([]string{"k", "depth", "name"}, 0, 1)
	for _, r := range rows {
		c.Add(r)
	}
	ts := c.Finalize(1, "reads", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs)
	if ts.RowCount != n {
		t.Fatalf("RowCount = %d, want %d", ts.RowCount, n)
	}

	// NDV of the skewed key within 10%.
	if e := relErr(float64(ts.ColumnNDV("k")), float64(len(counts))); e > 0.10 {
		t.Errorf("k NDV %d vs actual %d: relative error %.3f", ts.ColumnNDV("k"), len(counts), e)
	}

	// The hottest key must surface as an MCV with a usable frequency.
	var hotKey, hotCount int64
	for k, cnt := range counts {
		if cnt > hotCount {
			hotKey, hotCount = k, cnt
		}
	}
	sel, ok := ts.CmpSelectivity("k", "=", sqltypes.NewInt(hotKey))
	if !ok {
		t.Fatal("no selectivity for the hottest key")
	}
	actual := float64(hotCount) / n
	if e := relErr(sel, actual); e > 0.25 {
		t.Errorf("hot-key selectivity %.5f vs actual %.5f: relative error %.3f", sel, actual, e)
	}

	// Uniform depth column: range selectivity within 5 points absolute.
	for _, bound := range []int64{100, 500, 900} {
		sel, ok := ts.CmpSelectivity("depth", "<", sqltypes.NewInt(bound))
		if !ok {
			t.Fatalf("no range selectivity for depth < %d", bound)
		}
		var want float64
		for _, r := range rows {
			if !r[1].IsNull() && r[1].I < bound {
				want++
			}
		}
		want /= n
		if math.Abs(sel-want) > 0.05 {
			t.Errorf("depth < %d: selectivity %.4f vs actual %.4f", bound, sel, want)
		}
	}

	// Null fraction of depth (~2%).
	nullSel, ok := ts.NullSelectivity("depth", false)
	if !ok || math.Abs(nullSel-0.02) > 0.005 {
		t.Errorf("depth null fraction %.4f (ok=%v), want ~0.02", nullSel, ok)
	}

	// Out-of-range equality must estimate ~zero rows.
	if sel, ok := ts.CmpSelectivity("k", "=", sqltypes.NewInt(99_999_999)); !ok || sel != 0 {
		t.Errorf("out-of-range equality selectivity %.6f (ok=%v), want 0", sel, ok)
	}
}

// TestCollectorMergeMatchesSingle: partition-parallel collection (the
// ANALYZE shape) must agree with a single collector over the same rows.
func TestCollectorMergeMatchesSingle(t *testing.T) {
	const n = 80_000
	rows, _ := zipfRows(n, 7)
	names := []string{"k", "depth", "name"}

	single := stats.NewCollector(names, 0, 1)
	for _, r := range rows {
		single.Add(r)
	}
	one := single.Finalize(1, "t", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs)

	parts := make([]*stats.Collector, 4)
	for i := range parts {
		parts[i] = stats.NewCollector(names, 0, int64(i+2))
	}
	for i, r := range rows {
		parts[i%4].Add(r)
	}
	merged := parts[0]
	for _, p := range parts[1:] {
		merged.Merge(p)
	}
	four := merged.Finalize(1, "t", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs)

	if four.RowCount != one.RowCount {
		t.Fatalf("merged RowCount %d, single %d", four.RowCount, one.RowCount)
	}
	for _, col := range names {
		a, b := one.Column(col), four.Column(col)
		if a.NullCount != b.NullCount {
			t.Errorf("%s: null counts differ: %d vs %d", col, a.NullCount, b.NullCount)
		}
		// The HLL merge is exact (register max), so NDVs must be close;
		// reservoir-derived numbers may wobble slightly.
		if e := relErr(float64(b.NDV), float64(a.NDV)); e > 0.02 {
			t.Errorf("%s: merged NDV %d vs single %d", col, b.NDV, a.NDV)
		}
		if (a.Min == nil) != (b.Min == nil) || (a.Min != nil && sqltypes.Compare(*a.Min, *b.Min) != 0) {
			t.Errorf("%s: min differs", col)
		}
		if (a.Max == nil) != (b.Max == nil) || (a.Max != nil && sqltypes.Compare(*a.Max, *b.Max) != 0) {
			t.Errorf("%s: max differs", col)
		}
	}
	// Range estimates from the merged sample stay close to the single
	// collector's.
	for _, bound := range []int64{250, 750} {
		s1, _ := one.CmpSelectivity("depth", "<", sqltypes.NewInt(bound))
		s4, _ := four.CmpSelectivity("depth", "<", sqltypes.NewInt(bound))
		if math.Abs(s1-s4) > 0.05 {
			t.Errorf("depth < %d: single %.4f vs merged %.4f", bound, s1, s4)
		}
	}
}

// TestStatsJSONRoundTrip: stats persist through the catalog's JSON file;
// estimates must survive the trip bit-for-bit.
func TestStatsJSONRoundTrip(t *testing.T) {
	rows, _ := zipfRows(30_000, 3)
	c := stats.NewCollector([]string{"k", "depth", "name"}, 0, 1)
	for _, r := range rows {
		c.Add(r)
	}
	ts := c.Finalize(9, "t", 123, stats.DefaultHistogramBuckets, stats.DefaultMCVs)
	data, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	var back stats.TableStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.ModCount != 123 || back.RowCount != ts.RowCount || back.TableID != 9 {
		t.Fatalf("header fields lost: %+v", back)
	}
	for _, probe := range []int64{0, 5, 100, 700} {
		a, aok := ts.CmpSelectivity("depth", "<=", sqltypes.NewInt(probe))
		b, bok := back.CmpSelectivity("depth", "<=", sqltypes.NewInt(probe))
		if aok != bok || a != b {
			t.Fatalf("selectivity changed across JSON round trip: %.6f/%v vs %.6f/%v", a, aok, b, bok)
		}
	}
}

// TestJoinCardinality checks the containment formula and its fallback.
func TestJoinCardinality(t *testing.T) {
	// Key/foreign-key: every left key distinct, right references them.
	if got := stats.JoinCardinality(1000, 5000, 1000, 1000); relErr(float64(got), 5000) > 0.01 {
		t.Errorf("FK join estimate %d, want ~5000", got)
	}
	// Unknown NDVs fall back to max(l, r).
	if got := stats.JoinCardinality(1000, 5000, 0, 0); got != 5000 {
		t.Errorf("fallback estimate %d, want 5000", got)
	}
	// Many-to-many through a small shared domain.
	if got := stats.JoinCardinality(1000, 1000, 10, 10); relErr(float64(got), 100_000) > 0.01 {
		t.Errorf("m:n estimate %d, want ~100000", got)
	}
}

// TestDuplicateReadDatasetAccuracy runs the collector over the DGE
// duplicate-read dataset (Zipf tag frequencies, the paper's Table 1
// shape): the sequence column's NDV estimate must track the actual
// unique-tag count, and the tag-frequency skew must surface in the MCVs.
func TestDuplicateReadDatasetAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("dataset generation is slow")
	}
	ds, err := lanes.BuildDGE(20_000, 11)
	if err != nil {
		t.Fatal(err)
	}
	c := stats.NewCollector([]string{"read_name", "seq"}, 0, 1)
	actual := map[string]int64{}
	for _, r := range ds.Reads {
		c.Add(sqltypes.Row{sqltypes.NewString(r.Name), sqltypes.NewString(r.Seq)})
		actual[r.Seq]++
	}
	ts := c.Finalize(1, "reads", 0, stats.DefaultHistogramBuckets, stats.DefaultMCVs)
	if ts.RowCount != int64(len(ds.Reads)) {
		t.Fatalf("RowCount %d, want %d", ts.RowCount, len(ds.Reads))
	}
	if e := relErr(float64(ts.ColumnNDV("seq")), float64(len(actual))); e > 0.10 {
		t.Errorf("seq NDV %d vs actual %d uniques: relative error %.3f",
			ts.ColumnNDV("seq"), len(actual), e)
	}
	// read_name is unique per read: NDV ~ RowCount.
	if e := relErr(float64(ts.ColumnNDV("read_name")), float64(ts.RowCount)); e > 0.10 {
		t.Errorf("read_name NDV %d vs %d rows: relative error %.3f",
			ts.ColumnNDV("read_name"), ts.RowCount, e)
	}
	// The most duplicated read must be an MCV whose estimate tracks its
	// true frequency (the duplicate-detection skew the planner needs).
	var hotSeq string
	var hotCount int64
	for s, cnt := range actual {
		if cnt > hotCount {
			hotSeq, hotCount = s, cnt
		}
	}
	sel, ok := ts.CmpSelectivity("seq", "=", sqltypes.NewString(hotSeq))
	if !ok {
		t.Fatal("no selectivity for the hottest read")
	}
	want := float64(hotCount) / float64(ts.RowCount)
	if e := relErr(sel, want); e > 0.35 {
		t.Errorf("hot read selectivity %.5f vs actual %.5f: relative error %.3f", sel, want, e)
	}
}
