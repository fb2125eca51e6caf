package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// TestBlockedBloomNoFalseNegatives is the correctness property the join
// relies on: every added hash must test positive.
func TestBlockedBloomNoFalseNegatives(t *testing.T) {
	b := NewBlockedBloom(10_000)
	rng := rand.New(rand.NewSource(99))
	hashes := make([]uint64, 10_000)
	for i := range hashes {
		hashes[i] = rng.Uint64()
		b.Add(hashes[i])
	}
	for i, h := range hashes {
		if !b.MayContain(h) {
			t.Fatalf("false negative for hash %d (%#x)", i, h)
		}
	}
}

// TestBlockedBloomFalsePositiveRate checks the sizing keeps disjoint keys
// mostly out (16 bits/key, 8 probes: the rate should be well under 5%).
func TestBlockedBloomFalsePositiveRate(t *testing.T) {
	b := NewBlockedBloom(20_000)
	rng := rand.New(rand.NewSource(7))
	seen := map[uint64]bool{}
	for i := 0; i < 20_000; i++ {
		h := rng.Uint64()
		seen[h] = true
		b.Add(h)
	}
	fp := 0
	const probes = 50_000
	for i := 0; i < probes; i++ {
		h := rng.Uint64()
		if seen[h] {
			continue
		}
		if b.MayContain(h) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false positive rate %.3f > 0.05", rate)
	}
}

// TestPartitionedJoinBloomEquivalence runs the same skewed join with the
// Bloom filter on and off: identical output, and — since most probe keys
// have no build-side match — a large BloomDrops count with the filter on.
func TestPartitionedJoinBloomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var build, probe []sqltypes.Row
	// Build keys live in [0, 200); probe keys in [0, 2000): ~90% of probe
	// rows cannot match. NULL keys ride along to check they never join.
	for i := 0; i < 1500; i++ {
		build = append(build, sqltypes.Row{i64(int64(rng.Intn(200))), str(fmt.Sprintf("b%d", i))})
	}
	for i := 0; i < 6000; i++ {
		key := sqltypes.Value(i64(int64(rng.Intn(2000))))
		if i%97 == 0 {
			key = sqltypes.Null
		}
		probe = append(probe, sqltypes.Row{key, str(fmt.Sprintf("p%d", i))})
	}
	run := func(bloom bool, budget int64, stats *obs.Counters) []string {
		j := &PartitionedHashJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
			LeftParts: splitRows(build, 2), RightParts: splitRows(probe, 2),
			BuildLeft: true, Partitions: 8,
			MemoryBudget: budget, Spill: newTestSpillStore(t),
			Bloom: bloom, BuildRowsEstimate: int64(len(build)),
		}
		rows, err := Run(&Context{DOP: 2, Sink: obs.Sink{Engine: stats}}, j)
		if err != nil {
			t.Fatal(err)
		}
		return canonRows(rows)
	}
	for _, budget := range []int64{0, 8 << 10} {
		plain := run(false, budget, new(obs.Counters))
		st := new(obs.Counters)
		filtered := run(true, budget, st)
		if !reflect.DeepEqual(plain, filtered) {
			t.Fatalf("budget %d: bloom changed the result: %d vs %d rows", budget, len(filtered), len(plain))
		}
		drops := st.Get(obs.JoinBloomDrops)
		checks := st.Get(obs.JoinBloomChecks)
		if drops == 0 || checks == 0 {
			t.Fatalf("budget %d: expected bloom activity, got checks=%d drops=%d", budget, checks, drops)
		}
		// ~90% of probe keys are absent; demand at least half get dropped.
		if drops < checks/2 {
			t.Fatalf("budget %d: drops=%d of checks=%d, expected a majority", budget, drops, checks)
		}
	}
}

// TestPartitionedJoinBloomReducesSpilledProbeRows is the point of pushing
// the filter in front of routing: under a forced-spill budget, dropped
// probe rows never reach the spill files.
func TestPartitionedJoinBloomReducesSpilledProbeRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var build, probe []sqltypes.Row
	for i := 0; i < 3000; i++ {
		build = append(build, sqltypes.Row{i64(int64(rng.Intn(300))), str(fmt.Sprintf("payload-build-%06d", i))})
	}
	for i := 0; i < 9000; i++ {
		probe = append(probe, sqltypes.Row{i64(int64(rng.Intn(3000))), str(fmt.Sprintf("payload-probe-%06d", i))})
	}
	run := func(bloom bool) (int64, []string) {
		st := new(obs.Counters)
		j := &PartitionedHashJoin{
			LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
			Left: NewValues(build), Right: NewValues(probe),
			BuildLeft: true, Partitions: 8,
			MemoryBudget: 8 << 10, Spill: newTestSpillStore(t),
			Bloom: bloom, BuildRowsEstimate: int64(len(build)),
		}
		rows, err := Run(&Context{DOP: 2, Sink: obs.Sink{Engine: st}}, j)
		if err != nil {
			t.Fatal(err)
		}
		return st.Get(obs.JoinSpilledProbeRows), canonRows(rows)
	}
	plainSpilled, plainRows := run(false)
	bloomSpilled, bloomRows := run(true)
	if !reflect.DeepEqual(plainRows, bloomRows) {
		t.Fatalf("bloom changed the result: %d vs %d rows", len(bloomRows), len(plainRows))
	}
	if plainSpilled == 0 {
		t.Fatal("test setup: expected the plain run to spill probe rows")
	}
	if bloomSpilled >= plainSpilled {
		t.Fatalf("bloom did not reduce spilled probe rows: %d vs %d", bloomSpilled, plainSpilled)
	}
}

// TestPartitionedJoinPrePartition verifies that planner-directed spill
// pre-partitioning routes build rows straight to disk (the partitions
// count as spilled from the start) and still produces the exact join.
func TestPartitionedJoinPrePartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var left, right []sqltypes.Row
	for i := 0; i < 2000; i++ {
		left = append(left, sqltypes.Row{i64(int64(rng.Intn(400))), str(fmt.Sprintf("l%d", i))})
	}
	for i := 0; i < 2500; i++ {
		right = append(right, sqltypes.Row{i64(int64(rng.Intn(400))), str(fmt.Sprintf("r%d", i))})
	}
	lk, rk := []expr.Expr{col(0)}, []expr.Expr{col(0)}
	want := canonRows(nestedLoopJoin(t, left, right, lk, rk))
	st := new(obs.Counters)
	j := &PartitionedHashJoin{
		LeftKeys: lk, RightKeys: rk,
		Left: NewValues(left), Right: NewValues(right),
		BuildLeft: true, Partitions: 8, PrePartition: 5,
		MemoryBudget: 1 << 20, Spill: newTestSpillStore(t),
	}
	rows, err := Run(&Context{DOP: 2, Sink: obs.Sink{Engine: st}}, j)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonRows(rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("pre-partitioned join differs from reference: %d vs %d rows", len(got), len(want))
	}
	if n := st.Get(obs.JoinSpilledPartitions); n < 5 {
		t.Fatalf("expected >= 5 pre-spilled partitions, got %d", n)
	}
	if st.Get(obs.JoinSpilledBuildRows) == 0 || st.Get(obs.JoinSpilledProbeRows) == 0 {
		t.Fatalf("pre-partitioned join spilled nothing: %+v", st.Snapshot())
	}
}
