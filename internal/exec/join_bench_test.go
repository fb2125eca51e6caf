package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// benchJoinRows builds a deterministic input: n rows with keys drawn from
// keySpace and a short payload, mimicking the reads ⋈ alignments shape.
func benchJoinRows(n, keySpace int, seed int64, side string) []sqltypes.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		rows[i] = sqltypes.Row{
			i64(int64(rng.Intn(keySpace))),
			str(fmt.Sprintf("%s-%08d", side, i)),
		}
	}
	return rows
}

// BenchmarkPartitionedJoin measures the partitioned hash join at DOP
// 1/2/4/8 over warm in-memory row inputs, a forced-spill configuration
// (budget far below the build side) at DOP 4, and batch inputs with typed
// INT and VARCHAR keys.
func BenchmarkPartitionedJoin(b *testing.B) {
	const (
		buildN   = 40_000
		probeN   = 80_000
		keySpace = 10_000
	)
	build := benchJoinRows(buildN, keySpace, 1, "b")
	probe := benchJoinRows(probeN, keySpace, 2, "p")

	run := func(b *testing.B, dop int, budget int64) {
		spill := newTestSpillStore(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := &PartitionedHashJoin{
				LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)},
				LeftParts:    splitRows(probe, dop),
				RightParts:   splitRows(build, dop),
				Partitions:   32,
				MemoryBudget: budget,
				Spill:        spill,
			}
			stats := new(obs.Counters)
			rows, err := Run(&Context{DOP: dop, Sink: obs.Sink{Engine: stats}}, j)
			if err != nil {
				b.Fatal(err)
			}
			if len(rows) == 0 {
				b.Fatal("empty join result")
			}
			if budget > 0 && stats.Get(obs.JoinSpilledPartitions) == 0 {
				b.Fatal("spill benchmark did not spill")
			}
		}
	}
	for _, dop := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("inmem/dop%d", dop), func(b *testing.B) { run(b, dop, 0) })
	}
	b.Run("spill/dop4", func(b *testing.B) { run(b, 4, 256<<10) })

	// Batch sources at DOP 1: the typed kernels with no row boundary on
	// either side. "pruned" is the COUNT(*) shape, where the build side
	// keeps its keys and nothing else.
	strKey := func(rows []sqltypes.Row) []sqltypes.Row {
		out := make([]sqltypes.Row, len(rows))
		for i, r := range rows {
			out[i] = sqltypes.Row{str(fmt.Sprintf("read-%08d", r[0].I)), r[1]}
		}
		return out
	}
	forms := []colForm{formFlat, formFlat}
	runBatches := func(b *testing.B, probe, build []sqltypes.Row, needed []bool) {
		pb, bb := batchesOf(b, probe, forms, 1024), batchesOf(b, build, forms, 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := &PartitionedHashJoin{
				LeftKeys: []expr.Expr{col(0)}, RightKeys: []expr.Expr{col(0)}, LeftWidth: 2,
				Left: batchSources(b, pb, 1)[0], Right: batchSources(b, bb, 1)[0],
			}
			if needed != nil {
				j.PruneColumns(needed)
			}
			if err := j.Open(&Context{DOP: 1}); err != nil {
				b.Fatal(err)
			}
			joined := 0
			for {
				out, err := j.NextBatch()
				if err != nil {
					b.Fatal(err)
				}
				if out == nil {
					break
				}
				joined += out.Len()
			}
			if err := j.Close(); err != nil {
				b.Fatal(err)
			}
			if joined == 0 {
				b.Fatal("empty join result")
			}
		}
	}
	b.Run("batch/int-key", func(b *testing.B) { runBatches(b, probe, build, nil) })
	b.Run("batch/string-key", func(b *testing.B) { runBatches(b, strKey(probe), strKey(build), nil) })
	b.Run("batch/int-key-pruned", func(b *testing.B) { runBatches(b, probe, build, make([]bool, 4)) })
}
