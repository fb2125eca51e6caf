package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/sqltypes"
)

// BenchmarkSortRows measures the sort kernel that Sort's runs and TopN's
// lazy trim call repeatedly: it sorts in place and allocates nothing per
// call, whatever n.
func BenchmarkSortRows(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(1))
	baseRows := make([]sqltypes.Row, n)
	for i := range baseRows {
		baseRows[i] = sqltypes.Row{i64(int64(rng.Intn(512))), str(fmt.Sprintf("p-%05d", i))}
	}
	by := []SortKey{{Col: 0}}
	s := runSorter{rows: make([]sqltypes.Row, n), seqs: make([]int32, n), by: by}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(s.rows, baseRows)
		for j := range s.seqs {
			s.seqs[j] = int32(j)
		}
		s.sort()
	}
}

// BenchmarkTopNTrim exercises the full TopN path (key cells against the
// bound, kept rows, lazy trims) whose per-trim allocations the reusable
// sorter removes.
func BenchmarkTopNTrim(b *testing.B) {
	const n = 20000
	rng := rand.New(rand.NewSource(2))
	input := make([]sqltypes.Row, n)
	for i := range input {
		input[i] = sqltypes.Row{i64(int64(rng.Intn(100000))), str("payload")}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := &TopN{N: 10, Keys: []SortKey{{Col: 0}}, Child: NewValues(input)}
		rows, err := Run(&Context{DOP: 1}, op)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkExternalSort measures the sort at DOP 1 vs parallel
// per-partition sorts under MergeSorted, in memory and with a budget
// that forces run spilling.
func BenchmarkExternalSort(b *testing.B) {
	const n = 100_000
	rng := rand.New(rand.NewSource(3))
	input := make([]sqltypes.Row, n)
	for i := range input {
		input[i] = sqltypes.Row{i64(int64(rng.Intn(1 << 20))), str(fmt.Sprintf("payload-%07d", i))}
	}
	spans := func(parts int) []Operator {
		ops := make([]Operator, 0, parts)
		for i := 0; i < parts; i++ {
			lo, hi := n*i/parts, n*(i+1)/parts
			ops = append(ops, NewValues(input[lo:hi]))
		}
		return ops
	}
	keys := []SortKey{{Col: 0}}
	for _, cfg := range []struct {
		name   string
		dop    int
		budget int64
	}{
		{"dop1-mem", 1, 0},
		{"dop4-mem", 4, 0},
		{"dop1-spill", 1, 256 << 10},
		{"dop4-spill", 4, 256 << 10},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var spill SpillStore
			if cfg.budget > 0 {
				spill = newTestSpillStore(b)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var op Operator
				if cfg.dop == 1 {
					op = &Sort{Keys: keys, Child: NewValues(input), MemoryBudget: cfg.budget, Spill: spill}
				} else {
					chains := spans(cfg.dop)
					sorts := make([]*Sort, len(chains))
					per := cfg.budget
					if per > 0 {
						per /= int64(cfg.dop)
					}
					for j, ch := range chains {
						sorts[j] = &Sort{Keys: keys, Child: ch, MemoryBudget: per, Spill: spill}
					}
					op = &MergeSorted{Keys: keys, Children: sorts}
				}
				stats := new(obs.Counters)
				rows, err := Run(&Context{DOP: cfg.dop, Sink: obs.Sink{Engine: stats}}, op)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != n {
					b.Fatalf("got %d rows", len(rows))
				}
				if cfg.budget > 0 && stats.Get(obs.SortRuns) == 0 {
					b.Fatal("expected spilled runs")
				}
			}
		})
	}
}
