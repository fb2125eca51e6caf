// Command experiments regenerates every table and figure of the paper's
// evaluation section and prints paper-style result tables.
//
// Usage:
//
//	experiments                  run everything at the default scale
//	experiments -run table1      one experiment: table1, table2, wrap,
//	                             query1, consensus, plans, ablations
//	experiments -dge-reads N -reseq-reads N   scale knobs
//
// Timings that gate a change come from benchmark/ (see BENCHMARK.json),
// not from here.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/bench"
)

// experiments are the valid -run names besides "all".
var experiments = []string{"table1", "table2", "wrap", "query1", "consensus", "plans", "ablations"}

func main() {
	run := flag.String("run", "all", "experiment: all, "+strings.Join(experiments, ", "))
	dgeReads := flag.Int("dge-reads", 400_000, "DGE lane size (level-1 reads)")
	reseqReads := flag.Int("reseq-reads", 150_000, "re-sequencing lane size")
	seed := flag.Int64("seed", 42, "generator seed")
	work := flag.String("work", "", "work directory (default: temp, removed on exit)")
	flag.Parse()
	if *run != "all" && !slices.Contains(experiments, *run) {
		fmt.Fprintf(os.Stderr, "experiments: unknown -run %q; valid: all, %s\n", *run, strings.Join(experiments, ", "))
		os.Exit(2)
	}

	workDir := *work
	if workDir == "" {
		var err error
		workDir, err = os.MkdirTemp("", "experiments-*")
		if err != nil {
			fail(err)
		}
		defer os.RemoveAll(workDir)
	}
	fmt.Printf("== Reproduction of 'Data Management for High-Throughput Genomics' (CIDR'09) ==\n")
	fmt.Printf("host: %d cores; DGE lane: %d reads; re-sequencing lane: %d reads\n\n",
		runtime.NumCPU(), *dgeReads, *reseqReads)

	want := func(name string) bool { return *run == "all" || *run == name }

	var dge *bench.DGEDataset
	var reseq *bench.ResequencingDataset
	needDGE := want("table1") || want("wrap") || want("query1") || want("plans") || want("ablations")
	needReseq := want("table2") || want("consensus") || want("ablations")
	if needDGE {
		fmt.Printf("building DGE dataset (%d reads)...\n", *dgeReads)
		var err error
		dge, err = bench.BuildDGE(*dgeReads, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d reads, %d unique tags, %d alignments\n\n", len(dge.Reads), len(dge.Tags), len(dge.Alignments))
	}
	if needReseq {
		fmt.Printf("building re-sequencing dataset (%d reads)...\n", *reseqReads)
		var err error
		reseq, err = bench.Build1000G(*reseqReads, *seed)
		if err != nil {
			fail(err)
		}
		fmt.Printf("  %d reads, %d alignments\n\n", len(reseq.Reads), len(reseq.Alignments))
	}

	if want("table1") {
		fmt.Println("---- [T1] Table 1: storage efficiency, digital gene expression ----")
		rows, err := bench.StorageExperimentDGE(dge, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderStorageTable("storage bytes per physical design:", rows))
	}
	if want("table2") {
		fmt.Println("---- [T2] Table 2: storage efficiency, 1000 Genomes ----")
		rows, err := bench.StorageExperiment1000G(reseq, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderStorageTable("storage bytes per physical design:", rows))
		vc, sq, err := bench.SequenceUDTExperiment(reseq.Reads, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Printf("[X1] SEQUENCE UDT ablation (Section 5.1.2 'bit-encoding ... about a quarter'):\n")
		fmt.Printf("  VARCHAR sequences: %s; SEQUENCE (2-bit packed): %s (%.2fx)\n\n",
			bench.FormatBytes(vc), bench.FormatBytes(sq), float64(sq)/float64(vc))
	}
	if want("wrap") {
		fmt.Println("---- [L52] Section 5.2: FileStream wrapper scan performance ----")
		rows, err := bench.WrapExperiment(dge.ReadsFASTQ, workDir)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderWrapTable(
			fmt.Sprintf("SELECT COUNT(*) over a %s FASTQ FileStream:", bench.FormatBytes(int64(len(dge.ReadsFASTQ)))), rows))
	}
	if want("query1") {
		fmt.Println("---- [Q1/F7/F8] Section 5.3.2: Query 1, script vs declarative SQL ----")
		res, err := bench.Query1Experiment(dge, workDir, runtime.NumCPU())
		if err != nil {
			fail(err)
		}
		fmt.Printf("interpreted script (paper's Perl, 10 min): %8.2fs  [%s]\n",
			res.InterpretedElapsed.Seconds(), res.InterpretedTrace)
		fmt.Printf("same script compiled (Go, ablation)      : %8.2fs\n",
			res.CompiledElapsed.Seconds())
		fmt.Printf("parallel SQL (paper: 44 s)               : %8.2fs  -> speedup %.1fx over interpreted\n",
			res.SQLElapsed.Seconds(), res.Speedup)
		fmt.Printf("buffer pool during SQL run: %.1f%% hit rate (%d hits, %d misses)\n",
			100*res.SQLPoolStats.HitRate(), res.SQLPoolStats.Hits, res.SQLPoolStats.Misses)
		fmt.Printf("unique tags found by all three: %d\n\n", res.UniqueTags)
		fmt.Println("[F7] script CPU profile (one core, read-then-process):")
		fmt.Print(bench.RenderCPUTrace(res.ScriptCPU, 60))
		fmt.Printf("  average cores busy: %.2f\n\n", bench.AverageBusy(res.ScriptCPU))
		fmt.Println("[F8] SQL CPU profile (all cores):")
		fmt.Print(bench.RenderCPUTrace(res.SQLCPU, 60))
		fmt.Printf("  average cores busy: %.2f\n\n", bench.AverageBusy(res.SQLCPU))
		fmt.Println("[F9] Query 1 parallel plan:")
		fmt.Println(res.SQLPlan)
	}
	if want("consensus") {
		fmt.Println("---- [Q3/F10] Section 5.3.3: merge join and consensus calling ----")
		res, err := bench.ConsensusExperiment(reseq, workDir, runtime.NumCPU())
		if err != nil {
			fail(err)
		}
		fmt.Printf("alignments joined with reads (warm pool): %d in %.3fs = %.2fM alignments/s (paper: ~1.6M/s)\n",
			res.Alignments, res.MergeJoinElapsed.Seconds(), res.MergeJoinRate/1e6)
		fmt.Printf("buffer pool during join: %.1f%% hit rate (%d hits, %d misses)\n\n",
			100*res.MergeJoinPoolStats.HitRate(), res.MergeJoinPoolStats.Hits, res.MergeJoinPoolStats.Misses)
		fmt.Println("[F10] merge join plan:")
		fmt.Println(res.MergeJoinPlan)
		fmt.Printf("consensus, pivot plan (Query 3 as written): %.3fs\n", res.PivotElapsed.Seconds())
		fmt.Printf("consensus, sliding-window UDA:              %.3fs  (%.1fx faster)\n",
			res.SlidingElapsed.Seconds(), float64(res.PivotElapsed)/float64(res.SlidingElapsed))
		fmt.Printf("results identical: %v\n\n", res.ConsensusMatch)
		fmt.Println("sliding-window plan:")
		fmt.Println(res.SlidingPlan)
	}
	if want("plans") {
		fmt.Println("---- [F9] plan shapes ----")
		res, err := bench.Query1Experiment(dge, workDir+"/plans", 2)
		if err != nil {
			fail(err)
		}
		fmt.Println("Query 1 plan (parallel hash aggregate + ranking):")
		fmt.Println(res.SQLPlan)
	}
	if want("ablations") {
		fmt.Println("---- design-choice ablations ----")
		sizes := []int{64 << 10, 1 << 20, 8 << 20}
		rows, err := bench.ChunkSizeAblation(dge.ReadsFASTQ, workDir, sizes)
		if err != nil {
			fail(err)
		}
		fmt.Println(bench.RenderWrapTable("chunk size of the paging parser:", rows))

		dops := []int{1, 2}
		if runtime.NumCPU() > 2 {
			dops = append(dops, runtime.NumCPU())
		}
		times, err := bench.Query1DOPAblation(dge, workDir, dops)
		if err != nil {
			fail(err)
		}
		fmt.Println("Query 1 by degree of parallelism (warm):")
		keys := make([]int, 0, len(times))
		for k := range times {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		base := times[keys[0]]
		for _, k := range keys {
			fmt.Printf("  DOP %d: %8.3fs (%.2fx)\n", k, times[k].Seconds(), float64(base)/float64(times[k]))
		}
		fmt.Println()
	}
	fmt.Println(strings.Repeat("=", 60))
	fmt.Println("done")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
