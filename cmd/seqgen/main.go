// Command seqgen generates the synthetic datasets of the paper's two
// scenarios as ordinary files: a reference genome (FASTA), level-1 short
// reads (FASTQ) and level-2 alignments (tab-separated text), for either
// the digital-gene-expression or the re-sequencing workload.
//
// Usage:
//
//	seqgen -mode dge   -reads 100000 -out DIR
//	seqgen -mode reseq -reads 100000 -out DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fastq"
	"repro/internal/gen"
	"repro/internal/gen/lanes"
)

func main() {
	mode := flag.String("mode", "dge", "dataset kind: dge or reseq")
	reads := flag.Int("reads", 100_000, "number of level-1 reads to generate")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "seqgen-out", "output directory")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	switch *mode {
	case "dge":
		ds, err := lanes.BuildDGE(*reads, *seed)
		if err != nil {
			fail(err)
		}
		writeFile(filepath.Join(*out, "lane.fastq"), ds.ReadsFASTQ)
		writeFasta(filepath.Join(*out, "reference.fasta"), ds.Genome)
		writeFile(filepath.Join(*out, "tags.txt"), lanes.RenderTagsFile(ds.Tags))
		writeFile(filepath.Join(*out, "alignments.txt"), lanes.RenderAlignmentsFile(ds.Alignments))
		writeFile(filepath.Join(*out, "expression.txt"), lanes.RenderExpressionFile(ds.Expression))
		fmt.Printf("dge dataset: %d reads, %d unique tags, %d alignments, %d expressed genes\n",
			len(ds.Reads), len(ds.Tags), len(ds.Alignments), len(ds.Expression))
	case "reseq":
		ds, err := lanes.Build1000G(*reads, *seed)
		if err != nil {
			fail(err)
		}
		writeFile(filepath.Join(*out, "lane.fastq"), ds.ReadsFASTQ)
		writeFasta(filepath.Join(*out, "reference.fasta"), ds.Genome)
		writeFile(filepath.Join(*out, "alignments.txt"), lanes.RenderAlignmentsFile(ds.Alignments))
		fmt.Printf("reseq dataset: %d reads, %d alignments over %d bp reference\n",
			len(ds.Reads), len(ds.Alignments), ds.Genome.TotalLength())
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	fmt.Println("wrote", *out)
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
}

func writeFasta(path string, g *gen.Genome) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	w := fastq.NewFastaWriter(f)
	for _, c := range g.Chroms {
		if err := w.Write(fastq.FastaRecord{Name: c.Name, Seq: c.Seq}); err != nil {
			fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "seqgen:", err)
	os.Exit(1)
}
