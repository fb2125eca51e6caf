// Package lanes builds complete sequencing lanes for the paper's two
// scenarios from the generators of package gen: a digital gene expression
// lane with its tag analysis, alignments and expression result (Table 1),
// and a re-sequencing lane with its alignments (Table 2). cmd/seqgen writes
// them as files; tests load them into the engine.
package lanes

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/align"
	"repro/internal/dge"
	"repro/internal/fastq"
	"repro/internal/gen"
	"repro/internal/sequencer"
)

// DGEDataset is a complete digital gene expression lane: level-1 reads,
// the unique-tag analysis, alignments against the reference, and the
// gene-expression result (paper Table 1's four data items).
type DGEDataset struct {
	Genome     *gen.Genome
	Genes      []gen.Gene
	Reads      []fastq.Record
	Tags       []fastq.TagRecord
	Alignments []fastq.AlignmentRecord
	Expression []fastq.ExpressionRecord

	ReadsFASTQ []byte // the original lane file
}

// BuildDGE generates a DGE lane with the given number of sequenced tags.
// Tag frequencies follow the Zipf expression model, so the read file is
// highly repetitive — the property behind Table 1's compression results.
func BuildDGE(reads int, seed int64) (*DGEDataset, error) {
	genome := gen.GenerateGenome(gen.GenomeSpec{
		Chromosomes: 4, ChromLength: 250_000, Seed: seed,
	})
	genes := gen.GenerateGenes(genome, gen.DGESpec{
		Genes: 600, TagLen: 21, ZipfS: 1.25, Seed: seed + 1,
	})
	templates, _ := gen.SampleTags(genome, genes, reads, seed+2)
	ins := sequencer.NewInstrument("IL4", 21)
	// Production-grade base calling: ~Q35 with a mild cycle decay, the
	// quality band of a well-tuned lane.
	ins.Sigma, ins.Phasing = 0.14, 0.006
	fc := sequencer.DefaultFlowcell(1)
	recs, err := ins.Run(fc, 1, 855, templates, seed+3)
	if err != nil {
		return nil, err
	}
	ds := &DGEDataset{Genome: genome, Genes: genes, Reads: recs}
	if ds.ReadsFASTQ, err = renderFASTQ(recs); err != nil {
		return nil, err
	}

	// Unique-tag analysis (Query 1's output).
	ds.Tags = dge.BinTags(recs)

	// Align the unique tags against the reference (the MAQ step); tags
	// are aligned once, weighted by frequency downstream.
	idx, err := align.BuildIndex(chromsOf(genome), 16)
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx)
	tagReads := make([]fastq.Record, len(ds.Tags))
	for i, t := range ds.Tags {
		tagReads[i] = fastq.Record{
			Name: fmt.Sprintf("tag_%d", i+1),
			Seq:  t.Seq,
			Qual: strings.Repeat("I", len(t.Seq)),
		}
	}
	ds.Alignments, _ = aligner.AlignAll(tagReads, 0)

	// Gene expression (Query 2's output).
	freq := make(map[string]int64, len(ds.Tags))
	for _, t := range ds.Tags {
		freq[t.Seq] = t.Frequency
	}
	ds.Expression = dge.Expression(ds.Alignments, freq, geneResolver(genes))
	return ds, nil
}

// geneResolver builds a dge.GeneResolver from the generator's gene table:
// an alignment hits a gene when it lands on the gene's tag site.
func geneResolver(genes []gen.Gene) dge.GeneResolver {
	type site struct {
		pos  int
		name string
	}
	byChrom := map[string][]site{}
	for _, g := range genes {
		byChrom[g.Chrom] = append(byChrom[g.Chrom], site{g.TagPos, g.Name})
	}
	for _, sites := range byChrom {
		sort.Slice(sites, func(a, b int) bool { return sites[a].pos < sites[b].pos })
	}
	return func(ref string, pos int64) (string, bool) {
		sites := byChrom[ref]
		i := sort.Search(len(sites), func(i int) bool { return sites[i].pos >= int(pos) })
		if i < len(sites) && int64(sites[i].pos) == pos {
			return sites[i].name, true
		}
		return "", false
	}
}

func chromsOf(g *gen.Genome) []align.Chrom {
	out := make([]align.Chrom, len(g.Chroms))
	for i, c := range g.Chroms {
		out[i] = align.Chrom{Name: c.Name, Seq: c.Seq}
	}
	return out
}

// ResequencingDataset is a 1000-Genomes-style lane: near-unique reads
// sampled across an individual genome (reference + SNPs) and their
// alignments (paper Table 2).
type ResequencingDataset struct {
	Genome     *gen.Genome
	Reads      []fastq.Record
	Alignments []fastq.AlignmentRecord
	ReadsFASTQ []byte
}

// Build1000G generates a re-sequencing lane of the given read count.
func Build1000G(reads int, seed int64) (*ResequencingDataset, error) {
	genome := gen.GenerateGenome(gen.GenomeSpec{
		Chromosomes: 8, ChromLength: 300_000, Seed: seed,
	})
	frags := gen.SampleFragments(genome, gen.ResequencingSpec{
		Reads: reads, ReadLen: 36, Seed: seed + 1,
		SNPRate: 0.001, BothStrands: true,
	})
	templates := make([]string, len(frags))
	for i, f := range frags {
		templates[i] = f.Seq
	}
	ins := sequencer.NewInstrument("IL4", 36)
	ins.Sigma, ins.Phasing = 0.14, 0.006
	fc := sequencer.DefaultFlowcell(2)
	recs, err := ins.Run(fc, 2, 901, templates, seed+2)
	if err != nil {
		return nil, err
	}
	ds := &ResequencingDataset{Genome: genome, Reads: recs}
	if ds.ReadsFASTQ, err = renderFASTQ(recs); err != nil {
		return nil, err
	}

	idx, err := align.BuildIndex(chromsOf(genome), 20)
	if err != nil {
		return nil, err
	}
	aligner := align.NewAligner(idx)
	ds.Alignments, _ = aligner.AlignAll(recs, 0)
	return ds, nil
}

// renderFASTQ serializes reads as the lane's FASTQ file.
func renderFASTQ(recs []fastq.Record) ([]byte, error) {
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	err := w.Flush()
	return buf.Bytes(), err
}

// RenderTagsFile serializes the unique-tag analysis as its text file.
func RenderTagsFile(tags []fastq.TagRecord) []byte {
	var buf bytes.Buffer
	fastq.WriteTags(&buf, tags)
	return buf.Bytes()
}

// RenderAlignmentsFile serializes alignments as their text file.
func RenderAlignmentsFile(aligns []fastq.AlignmentRecord) []byte {
	var buf bytes.Buffer
	fastq.WriteAlignments(&buf, aligns)
	return buf.Bytes()
}

// RenderExpressionFile serializes expression records as their text file.
func RenderExpressionFile(recs []fastq.ExpressionRecord) []byte {
	var buf bytes.Buffer
	fastq.WriteExpression(&buf, recs)
	return buf.Bytes()
}
