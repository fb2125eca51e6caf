package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/align"
	"repro/internal/fastq"
	"repro/internal/gen"
	"repro/internal/sequencer"
)

// scale fixes every size of a run. The sizes are frozen: a later change
// is compared against numbers taken at these sizes, so editing one is a
// new baseline, not a tuning knob.
type scale struct {
	Name       string
	DGEReads   int // reads in the DGE lane
	ReseqReads int // reads in the re-sequencing lane
	ChromLen   int // bases per re-sequencing chromosome (8 chromosomes)
	// ColdPoolPages and ColdBudgets are reseq_cold's reopen configuration:
	// a pool about a fourteenth of the stored data, and per-operator
	// budgets set so that the hash join pre-spills 2 of its 32 partitions
	// (4 temp files; 2 MB spilled 7 for every seed tried, 2.3 MB 3, 2.4 MB
	// 2, 2.5 MB none or one), agg_spill spills every partition and
	// sort_spill writes several runs. Budgets far below the inputs make every partition spill and
	// recurse; the statements then mostly create, write and delete temp
	// files, and on ext4 the cost of creating one grows with the number
	// deleted in the last five minutes, so a statement's time climbs from
	// run to run in proportion to the files it opens (README, baselines).
	ColdPoolPages int
	ColdBudgets   operatorBudgets
	// IngestTxns is ingest's fixed work, whatever the seconds asked for
	// and the engine's speed: about 6 s of load on the reference box, then
	// the read cycle runs for half the seconds on the recovered database.
	// Every checkpoint rewrites the whole of Ingest, so the bytes a load
	// writes grow with the square of its length: 15 000 transactions wrote
	// ~900 MB a run, recovery and the row probe took 8 s more, and ten
	// consecutive runs averaged 59 s each against 31 s for 7 000.
	IngestTxns          int
	IngestCheckpoint    int // writer 0 checkpoints after this many commits
	WriterTxnsPerSecond int // mixed's open-loop rate
	// WriterMaintenance is how many commits mixed's writer makes between
	// CHECKPOINT + ANALYZE TABLE AlignHeap. It stays below a fifth of
	// the table's rows, the growth at which the engine discards the
	// table's statistics and index lookups turn into scans.
	WriterMaintenance int
	PivotAlignments   int // alignments the pivot statement expands
	SetupRepeats      int // set-ups per untraced run; setup_s is their median
}

var scales = map[string]scale{
	"full": {
		Name: "full", DGEReads: 16000, ReseqReads: 10000, ChromLen: 25000,
		ColdPoolPages: 64, ColdBudgets: operatorBudgets{Join: 2417 << 10, Sort: 512 << 10, Agg: 768 << 10},
		IngestTxns: 7000, IngestCheckpoint: 1000,
		WriterTxnsPerSecond: 200, WriterMaintenance: 250,
		PivotAlignments: 100, SetupRepeats: 3,
	},
	// tiny is the smoke scale of bench_test.go: every code path, no
	// meaningful number.
	"tiny": {
		Name: "tiny", DGEReads: 3000, ReseqReads: 2000, ChromLen: 8000,
		ColdPoolPages: 64, ColdBudgets: operatorBudgets{Join: 64 << 10, Sort: 16 << 10, Agg: 16 << 10},
		IngestTxns: 10, IngestCheckpoint: 20,
		WriterTxnsPerSecond: 100, WriterMaintenance: 20,
		PivotAlignments: 100, SetupRepeats: 2,
	},
}

// lanes is one seeded lab data set: a digital-gene-expression lane and a
// re-sequencing lane with its alignments, as the files a lab would hold.
// One set is built per seed and shared by the untraced and traced passes.
type lanes struct {
	Seed int64

	DGEReads []fastq.Record
	DGEFASTQ []byte

	Chroms     []string // re-sequencing reference names; a_g_id is index+1
	ReseqReads []fastq.Record
	ReseqFASTQ []byte
	Aligns     []fastq.AlignmentRecord
	AlignBytes int64 // size of the alignments as their text file

	BuildS float64 // generation time, reported apart from set-up as gen.build_s
}

// userBytes is what the lab handed over: both lane files and the
// alignment file.
func (ln *lanes) userBytes() int64 {
	return int64(len(ln.DGEFASTQ)) + int64(len(ln.ReseqFASTQ)) + ln.AlignBytes
}

// buildLanes generates both lanes from the seed alone.
func buildLanes(seed int64, sc scale) (*lanes, error) {
	start := time.Now()
	ln := &lanes{Seed: seed}

	// DGE: Zipf-weighted tags, so the lane is highly repetitive (the
	// property behind the paper's Table 1 and Query 1).
	dgeGenome := gen.GenerateGenome(gen.GenomeSpec{Chromosomes: 4, ChromLength: 50000, Seed: seed})
	genes := gen.GenerateGenes(dgeGenome, gen.DGESpec{Genes: 600, TagLen: 21, ZipfS: 1.25, Seed: seed + 1})
	templates, _ := gen.SampleTags(dgeGenome, genes, sc.DGEReads, seed+2)
	ins := sequencer.NewInstrument("IL4", 21)
	ins.Sigma, ins.Phasing = 0.14, 0.006
	var err error
	if ln.DGEReads, err = ins.Run(sequencer.DefaultFlowcell(1), 1, 855, templates, seed+3); err != nil {
		return nil, fmt.Errorf("sequencing DGE lane: %w", err)
	}
	if ln.DGEFASTQ, err = renderFASTQ(ln.DGEReads); err != nil {
		return nil, err
	}

	// Re-sequencing: near-unique reads over an individual genome, then
	// aligned back to the reference (the MAQ step).
	genome := gen.GenerateGenome(gen.GenomeSpec{Chromosomes: 8, ChromLength: sc.ChromLen, Seed: seed + 10})
	frags := gen.SampleFragments(genome, gen.ResequencingSpec{
		Reads: sc.ReseqReads, ReadLen: 36, Seed: seed + 11, SNPRate: 0.001, BothStrands: true,
	})
	templates = templates[:0]
	for _, f := range frags {
		templates = append(templates, f.Seq)
	}
	ins = sequencer.NewInstrument("IL4", 36)
	ins.Sigma, ins.Phasing = 0.14, 0.006
	if ln.ReseqReads, err = ins.Run(sequencer.DefaultFlowcell(2), 2, 901, templates, seed+12); err != nil {
		return nil, fmt.Errorf("sequencing re-sequencing lane: %w", err)
	}
	if ln.ReseqFASTQ, err = renderFASTQ(ln.ReseqReads); err != nil {
		return nil, err
	}
	chroms := make([]align.Chrom, len(genome.Chroms))
	for i, c := range genome.Chroms {
		chroms[i] = align.Chrom{Name: c.Name, Seq: c.Seq}
		ln.Chroms = append(ln.Chroms, c.Name)
	}
	idx, err := align.BuildIndex(chroms, 20)
	if err != nil {
		return nil, fmt.Errorf("indexing reference: %w", err)
	}
	ln.Aligns, _ = align.NewAligner(idx).AlignAll(ln.ReseqReads, 0)
	var buf bytes.Buffer
	if err := fastq.WriteAlignments(&buf, ln.Aligns); err != nil {
		return nil, err
	}
	ln.AlignBytes = int64(buf.Len())
	ln.BuildS = time.Since(start).Seconds()
	return ln, nil
}

func renderFASTQ(recs []fastq.Record) ([]byte, error) {
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
