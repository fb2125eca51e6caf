package udf

import (
	"sort"
	"testing"

	"repro/internal/align"
	"repro/internal/consensus"
	"repro/internal/gen"
	"repro/internal/sequencer"
	"repro/internal/sqltypes"
)

// TestEndToEndSNPPipeline runs the paper's complete Figure 1 pipeline as
// one assertion: simulate an individual genome with known SNPs, sequence
// it, align, load the clustered schema, call the consensus with the
// sliding-window UDA through SQL, and verify the planted SNPs come back.
func TestEndToEndSNPPipeline(t *testing.T) {
	reference := gen.GenerateGenome(gen.GenomeSpec{Chromosomes: 2, ChromLength: 30_000, Seed: 10})
	individual, planted := gen.MutateGenome(reference, 0.001, 11)
	if len(planted) == 0 {
		t.Fatal("no SNPs planted")
	}

	// Phase 0/1: sequencing at 10x coverage.
	const readLen = 36
	frags := gen.SampleFragments(individual, gen.ResequencingSpec{
		Reads: reference.TotalLength() * 10 / readLen, ReadLen: readLen,
		Seed: 12, BothStrands: true,
	})
	templates := make([]string, len(frags))
	for i, f := range frags {
		templates[i] = f.Seq
	}
	ins := sequencer.NewInstrument("ILT", readLen)
	ins.Sigma = 0.14
	reads, err := ins.Run(sequencer.DefaultFlowcell(1), 1, 1, templates, 13)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 2: alignment.
	chroms := make([]align.Chrom, len(reference.Chroms))
	for i, c := range reference.Chroms {
		chroms[i] = align.Chrom{Name: c.Name, Seq: c.Seq}
	}
	idx, err := align.BuildIndex(chroms, 20)
	if err != nil {
		t.Fatal(err)
	}
	aligner := align.NewAligner(idx)
	alignments, stats := aligner.AlignAll(reads, 0)
	if float64(stats.Aligned) < 0.9*float64(stats.Reads) {
		t.Fatalf("only %d/%d aligned", stats.Aligned, stats.Reads)
	}

	// Load the clustered schema and consensus-call through SQL.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignment (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(100), quals VARCHAR(100),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	chromID := map[string]int64{}
	for i, c := range reference.Chroms {
		chromID[c.Name] = int64(i + 1)
	}
	sort.Slice(alignments, func(i, j int) bool {
		a, b := alignments[i], alignments[j]
		if chromID[a.RefName] != chromID[b.RefName] {
			return chromID[a.RefName] < chromID[b.RefName]
		}
		return a.Pos < b.Pos
	})
	rows := make([]sqltypes.Row, len(alignments))
	for i, a := range alignments {
		rows[i] = sqltypes.Row{
			sqltypes.NewInt(chromID[a.RefName]), sqltypes.NewInt(a.Pos), sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(a.Seq), sqltypes.NewString(a.Qual),
		}
	}
	if err := db.InsertRows("Alignment", rows); err != nil {
		t.Fatal(err)
	}

	res := mustExec(t, db, `
	  SELECT a_g_id, AssembleConsensus(a_pos, seq, quals)
	    FROM Alignment GROUP BY a_g_id ORDER BY a_g_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("consensus rows = %d", len(res.Rows))
	}
	// The pivot plan (Query 3 as written) calls the same consensus from
	// sequencer reads with their errors.
	t.Run("pivot_matches_sliding", func(t *testing.T) {
		pivot := mustExec(t, db, `
		  SELECT a_g_id, AssembleSequence(position, b)
		    FROM (SELECT a_g_id, position, CallBase(base, qual) AS b
		            FROM Alignment
		            CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
		           GROUP BY a_g_id, position) t
		   GROUP BY a_g_id ORDER BY a_g_id`)
		if len(pivot.Rows) != len(res.Rows) {
			t.Fatalf("pivot consensus rows = %d, sliding = %d", len(pivot.Rows), len(res.Rows))
		}
		for i, row := range pivot.Rows {
			if row[1].S != res.Rows[i][1].S {
				t.Errorf("pivot consensus of chromosome %v differs from the sliding window's", row[0])
			}
		}
	})

	// Phase 3: SNP recovery against the reference.
	refMap := map[string]string{}
	for _, c := range reference.Chroms {
		refMap[c.Name] = c.Seq
	}
	found := map[gen.PlantedSNP]bool{}
	falsePositives := 0
	for _, row := range res.Rows {
		gid := row[0].I
		name := reference.Chroms[gid-1].Name
		startRes := mustExec(t, db, `SELECT MIN(a_pos) FROM Alignment WHERE a_g_id = `+row[0].String())
		start := int(startRes.Rows[0][0].I)
		cons := row[1].S
		refSeq := refMap[name]
		for i := 0; i < len(cons); i++ {
			pos := start + i
			if pos >= len(refSeq) || cons[i] == 'N' || cons[i] == refSeq[pos] {
				continue
			}
			snp := gen.PlantedSNP{Chrom: name, Pos: pos, Ref: refSeq[pos], Alt: cons[i]}
			match := false
			for _, p := range planted {
				if p == snp {
					match = true
					break
				}
			}
			if match {
				found[snp] = true
			} else {
				falsePositives++
			}
		}
	}
	if len(found) < len(planted)*8/10 {
		t.Errorf("recovered %d/%d planted SNPs", len(found), len(planted))
	}
	if falsePositives > len(planted)/2 {
		t.Errorf("%d false-positive SNPs (planted %d)", falsePositives, len(planted))
	}
	// Cross-check one chromosome against the library's sliding caller.
	caller := consensus.NewSlidingCaller()
	for _, a := range alignments {
		if chromID[a.RefName] != 1 {
			continue
		}
		if err := caller.Add(consensus.AlignedRead{
			Chrom: a.RefName, Pos: int(a.Pos), Seq: a.Seq, Qual: a.Qual,
		}); err != nil {
			t.Fatal(err)
		}
	}
	lib := caller.Finish()
	if string(lib[0].Seq) != res.Rows[0][1].S {
		t.Error("SQL consensus differs from library consensus")
	}
}
