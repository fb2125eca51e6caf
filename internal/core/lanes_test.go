package core

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/fastq"
	"repro/internal/gen/lanes"
	"repro/internal/sqltypes"
)

// dgeLane is a digital gene expression lane: Zipf-distributed tags, so
// its reads repeat heavily.
var dgeLane = sync.OnceValues(func() (*lanes.DGEDataset, error) { return lanes.BuildDGE(4000, 42) })

// normalizedReads is §5.1.1's normalization of a read: a synthetic id,
// the machine_run:flowcell:lane:tile:x:y name split into integers, then
// the bases and qualities.
func normalizedReads(t *testing.T, reads []fastq.Record) []sqltypes.Row {
	t.Helper()
	rows := make([]sqltypes.Row, len(reads))
	for i, r := range reads {
		parts := strings.Split(r.Name, ":")
		if len(parts) != 6 {
			t.Fatalf("read name %q is not machine_run:fc:lane:tile:x:y", r.Name)
		}
		row := sqltypes.Row{sqltypes.NewInt(int64(i + 1))}
		for _, p := range parts[1:] {
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				t.Fatalf("read name %q: %v", r.Name, err)
			}
			row = append(row, sqltypes.NewInt(v))
		}
		rows[i] = append(row, sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual))
	}
	return rows
}

// TestStorageShapes holds the storage shapes of the paper's Table 1 (a
// DGE lane), Table 2 (a re-sequencing lane) and §5.1.2 (the SEQUENCE
// type) as assertions about the engine, one subtest each: each case
// compares the bytes two physical designs of the same data take after a
// checkpoint.
func TestStorageShapes(t *testing.T) {
	dge, err := dgeLane()
	if err != nil {
		t.Fatal(err)
	}
	reseq, err := lanes.Build1000G(3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t)
	size := map[string]int64{"dge_fastq": int64(len(dge.ReadsFASTQ))}
	load := func(name, cols, with string, rows []sqltypes.Row) {
		t.Helper()
		mustExec(t, db, "CREATE TABLE "+name+" ("+cols+")"+with)
		if err := db.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, "CHECKPOINT")
		if size[name], err = db.TableSizeBytes(name); err != nil {
			t.Fatal(err)
		}
	}
	const (
		readCols = "r_id BIGINT, fc_id INT, lane INT, tile INT, x INT, y INT, seq VARCHAR(300), quals VARCHAR(300)"
		row      = " WITH (DATA_COMPRESSION = ROW)"
		page     = " WITH (DATA_COMPRESSION = PAGE)"
	)

	// Table 1: the DGE reads as in the file, and normalized.
	asInFile := make([]sqltypes.Row, len(dge.Reads))
	for i, r := range dge.Reads {
		asInFile[i] = sqltypes.Row{sqltypes.NewString(r.Name), sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual)}
	}
	load("dge_1to1", "read_name VARCHAR(100), seq VARCHAR(300), quals VARCHAR(300)", "", asInFile)
	dgeReads := normalizedReads(t, dge.Reads)
	load("dge_none", readCols, "", dgeReads)
	load("dge_row", readCols, row, dgeReads)
	load("dge_page", readCols, page, dgeReads)

	// Table 2: unique re-sequencing reads, and their alignments as in the
	// file and normalized (foreign keys in place of names, no sequence).
	reseqReads := normalizedReads(t, reseq.Reads)
	load("reseq_row", readCols, row, reseqReads)
	load("reseq_page", readCols, page, reseqReads)
	readID := make(map[string]int64, len(reseq.Reads))
	for i, r := range reseq.Reads {
		readID[r.Name] = int64(i + 1)
	}
	chromID := map[string]int64{}
	for i, c := range reseq.Genome.Chroms {
		chromID[c.Name] = int64(i + 1)
	}
	alignsInFile := make([]sqltypes.Row, len(reseq.Alignments))
	alignsNorm := make([]sqltypes.Row, len(reseq.Alignments))
	for i, a := range reseq.Alignments {
		alignsInFile[i] = sqltypes.Row{
			sqltypes.NewString(a.ReadName), sqltypes.NewString(a.RefName), sqltypes.NewInt(a.Pos),
			sqltypes.NewString(string(a.Strand)), sqltypes.NewInt(int64(a.Mismatches)), sqltypes.NewInt(int64(a.MapQ)),
			sqltypes.NewString(a.Seq), sqltypes.NewString(a.Qual),
		}
		alignsNorm[i] = sqltypes.Row{
			sqltypes.NewInt(readID[a.ReadName]), sqltypes.NewInt(chromID[a.RefName]), sqltypes.NewInt(a.Pos),
			sqltypes.NewBool(a.Strand == '-'), sqltypes.NewInt(int64(a.Mismatches)), sqltypes.NewInt(int64(a.MapQ)),
		}
	}
	load("aligns_1to1", "read_name VARCHAR(100), ref_name VARCHAR(50), pos BIGINT, strand VARCHAR(1), mm INT, mapq INT, seq VARCHAR(300), quals VARCHAR(300)", "", alignsInFile)
	load("aligns_norm", "a_r_id BIGINT, a_g_id INT, a_pos BIGINT, a_strand BIT, a_mm INT, a_mapq INT", "", alignsNorm)

	// §5.1.2: the bit-packed SEQUENCE type against VARCHAR.
	seqs := make([]sqltypes.Row, len(reseq.Reads))
	for i, r := range reseq.Reads {
		seqs[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(r.Seq)}
	}
	load("seq_varchar", "r_id BIGINT, seq VARCHAR(300)", "", seqs)
	load("seq_sequence", "r_id BIGINT, seq SEQUENCE", "", seqs)

	type shape struct {
		what         string
		small, large string
		ratio        float64 // want small <= ratio * large
		strict       bool    // want small < ratio * large
	}
	for _, table := range []struct {
		name   string
		shapes []shape
	}{
		{"Table1_DGE", []shape{
			{"PAGE smaller than ROW on duplicated reads", "dge_page", "dge_row", 1, true},
			{"PAGE at most 0.8x the FASTQ file", "dge_page", "dge_fastq", 0.8, false},
			{"a 1:1 import larger than the FASTQ file", "dge_fastq", "dge_1to1", 1, true},
			{"normalized no larger than 1:1", "dge_none", "dge_1to1", 1, false},
		}},
		{"Table2_reseq", []shape{
			{"PAGE at least 0.5x ROW on unique reads", "reseq_row", "reseq_page", 2, false},
			{"normalized alignments at most 0.7x 1:1", "aligns_norm", "aligns_1to1", 0.7, false},
		}},
		{"SEQUENCE_type", []shape{
			{"SEQUENCE smaller than VARCHAR", "seq_sequence", "seq_varchar", 1, true},
		}},
	} {
		t.Run(table.name, func(t *testing.T) {
			for _, c := range table.shapes {
				small, limit := float64(size[c.small]), c.ratio*float64(size[c.large])
				if small > limit || c.strict && small == limit {
					t.Errorf("%s: %s is %d B, %s is %d B", c.what, c.small, size[c.small], c.large, size[c.large])
				}
			}
		})
	}
}

// TestQuery1OnDGELane runs the paper's Query 1 over a whole DGE lane, as
// a parallel hash aggregate, and checks its ranking against the lane's
// tag analysis.
func TestQuery1OnDGELane(t *testing.T) {
	dge, err := dgeLane()
	if err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE [Read] (r_id BIGINT, short_read_seq VARCHAR(300))`)
	rows := make([]sqltypes.Row, len(dge.Reads))
	for i, r := range dge.Reads {
		rows[i] = sqltypes.Row{sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(r.Seq)}
	}
	if err := db.InsertRows("Read", rows); err != nil {
		t.Fatal(err)
	}
	const query1 = `
	  SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank,
	         COUNT(*) AS freq, short_read_seq
	    FROM [Read]
	   WHERE CHARINDEX('N', short_read_seq) = 0
	   GROUP BY short_read_seq`
	if plan := mustExec(t, db, "EXPLAIN "+query1).Plan; !strings.Contains(plan, "Hash Match") {
		t.Errorf("Query 1 plan has no hash aggregate:\n%s", plan)
	}
	res := mustExec(t, db, query1)
	if len(res.Rows) != len(dge.Tags) {
		t.Fatalf("Query 1 found %d unique tags, the tag analysis %d", len(res.Rows), len(dge.Tags))
	}
	freq := make(map[string]int64, len(dge.Tags))
	for _, tag := range dge.Tags {
		freq[tag.Seq] = tag.Frequency
	}
	for i, r := range res.Rows {
		// Tags of equal frequency may rank in any order.
		if r[0].I != int64(i+1) || r[1].I != dge.Tags[i].Frequency || r[1].I != freq[r[2].S] {
			t.Fatalf("row %d = %v, want rank %d and frequency %d (tag analysis: %d)",
				i, r, i+1, dge.Tags[i].Frequency, freq[r[2].S])
		}
	}
}
