// Quickstart: open a database, store a sequencing lane as a FileStream
// BLOB, and analyze it with SQL through the ListShortReads table-valued
// function — the paper's Section 3.3 example end to end.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

func main() {
	dir, err := os.MkdirTemp("", "genodb-quickstart-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Open the engine and register the genomics extension functions.
	db, err := core.Open(filepath.Join(dir, "db"), core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	udf.RegisterAll(db)

	// The paper's ShortReadFiles table: workflow metadata plus the lane
	// content as a FILESTREAM column.
	mustExec(db, `CREATE TABLE ShortReadFiles (
	    guid   UNIQUEIDENTIFIER PRIMARY KEY,
	    sample INT,
	    lane   INT,
	    reads  VARBINARY(MAX) FILESTREAM
	) FILESTREAM_ON FileStreamGroup`)

	// Produce a small FASTQ lane file (stand-in for sequencer output).
	lanePath := filepath.Join(dir, "855_s_1.fastq")
	writeLane(lanePath)

	// Bulk-import it as a FileStream — the engine's OPENROWSET(BULK ...,
	// SINGLE_BLOB) path.
	guid, err := db.ImportFileStream("ShortReadFiles", lanePath, map[string]sqltypes.Value{
		"guid":   sqltypes.NewString("will-be-filled"),
		"sample": sqltypes.NewInt(855),
		"lane":   sqltypes.NewInt(1),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("imported lane as FileStream blob %s\n\n", guid)

	// Check the FileStream metadata, as in the paper:
	// SELECT guid, sample, lane, reads.PathName(), DATALENGTH(reads) ...
	res := mustExec(db, `SELECT sample, lane, FilePathName(reads), FileDataLength(reads)
	                       FROM ShortReadFiles`)
	for _, row := range res.Rows {
		fmt.Printf("sample=%v lane=%v path=%v bytes=%v\n\n", row[0], row[1], row[2], row[3])
	}

	// Stream the lane through SQL: list the first reads...
	res = mustExec(db, `SELECT TOP 3 read_name, seq, quals
	                      FROM ListShortReads(855, 1, 'FastQ')`)
	fmt.Println("first reads via the ListShortReads TVF:")
	for _, row := range res.Rows {
		fmt.Printf("  %-24s %s  %s\n", row[0], row[1], row[2])
	}

	// ...and run the paper's Query 1 directly over the FileStream: bin
	// unique reads by frequency, skipping uncertain 'N' calls.
	res = mustExec(db, `
	  SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank,
	         COUNT(*) AS freq, seq
	    FROM ListShortReads(855, 1, 'FastQ')
	   WHERE CHARINDEX('N', seq) = 0
	   GROUP BY seq`)
	fmt.Println("\nunique-read binning (Query 1) over the FileStream:")
	for _, row := range res.Rows {
		fmt.Printf("  rank=%v freq=%v %v\n", row[0], row[1], row[2])
	}

	// After bulk loads, ANALYZE collects per-column statistics (row
	// counts, null fractions, NDV sketches, histograms) that the planner
	// uses for join build sides, partition counts and Bloom filters;
	// EXPLAIN then annotates every plan node with its estimate.
	res = mustExec(db, `ANALYZE TABLE ShortReadFiles`)
	fmt.Println("\nANALYZE ShortReadFiles:")
	for _, row := range res.Rows {
		fmt.Printf("  table=%v rows=%v sampled=%v columns=%v\n", row[0], row[1], row[2], row[3])
	}
	res = mustExec(db, `EXPLAIN SELECT sample, lane FROM ShortReadFiles WHERE sample = 855`)
	fmt.Println("\nplan with statistics (note the est=N rows annotations):")
	fmt.Print(res.Plan)

	// Vectorized execution: scans, filters, projections, the hash join and
	// COUNT(*)-style aggregates move ~1024-row columnar batches with
	// selection vectors instead of one row per operator call (a COUNT(*)
	// over a join never builds a row), and a scan decodes only the columns
	// the query reads
	// (on any table: a column of a sealed page decodes the first time it
	// is read). On a PAGE-compressed table, sealed pages also keep their
	// dictionary coding into the scan, so the filter below compares
	// integer codes — rows it drops are never decompressed. EXPLAIN marks
	// batch-capable nodes "vectorized". No option selects this: the
	// planner takes the batch path for every heap scan and hash join.
	mustExec(db, `CREATE TABLE tags (tag VARCHAR(24), lane INT)
	              WITH (DATA_COMPRESSION = PAGE)`)
	mustExec(db, `INSERT INTO tags VALUES ('CATG', 1), ('GATC', 1), ('CATG', 2), ('TTAA', 2)`)
	mustExec(db, `CHECKPOINT`)
	res = mustExec(db, `EXPLAIN SELECT COUNT(*) FROM tags WHERE tag = 'CATG'`)
	fmt.Println("\nvectorized filter scan over a dictionary-compressed table:")
	fmt.Print(res.Plan)

	// Multi-session transactions: every session gets its own MVCC
	// transaction handle; a writer's uncommitted rows are invisible to
	// other sessions, whose reads come from a consistent snapshot and
	// never block behind the write.
	mustExec(db, `CREATE TABLE runs (run_id BIGINT, status VARCHAR(16))`)
	writer, reader := db.NewSession(), db.NewSession()
	mustSess(writer, `BEGIN`)
	mustSess(writer, `INSERT INTO runs VALUES (1, 'aligning')`)
	before := mustSess(reader, `SELECT COUNT(*) FROM runs`)
	mustSess(writer, `COMMIT`)
	after := mustSess(reader, `SELECT COUNT(*) FROM runs`)
	fmt.Printf("\nsnapshot isolation: reader saw %v rows before the writer's COMMIT, %v after\n",
		before.Rows[0][0], after.Rows[0][0])
}

func mustSess(s *core.Session, sql string) *core.Result {
	res, err := s.Exec(sql)
	if err != nil {
		log.Fatalf("SQL failed: %v\n%s", err, sql)
	}
	return res
}

func mustExec(db *core.Database, sql string) *core.Result {
	res, err := db.Exec(sql)
	if err != nil {
		log.Fatalf("SQL failed: %v\n%s", err, sql)
	}
	return res
}

func writeLane(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	w := fastq.NewWriter(f)
	reads := []fastq.Record{
		{Name: "IL4_855:1:1:954:659", Seq: "GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA", Qual: ">>>>>>>>>>>>>>>6>>>>>>>;>>>>>>;>>;>;"},
		{Name: "IL4_855:1:1:497:759", Seq: "ACGTACGTACGTACGTACGTACGTACGTACGTACGT", Qual: "IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"},
		{Name: "IL4_855:1:1:101:202", Seq: "GTTTTTATGGTTTTAGATCTTAAGTCTTTAATCCAA", Qual: "IIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"},
		{Name: "IL4_855:1:1:300:400", Seq: "ACGTNCGTACGTACGTACGTACGTACGTACGTACGT", Qual: "IIII!IIIIIIIIIIIIIIIIIIIIIIIIIIIIIII"},
	}
	for _, r := range reads {
		if err := w.Write(r); err != nil {
			log.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
}
