package udf

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fastq"
	"repro/internal/seq"
	"repro/internal/sequencer"
	"repro/internal/sqltypes"
	"repro/internal/vec"
)

func openTestDB(t testing.TB) *core.Database {
	t.Helper()
	db, err := core.Open(filepath.Join(t.TempDir(), "db"), core.Options{DOP: 2})
	if err != nil {
		t.Fatal(err)
	}
	RegisterAll(db)
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t testing.TB, db *core.Database, sql string) *core.Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestListShortReadsTVF(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`)

	// Write a FASTQ file and import it, as in the paper's Section 3.3.
	src := filepath.Join(t.TempDir(), "855_s_1.fastq")
	f, _ := os.Create(src)
	w := fastq.NewWriter(f)
	for i := 0; i < 100; i++ {
		w.Write(fastq.Record{
			Name: fmt.Sprintf("IL4_855:1:1:%d:%d", i, i*2),
			Seq:  strings.Repeat("ACGT", 9),
			Qual: strings.Repeat("I", 36),
		})
	}
	w.Flush()
	f.Close()
	if _, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"guid":   sqltypes.NewString("meta"),
		"sample": sqltypes.NewInt(855),
		"lane":   sqltypes.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}

	// The paper's example: SELECT * FROM ListShortReads(855, 1, 'FastQ').
	res := mustExec(t, db, `SELECT * FROM ListShortReads(855, 1, 'FastQ')`)
	if len(res.Rows) != 100 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0][0].S != "IL4_855:1:1:0:0" || len(res.Rows[0][1].S) != 36 {
		t.Errorf("first row = %v", res.Rows[0])
	}
	// Aggregation over the TVF.
	cnt := mustExec(t, db, `SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ') WHERE CHARINDEX('N', seq) = 0`)
	if cnt.Rows[0][0].I != 100 {
		t.Errorf("count = %v", cnt.Rows)
	}
	// Unknown sample errors.
	if _, err := db.Exec(`SELECT * FROM ListShortReads(999, 1, 'FastQ')`); err == nil {
		t.Error("unknown sample accepted")
	}
	if _, err := db.Exec(`SELECT * FROM ListShortReads(855, 1, 'SRF')`); err == nil {
		t.Error("unknown format accepted")
	}
}

// TestFileStreamAccessPathsAgree: the §5.2 ways of scanning a lane's
// FileStream count the reads written, on a lane larger than one scan
// chunk and one prefetch window: the blob paged by the chunked scanner,
// the blob line by line, and the ListShortReads TVF under COUNT(*).
func TestFileStreamAccessPathsAgree(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`)
	templates := make([]string, 20_000)
	for i := range templates {
		templates[i] = "ACGTACGTTGCAAGCTAGCTTACGGATCCAGTCA"[i%7:]
	}
	reads, err := sequencer.NewInstrument("IL4", 27).Run(sequencer.DefaultFlowcell(1), 1, 855, templates, 3)
	if err != nil {
		t.Fatal(err)
	}
	var lane bytes.Buffer
	w := fastq.NewWriter(&lane)
	for _, r := range reads {
		w.Write(r)
	}
	w.Flush()
	if lane.Len() <= fastq.DefaultChunkSize {
		t.Fatalf("lane of %d bytes fits one scan chunk", lane.Len())
	}
	src := filepath.Join(t.TempDir(), "lane.fastq")
	if err := os.WriteFile(src, lane.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	guid, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(855), "lane": sqltypes.NewInt(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	stream, err := db.OpenBlob(guid)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	stream.SetSequential(true)
	scan := func(entry fastq.EntryFunc) int64 {
		sc := fastq.NewChunkedScanner(stream, entry, 0)
		for sc.MoveNext() {
		}
		if sc.Err() != nil {
			t.Fatal(sc.Err())
		}
		return sc.Entries
	}
	want := int64(len(reads))
	for path, got := range map[string]int64{
		"chunked scan of the blob":    scan(fastq.FASTQEntry),
		"blob lines / 4":              scan(fastq.LineEntry) / 4,
		"ListShortReads and COUNT(*)": mustExec(t, db, `SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')`).Rows[0][0].I,
	} {
		if got != want {
			t.Errorf("%s counted %d reads, the file holds %d", path, got, want)
		}
	}
}

// TestListShortReadsSeesStatementSnapshot: the TVF resolves its blob under
// the snapshot of the statement it runs in, like a plain SELECT of the
// metadata table does — inside the transaction that imported the lane, and
// not in a transaction opened before another session's import.
func TestListShortReadsSeesStatementSnapshot(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`)
	src := filepath.Join(t.TempDir(), "lane.fastq")
	f, _ := os.Create(src)
	w := fastq.NewWriter(f)
	for i := 0; i < 10; i++ {
		w.Write(fastq.Record{Name: fmt.Sprintf("r%d", i), Seq: "ACGTACGT", Qual: "IIIIIIII"})
	}
	w.Flush()
	f.Close()
	lane := func(sample int64) map[string]sqltypes.Value {
		return map[string]sqltypes.Value{"sample": sqltypes.NewInt(sample), "lane": sqltypes.NewInt(1)}
	}
	count := func(s *core.Session, sql string) (int64, error) {
		res, err := s.Exec(sql)
		if err != nil {
			return 0, err
		}
		return res.Rows[0][0].I, nil
	}

	// Inside the importing transaction both see the new lane.
	writer := db.NewSession()
	if err := writer.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.ImportFileStream("ShortReadFiles", src, lane(1)); err != nil {
		t.Fatal(err)
	}
	if n, err := count(writer, `SELECT COUNT(*) FROM ShortReadFiles WHERE sample = 1`); err != nil || n != 1 {
		t.Fatalf("SELECT in the importing transaction: %d rows, %v", n, err)
	}
	if n, err := count(writer, `SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')`); err != nil || n != 10 {
		t.Fatalf("ListShortReads in the importing transaction: %d reads, %v", n, err)
	}
	if err := writer.Commit(); err != nil {
		t.Fatal(err)
	}

	// A transaction opened before another session's import sees neither.
	reader := db.NewSession()
	if err := reader.Begin(); err != nil {
		t.Fatal(err)
	}
	defer reader.Rollback()
	if _, err := db.NewSession().ImportFileStream("ShortReadFiles", src, lane(2)); err != nil {
		t.Fatal(err)
	}
	if n, err := count(reader, `SELECT COUNT(*) FROM ShortReadFiles WHERE sample = 2`); err != nil || n != 0 {
		t.Fatalf("SELECT in the older transaction: %d rows, %v", n, err)
	}
	if n, err := count(reader, `SELECT COUNT(*) FROM ListShortReads(2, 1, 'FastQ')`); err == nil {
		t.Fatalf("ListShortReads in the older transaction streamed %d reads of a lane it cannot see", n)
	}
}

func TestListShortReadsFasta(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`)
	src := filepath.Join(t.TempDir(), "ref.fasta")
	f, _ := os.Create(src)
	w := fastq.NewFastaWriter(f)
	w.Write(fastq.FastaRecord{Name: "chr1", Seq: strings.Repeat("ACGT", 40)})
	w.Write(fastq.FastaRecord{Name: "chr2", Seq: "GGGG"})
	w.Flush()
	f.Close()
	if _, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(1), "lane": sqltypes.NewInt(2),
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT read_name, LEN(seq) FROM ListShortReads(1, 2, 'Fasta')`)
	if len(res.Rows) != 2 || res.Rows[0][0].S != "chr1" || res.Rows[0][1].I != 160 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestListShortReadsSRF(t *testing.T) {
	// The paper's Section 5.3.1: SRF containers (reads + image-analysis
	// intensities) wrap as FileStreams exactly like FASTQ.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE ShortReadFiles (
	    guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`)
	ins := sequencer.NewInstrument("IL4", 12)
	srfRecs, err := ins.RunSRF(sequencer.DefaultFlowcell(1), 1, 900,
		[]string{"ACGTACGTACGT", "GGGGTTTTCCCC", "TTTTACGTAAAA"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(t.TempDir(), "lane.srf")
	f, _ := os.Create(src)
	if err := fastq.WriteSRF(f, srfRecs); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(900), "lane": sqltypes.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, `SELECT read_name, seq, quals, avg_intensity
	                          FROM ListShortReads(900, 1, 'SRF')`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for i, row := range res.Rows {
		if row[0].S != srfRecs[i].Name || row[1].S != srfRecs[i].Seq {
			t.Errorf("row %d = %v, want %q/%q", i, row, srfRecs[i].Name, srfRecs[i].Seq)
		}
		if row[3].K != sqltypes.KindFloat || row[3].F <= 0 || row[3].F != srfRecs[i].AvgIntensity() {
			t.Errorf("row %d avg_intensity = %v, want %v", i, row[3], srfRecs[i].AvgIntensity())
		}
	}
	// A pruned scan reads no intensity: COUNT(*) counts the records, and
	// read_name alone returns the names.
	if got := mustExec(t, db, `SELECT COUNT(*) FROM ListShortReads(900, 1, 'SRF')`).Rows[0][0].I; got != int64(len(srfRecs)) {
		t.Errorf("COUNT(*) over the SRF lane = %d, want %d", got, len(srfRecs))
	}
	names := mustExec(t, db, `SELECT read_name FROM ListShortReads(900, 1, 'SRF')`)
	if len(names.Rows) != len(srfRecs) {
		t.Fatalf("read_name rows = %v", names.Rows)
	}
	for i, row := range names.Rows {
		if len(row) != 1 || row[0].S != srfRecs[i].Name {
			t.Errorf("read_name row %d = %v, want %q", i, row, srfRecs[i].Name)
		}
	}
	// SRF rows aggregate like any table: mean signal over the lane.
	agg := mustExec(t, db, `SELECT AVG(avg_intensity), COUNT(*)
	                          FROM ListShortReads(900, 1, 'SRF')
	                         WHERE CHARINDEX('N', seq) = 0`)
	if agg.Rows[0][1].I == 0 {
		t.Error("no clean reads in SRF aggregate")
	}
	// A corrupt container, declaring a sequence of 2^64-1 bases, fails the
	// query.
	bad := filepath.Join(t.TempDir(), "bad.srf")
	if err := os.WriteFile(bad, []byte("SRF1\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportFileStream("ShortReadFiles", bad, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(901), "lane": sqltypes.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`SELECT COUNT(*) FROM ListShortReads(901, 1, 'SRF')`); err == nil {
		t.Error("a corrupt SRF FileStream was counted without an error")
	}
	// RunSRF's reads must exactly match Run's for the same seed.
	plain, err := ins.Run(sequencer.DefaultFlowcell(1), 1, 900,
		[]string{"ACGTACGTACGT", "GGGGTTTTCCCC", "TTTTACGTAAAA"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if plain[i] != srfRecs[i].Record() {
			t.Errorf("SRF read %d differs from plain run", i)
		}
	}
}

func TestPivotAlignmentTVF(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE a (pos BIGINT, seq VARCHAR(50), quals VARCHAR(50))`)
	mustExec(t, db, `INSERT INTO a VALUES (100, 'ACG', 'I5+')`)
	res := mustExec(t, db, `
	  SELECT position, base, qual FROM a CROSS APPLY PivotAlignment(pos, seq, quals) p`)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// 'I' = Q40, '5' = Q20, '+' = Q10.
	want := []struct {
		pos  int64
		base string
		qual int64
	}{{100, "A", 40}, {101, "C", 20}, {102, "G", 10}}
	for i, w := range want {
		r := res.Rows[i]
		if r[0].I != w.pos || r[1].S != w.base || r[2].I != w.qual {
			t.Errorf("row %d = %v, want %+v", i, r, w)
		}
	}
}

func TestQuery3PivotConsensusInSQL(t *testing.T) {
	// The full Query 3 shape from the paper: pivot, group by position with
	// CallBase, then assemble per chromosome.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignments (chromosome VARCHAR(10), pos BIGINT, seq VARCHAR(50), quals VARCHAR(50))`)
	q30 := func(n int) string { return strings.Repeat("?", n) } // '?' = Q30
	mustExec(t, db, fmt.Sprintf(`INSERT INTO Alignments VALUES
	  ('chr1', 0, 'ACGTA', '%s'),
	  ('chr1', 2, 'GTACG', '%s'),
	  ('chr1', 5, 'CGTAC', '%s'),
	  ('chr2', 0, 'TTTT', '%s')`,
		q30(5), q30(5), q30(5), q30(4)))
	res := mustExec(t, db, `
	  SELECT chromosome, AssembleSequence(position, b)
	    FROM (SELECT chromosome, position, CallBase(base, qual) AS b
	            FROM Alignments
	            CROSS APPLY PivotAlignment(pos, seq, quals) AS p
	           GROUP BY chromosome, position) t
	   GROUP BY chromosome
	   ORDER BY chromosome`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].S != "chr1" || res.Rows[0][1].S != "ACGTACGTAC" {
		t.Errorf("chr1 = %v", res.Rows[0])
	}
	if res.Rows[1][0].S != "chr2" || res.Rows[1][1].S != "TTTT" {
		t.Errorf("chr2 = %v", res.Rows[1])
	}
}

func TestQuery3SlidingWindowInSQL(t *testing.T) {
	// The optimized plan: alignments clustered by (chromosome id, pos),
	// stream-aggregated into AssembleConsensus without pivoting.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignment (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(100), quals VARCHAR(100),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	q30 := strings.Repeat("?", 5)
	mustExec(t, db, fmt.Sprintf(`INSERT INTO Alignment VALUES
	  (1, 0, 1, 'ACGTA', '%s'),
	  (1, 2, 2, 'GTACG', '%s'),
	  (1, 5, 3, 'CGTAC', '%s'),
	  (2, 0, 4, 'GGGG', '%s')`, q30, q30, q30, strings.Repeat("?", 4)))

	ex := mustExec(t, db, `EXPLAIN SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM Alignment GROUP BY a_g_id`)
	if !strings.Contains(ex.Plan, "Stream Aggregate") {
		t.Errorf("expected stream aggregate over clustered order, got:\n%s", ex.Plan)
	}
	res := mustExec(t, db, `
	  SELECT a_g_id, AssembleConsensus(a_pos, seq, quals)
	    FROM Alignment GROUP BY a_g_id ORDER BY a_g_id`)
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][1].S != "ACGTACGTAC" {
		t.Errorf("group 1 consensus = %v", res.Rows[0])
	}
	if res.Rows[1][1].S != "GGGG" {
		t.Errorf("group 2 consensus = %v", res.Rows[1])
	}
}

func TestSQLConsensusMatchesLibrary(t *testing.T) {
	// Property: the SQL pivot plan, the SQL sliding-window plan and the
	// library's direct implementations all agree on noisy data.
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignment (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(100), quals VARCHAR(100),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	reads := []consensus.AlignedRead{}
	rngSeqs := []string{"ACGTACGTAC", "CGTACGTACG", "GTACGTACGT"}
	id := 0
	var rows []sqltypes.Row
	for pos := 0; pos < 30; pos += 3 {
		s := rngSeqs[(pos/3)%3]
		q := strings.Repeat("?", len(s))
		reads = append(reads, consensus.AlignedRead{Chrom: "g1", Pos: pos, Seq: s, Qual: q})
		id++
		rows = append(rows, sqltypes.Row{
			sqltypes.NewInt(1), sqltypes.NewInt(int64(pos)), sqltypes.NewInt(int64(id)),
			sqltypes.NewString(s), sqltypes.NewString(q),
		})
	}
	if err := db.InsertRows("Alignment", rows); err != nil {
		t.Fatal(err)
	}
	caller := consensus.NewSlidingCaller()
	sort.Slice(reads, func(i, j int) bool { return reads[i].Pos < reads[j].Pos })
	for _, r := range reads {
		if err := caller.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	want := string(caller.Finish()[0].Seq)

	sql1 := mustExec(t, db, `
	  SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM Alignment GROUP BY a_g_id`)
	if sql1.Rows[0][1].S != want {
		t.Errorf("sliding SQL = %q, library = %q", sql1.Rows[0][1].S, want)
	}
	sql2 := mustExec(t, db, `
	  SELECT AssembleSequence(position, b)
	    FROM (SELECT position, CallBase(base, qual) AS b
	            FROM Alignment CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
	           GROUP BY position) t`)
	if sql2.Rows[0][0].S != want {
		t.Errorf("pivot SQL = %q, library = %q", sql2.Rows[0][0].S, want)
	}
}

func TestScalarUDFs(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE t (s VARCHAR(50), q VARCHAR(50))`)
	mustExec(t, db, `INSERT INTO t VALUES ('AACG', 'II!!')`)
	res := mustExec(t, db, `SELECT ReverseComplement(s), GCContent(s), AvgQuality(q) FROM t`)
	r := res.Rows[0]
	if r[0].S != "CGTT" {
		t.Errorf("revcomp = %v", r[0])
	}
	if r[1].F != 0.5 {
		t.Errorf("gc = %v", r[1])
	}
	if r[2].F != 20 { // (40+40+0+0)/4
		t.Errorf("avgq = %v", r[2])
	}
}

func TestCallBaseAggQualityWeighting(t *testing.T) {
	agg := &CallBaseAgg{}
	agg.Add([]sqltypes.Value{sqltypes.NewString("A"), sqltypes.NewInt(2)})
	agg.Add([]sqltypes.Value{sqltypes.NewString("A"), sqltypes.NewInt(2)})
	agg.Add([]sqltypes.Value{sqltypes.NewString("G"), sqltypes.NewInt(40)})
	v, err := agg.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v.S != "G" {
		t.Errorf("called %v, want G", v)
	}
	// Merge path.
	a1, a2 := &CallBaseAgg{}, &CallBaseAgg{}
	for i := 0; i < 3; i++ {
		a1.Add([]sqltypes.Value{sqltypes.NewString("T"), sqltypes.NewInt(30)})
		a2.Add([]sqltypes.Value{sqltypes.NewString("C"), sqltypes.NewInt(10)})
	}
	a1.Merge(a2)
	v, _ = a1.Result()
	if v.S != "T" {
		t.Errorf("merged call = %v", v)
	}
}

func TestAssembleConsensusRejectsUnordered(t *testing.T) {
	agg := NewAssembleConsensusAgg()
	agg.Add([]sqltypes.Value{sqltypes.NewInt(10), sqltypes.NewString("ACGT"), sqltypes.NewString("IIII")})
	if err := agg.Add([]sqltypes.Value{sqltypes.NewInt(5), sqltypes.NewString("ACGT"), sqltypes.NewString("IIII")}); err == nil {
		t.Error("unordered input accepted")
	}
}

func TestAssembleSequenceGapFill(t *testing.T) {
	agg := &AssembleSequenceAgg{}
	for _, e := range []struct {
		pos  int64
		base string
	}{{5, "A"}, {3, "G"}, {7, "T"}} {
		agg.Add([]sqltypes.Value{sqltypes.NewInt(e.pos), sqltypes.NewString(e.base)})
	}
	v, err := agg.Result()
	if err != nil {
		t.Fatal(err)
	}
	if v.S != "GNANT" {
		t.Errorf("assembled = %q", v.S)
	}
}

func TestCallBaseQ30Encoding(t *testing.T) {
	// Sanity: '?' is Phred+33 for Q30, used throughout these tests.
	if q := seq.Quality('?' - seq.PhredOffset); q != 30 {
		t.Fatalf("'?' = Q%d", q)
	}
}

// TestAssembleConsensusMissingQualities: a NULL or empty quals votes with
// Phred 30 on every base (what CallBase does for a missing quality) and
// does not fail the statement; a row without pos or seq is skipped.
func TestAssembleConsensusMissingQualities(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignment (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(100), quals VARCHAR(100),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	// At position 2 a 'T' without qualities (Phred 30) outvotes two Phred-2
	// 'G's ('#'), and in group 2 loses to a Phred-40 'G' ('I').
	mustExec(t, db, `INSERT INTO Alignment VALUES
	  (1, 0, 1, 'ACGTA', '??#??'),
	  (1, 2, 2, 'TTACG', NULL),
	  (1, 2, 3, 'G', '#'),
	  (1, 5, 4, 'CGTAC', ''),
	  (1, 6, 5, NULL, '???'),
	  (2, 0, 6, 'ACT', NULL),
	  (2, 2, 7, 'G', 'I')`)
	res := mustExec(t, db, `SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM Alignment GROUP BY a_g_id ORDER BY a_g_id`)
	if len(res.Rows) != 2 || res.Rows[0][1].S != "ACTTACGTAC" || res.Rows[1][1].S != "ACG" {
		t.Fatalf("consensus with missing qualities = %v", res.Rows)
	}
}

// TestAssembleConsensusErrorsNameTheGroup: a read the window cannot take
// fails the statement with the group's key, not a placeholder.
func TestAssembleConsensusErrorsNameTheGroup(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE Alignment (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(100), quals VARCHAR(100),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`)
	mustExec(t, db, `INSERT INTO Alignment VALUES (1, 0, 1, 'ACGTA', '?????'), (7, 3, 2, 'ACGT', '??')`)
	_, err := db.Exec(`SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM Alignment GROUP BY a_g_id`)
	if err == nil || !strings.Contains(err.Error(), "ASSEMBLECONSENSUS over group [7]") || !strings.Contains(err.Error(), "qual length 2 != seq length 4") {
		t.Errorf("length mismatch in group 7: error %v", err)
	}
	// A heap delivers the rows of a group in insertion order: unsorted.
	mustExec(t, db, `CREATE TABLE Loose (g VARCHAR(8), pos BIGINT, seq VARCHAR(100), quals VARCHAR(100))`)
	mustExec(t, db, `INSERT INTO Loose VALUES ('chrX', 10, 'ACGT', '????'), ('chrY', 1, 'AC', '??'), ('chrX', 5, 'ACGT', '????')`)
	_, err = db.Exec(`SELECT g, AssembleConsensus(pos, seq, quals) FROM Loose GROUP BY g`)
	if err == nil || !strings.Contains(err.Error(), "over group [chrX]") || !strings.Contains(err.Error(), "position 5 after 10") {
		t.Errorf("out-of-order read in group chrX: error %v", err)
	}
	if err != nil && strings.Contains(err.Error(), `"group"`) {
		t.Errorf("error still carries the placeholder group name: %v", err)
	}
}

// TestAggregateResultIsIdempotent: for every built-in and every aggregate
// this package registers, reading the result does not change the state —
// a second read and a read after merging in a fresh state return the same
// value.
func TestAggregateResultIsIdempotent(t *testing.T) {
	db := openTestDB(t)
	ints := func(vals ...int64) [][]sqltypes.Value {
		var rows [][]sqltypes.Value
		for _, v := range vals {
			rows = append(rows, []sqltypes.Value{sqltypes.NewInt(v)})
		}
		return append(rows, []sqltypes.Value{sqltypes.Null})
	}
	s := sqltypes.NewString
	for name, rows := range map[string][][]sqltypes.Value{
		"count": ints(4, 9, 2),
		"sum":   ints(4, 9, 2),
		"min":   ints(4, 9, 2),
		"max":   ints(4, 9, 2),
		"avg":   ints(4, 9, 2),
		"CallBase": {
			{s("A"), sqltypes.NewInt(30)}, {s("C"), sqltypes.NewInt(12)}, {s("A"), sqltypes.NewInt(2)},
		},
		"AssembleSequence": {
			{sqltypes.NewInt(7), s("T")}, {sqltypes.NewInt(3), s("G")}, {sqltypes.NewInt(3), s("C")}, {sqltypes.NewInt(5), s("A")},
		},
		"AssembleConsensus": {
			{sqltypes.NewInt(0), s("ACGTA"), s("?????")}, {sqltypes.NewInt(2), s("GTACG"), sqltypes.Null}, {sqltypes.NewInt(9), s("TT"), s("??")},
		},
	} {
		factory, ok := db.Agg(name)
		if !ok {
			t.Errorf("%s is not registered", name)
			continue
		}
		state := factory()
		for _, args := range rows {
			if err := state.Add(args); err != nil {
				t.Fatalf("%s: Add(%v): %v", name, args, err)
			}
		}
		first, err := state.Result()
		if err != nil || first.IsNull() {
			t.Fatalf("%s: Result = %v, %v", name, first, err)
		}
		if again, err := state.Result(); err != nil || fmt.Sprint(again) != fmt.Sprint(first) {
			t.Errorf("%s: second Result = %v, %v; the first was %v", name, again, err, first)
		}
		if err := state.Merge(factory()); err != nil {
			t.Errorf("%s: merging a fresh state: %v", name, err)
		}
		if after, err := state.Result(); err != nil || fmt.Sprint(after) != fmt.Sprint(first) {
			t.Errorf("%s: Result after merging a fresh state = %v, %v; the first was %v", name, after, err, first)
		}
	}
}

// TestQuery3FormsSkipNullAlignments: an alignment whose position or
// sequence is NULL counts in neither form of Query 3. AssembleConsensus
// skips the row; PivotAlignment expands it to no rows, so the pivot plan
// over the same table calls the same consensus.
func TestQuery3FormsSkipNullAlignments(t *testing.T) {
	db := openTestDB(t)
	mustExec(t, db, `CREATE TABLE A (g INT, p BIGINT, s VARCHAR(20), q VARCHAR(20))`)
	mustExec(t, db, `INSERT INTO A VALUES
	  (1, 0, 'ACGTA', '?????'),
	  (1, NULL, 'GGGGG', '?????'),
	  (1, 2, 'GTACG', '?????'),
	  (1, 3, NULL, NULL),
	  (1, 5, 'CGTAC', NULL)`)
	sliding := mustExec(t, db, `SELECT AssembleConsensus(p, s, q) FROM A GROUP BY g`)
	pivot := mustExec(t, db, `
	  SELECT AssembleSequence(position, b)
	    FROM (SELECT position, CallBase(base, qual) AS b
	            FROM A CROSS APPLY PivotAlignment(p, s, q) AS x
	           GROUP BY position) t`)
	if sliding.Rows[0][0].S != "ACGTACGTAC" || pivot.Rows[0][0].S != sliding.Rows[0][0].S {
		t.Errorf("sliding consensus %v, pivot consensus %v; want ACGTACGTAC from both", sliding.Rows, pivot.Rows)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM A CROSS APPLY PivotAlignment(p, s, q)`).Rows[0][0].I; n != 15 {
		t.Errorf("the pivot expanded %d bases, want the 15 of the three whole alignments", n)
	}
}

// importLane writes n FASTQ reads as the lane (sample, 1) of db's
// ShortReadFiles, creating the table on first use, and returns the lane's
// size in bytes.
func importLane(t testing.TB, db *core.Database, sample int64, n int) int {
	t.Helper()
	if db.Catalog().Get("ShortReadFiles") == nil {
		mustExec(t, db, `CREATE TABLE ShortReadFiles (guid UNIQUEIDENTIFIER, sample INT, lane INT, reads VARBINARY(MAX) FILESTREAM)`)
	}
	var lane bytes.Buffer
	w := fastq.NewWriter(&lane)
	for i := 0; i < n; i++ {
		w.Write(fastq.Record{Name: fmt.Sprintf("IL4_%d:1:1:%d", sample, i), Seq: strings.Repeat("ACGT", 9), Qual: strings.Repeat("I", 36)})
	}
	w.Flush()
	src := filepath.Join(t.TempDir(), "lane.fastq")
	if err := os.WriteFile(src, lane.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ImportFileStream("ShortReadFiles", src, map[string]sqltypes.Value{
		"sample": sqltypes.NewInt(sample), "lane": sqltypes.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
	return lane.Len()
}

// allocsPerRun measures what one call of f allocates, in objects and
// bytes, as the smallest of several runs.
func allocsPerRun(f func()) (objects, bytes uint64) {
	var before, after runtime.MemStats
	objects, bytes = ^uint64(0), ^uint64(0)
	for i := 0; i < 16; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects = min(objects, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// TestListShortReadsAllocationFloors pins the batch TVF's gain without a
// clock. The §5.2 statement, COUNT(*) over a lane of N reads, allocates per
// batch, not per read: under N/16 objects a statement, where packing each
// read into a row of three fresh strings cost about three a read. Its scan
// buffer and read-ahead window are the ones earlier statements gave back:
// under 256 KiB a statement, where a megabyte of each cost 1.9 MB. And a
// scan that reads every column copies each into one arena string per
// batch: reading them all costs, over reading none, at most three objects
// per column and batch (its arena, its string headers, and a share of the
// vectors' headers; reading a column a row at a time cost a string a row). The
// lane's own costs — its blob, its scan buffer, the arenas growing — are
// the same either way, or the same on a lane of N and one of 2N, and cancel.
func TestListShortReadsAllocationFloors(t *testing.T) {
	const n = 8192
	db := openTestDB(t)
	importLane(t, db, 1, n)
	importLane(t, db, 2, 2*n)
	objects, bytes := allocsPerRun(func() {
		if got := mustExec(t, db, `SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')`).Rows[0][0].I; got != n {
			t.Fatalf("counted %d reads, want %d", got, n)
		}
	})
	t.Logf("COUNT(*) over %d reads: %d allocations, %d bytes", n, objects, bytes)
	if objects >= n/16 {
		t.Errorf("COUNT(*) over %d reads: %d allocations, want under %d", n, objects, n/16)
	}
	if bytes >= 256<<10 {
		t.Errorf("COUNT(*) over %d reads: %d bytes, want under %d", n, bytes, 256<<10)
	}

	// scan drains ListShortReads(sample, 1, 'FastQ') reading the needed
	// columns.
	scan := func(sample int64, needed []bool) uint64 {
		objects, _ := allocsPerRun(func() {
			arg := func(v sqltypes.Value) *vec.Vector {
				c := vec.NewVector(sqltypes.KindNull, 1)
				c.Append(v)
				return c
			}
			args := []*vec.Vector{arg(sqltypes.NewInt(sample)), arg(sqltypes.NewInt(1)), arg(sqltypes.NewString("FastQ"))}
			it, err := (&ListShortReads{DB: db}).Open(&exec.Context{}, args, []int{0}, needed)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			for {
				b, err := it.NextBatch()
				if err != nil {
					t.Fatal(err)
				}
				if b == nil {
					return
				}
			}
		})
		return objects
	}
	none := make([]bool, 3)
	columns := func(sample int64) uint64 { return scan(sample, nil) - scan(sample, none) }
	c1, c2 := columns(1), columns(2)
	per := float64(c2-c1) / float64(n/vec.DefaultBatchSize)
	t.Logf("reading every column: %d more allocations over %d reads, %d over %d: %.1f a batch", c1, n, c2, 2*n, per)
	if per > 3*3 {
		t.Errorf("reading every column costs %.1f allocations a batch, want at most %d", per, 3*3)
	}
}

// TestConcurrentScansShareNoBuffer: statements scanning lanes at once
// each read their own reads, though every scan buffer and read-ahead
// window is one an earlier scan gave back. Lanes of more than one chunk
// page and read ahead while the other scans do.
func TestConcurrentScansShareNoBuffer(t *testing.T) {
	const n = 12000
	db := openTestDB(t)
	for sample := int64(1); sample <= 2; sample++ {
		if size := importLane(t, db, sample, n); size <= fastq.DefaultChunkSize {
			t.Fatalf("a lane of %d bytes fits one scan chunk", size)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(sample int64) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < 3; i++ {
				res, err := s.Exec(fmt.Sprintf(`SELECT COUNT(*) FROM ListShortReads(%d, 1, 'FastQ')`, sample))
				if err != nil || res.Rows[0][0].I != n {
					t.Errorf("lane %d: COUNT(*) = %v, %v; want %d", sample, res, err, n)
					return
				}
				res, err = s.Exec(fmt.Sprintf(`SELECT read_name FROM ListShortReads(%d, 1, 'FastQ')`, sample))
				if err != nil || len(res.Rows) != n {
					t.Errorf("lane %d: read_name: %v", sample, err)
					return
				}
				for r, row := range res.Rows {
					if want := fmt.Sprintf("IL4_%d:1:1:%d", sample, r); row[0].S != want {
						t.Errorf("lane %d: read %d is %q, want %q", sample, r, row[0].S, want)
						return
					}
				}
			}
		}(int64(g%2 + 1))
	}
	wg.Wait()
}

// BenchmarkListShortReadsCount is the §5.2 statement, COUNT(*) through
// ListShortReads, over a lane of more than two scan chunks, so that the
// scan pages and the stream reads ahead.
func BenchmarkListShortReadsCount(b *testing.B) {
	const n = 32768
	db := openTestDB(b)
	size := importLane(b, db, 1, n)
	if size <= 2*fastq.DefaultChunkSize {
		b.Fatalf("a lane of %d bytes fits two scan chunks", size)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mustExec(b, db, `SELECT COUNT(*) FROM ListShortReads(1, 1, 'FastQ')`).Rows[0][0].I; got != n {
			b.Fatalf("counted %d reads, want %d", got, n)
		}
	}
}
