package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/sqltypes"
)

// The lab database: one directory holding both lanes in the physical
// designs the paper's queries need. Every workload loads the same schema;
// workloads differ in pool size, budgets, concurrency and statement mix.
var labSchema = []string{
	// DGE lane, heap (columnar pages after CHECKPOINT): Query 1's input.
	`CREATE TABLE [Read] (r_id BIGINT, fc_id INT, lane INT, tile INT, x INT, y INT,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`,
	// The DGE lane again as the file the sequencer wrote (paper section 5.2).
	`CREATE TABLE ShortReadFiles (guid UNIQUEIDENTIFIER, sample INT, lane INT,
	    reads VARBINARY(MAX) FILESTREAM)`,
	// Re-sequencing lane, clustered for the merge join of Fig. 10 ...
	`CREATE TABLE ReseqRead (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`,
	`CREATE TABLE Alignment (a_r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`,
	// ... as heaps for the hash join, index lookups and scans ...
	`CREATE TABLE ReadHeap (r_id BIGINT, short_read_seq VARCHAR(300), quals VARCHAR(300))`,
	`CREATE TABLE AlignHeap (a_r_id BIGINT, a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`,
	// ... and in position order with sequences, Query 3's input.
	`CREATE TABLE AlignmentSorted (a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(300), quals VARCHAR(300), PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`,
	// Target of the write path. The engine refuses secondary indexes on
	// clustered tables, so the primary key is Ingest's only index.
	`CREATE TABLE Ingest (r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED, lane INT,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`,
}

var labIndexes = []string{
	`CREATE INDEX idx_apos ON AlignHeap(a_pos)`,
}

const (
	// query1 is the paper's Query 1, verbatim.
	query1 = `SELECT ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC) AS rank, COUNT(*) AS freq, short_read_seq
  FROM [Read] WHERE CHARINDEX('N', short_read_seq) = 0 GROUP BY short_read_seq`
	// writerPosBase keeps every row mixed's writer inserts outside every
	// read predicate, so expected answers stay fixed while the table grows.
	writerPosBase = 10_000_000
)

// stmt is one pre-built statement text with the check of its answer.
type stmt struct {
	sql   string
	check func(*core.Result) error
}

// kind is a statement kind with its parameter variants, used round-robin.
type kind struct {
	name  string
	stmts []stmt
	next  int
}

func (k *kind) take() stmt {
	s := k.stmts[k.next%len(k.stmts)]
	k.next++
	return s
}

// The read cycle is three blocks a workload repeats by its weights, then
// on every third cycle the spill block. Multiplicities inside a block are
// fixed. The sort and aggregate spills have no latency metric of their
// own and run that seldom whatever the weights: in reseq_cold agg_spill
// opens 32 temp files and sort_spill a few more, and on ext4 the cost of
// creating a file rises with the number deleted in the last minutes, so
// at three times per cycle they were two thirds of the cycle's temp files
// and hash_join_ms, which then created 14, climbed by 30 % over ten
// consecutive runs (README, baselines).
var (
	dgeBlock    = []string{"q1_bin", "scan", "scan", "seq_eq", "topn", "fs_scan", "fs_scan"}
	reseqBlock  = []string{"merge_join", "hash_join", "consensus", "pivot"}
	spillBlock  = []string{"sort_spill", "agg_spill"}
	lookupBlock = func() []string {
		b := []string{"pk_lookup"}
		for i := 0; i < 20; i++ {
			b = append(b, "idx_lookup")
		}
		return append(b, "range", "range", "wscan")
	}()
)

// lab is everything a run prepares before any clock starts: the rows to
// load, every statement text, and the expected answer of each, computed
// here from the generated lanes and never read back from the engine.
type lab struct {
	ln *lanes
	sc scale

	fastqPath string // the DGE lane file ImportFileStream reads
	dgeRows   []sqltypes.Row
	reseqRows []sqltypes.Row
	alignRows []sqltypes.Row
	sorted    []sqltypes.Row

	uniqueTags int // distinct DGE reads without an N: Query 1's row count

	kinds map[string]*kind
	rng   *rand.Rand
}

func newLab(ln *lanes, sc scale, workDir string) (*lab, error) {
	lb := &lab{ln: ln, sc: sc, kinds: map[string]*kind{}, rng: rand.New(rand.NewSource(ln.Seed + 100))}
	lb.fastqPath = filepath.Join(workDir, "lane.fastq")
	if err := os.WriteFile(lb.fastqPath, ln.DGEFASTQ, 0o644); err != nil {
		return nil, err
	}
	if err := lb.buildDGE(); err != nil {
		return nil, err
	}
	if err := lb.buildReseq(); err != nil {
		return nil, err
	}
	return lb, nil
}

func (lb *lab) add(name string, stmts ...stmt) {
	lb.kinds[name] = &kind{name: name, stmts: stmts}
}

func expectCount(want int64) func(*core.Result) error {
	return func(r *core.Result) error {
		if len(r.Rows) != 1 || len(r.Rows[0]) != 1 || r.Rows[0][0].I != want {
			return fmt.Errorf("got %v, want one row [%d]", r.Rows, want)
		}
		return nil
	}
}

// parseReadName splits machine_run:flowcell:lane:tile:x:y.
func parseReadName(name string) (fc, lane, tile, x, y int64, err error) {
	parts := strings.Split(name, ":")
	if len(parts) != 6 {
		return 0, 0, 0, 0, 0, fmt.Errorf("read name %q: want 6 fields", name)
	}
	var n [5]int64
	for i, p := range parts[1:] {
		if n[i], err = strconv.ParseInt(p, 10, 64); err != nil {
			return 0, 0, 0, 0, 0, fmt.Errorf("read name %q: %w", name, err)
		}
	}
	return n[0], n[1], n[2], n[3], n[4], nil
}

func (lb *lab) buildDGE() error {
	reads := lb.ln.DGEReads
	type cluster struct{ tile, x, y int64 }
	clusters := make([]cluster, len(reads))
	tagFreq := map[string]int64{} // Query 1: reads without an N
	seqFreq := map[string]int64{}
	lb.dgeRows = make([]sqltypes.Row, len(reads))
	for i, r := range reads {
		fc, lane, tile, x, y, err := parseReadName(r.Name)
		if err != nil {
			return err
		}
		clusters[i] = cluster{tile, x, y}
		seqFreq[r.Seq]++
		if !strings.Contains(r.Seq, "N") {
			tagFreq[r.Seq]++
		}
		lb.dgeRows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)), sqltypes.NewInt(fc), sqltypes.NewInt(lane),
			sqltypes.NewInt(tile), sqltypes.NewInt(x), sqltypes.NewInt(y),
			sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual),
		}
	}

	lb.uniqueTags = len(tagFreq)
	lb.add("q1_bin", stmt{query1, func(r *core.Result) error {
		if len(r.Rows) != len(tagFreq) {
			return fmt.Errorf("%d unique tags, want %d", len(r.Rows), len(tagFreq))
		}
		prev := int64(1) << 62
		for i, row := range r.Rows {
			rank, freq, seq := row[0].I, row[1].I, row[2].S
			if rank != int64(i+1) || freq != tagFreq[seq] || freq > prev {
				return fmt.Errorf("row %d = (%d, %d, %s), want rank %d, freq %d, no larger than %d",
					i, rank, freq, seq, i+1, tagFreq[seq], prev)
			}
			prev = freq
		}
		return nil
	}})

	var scans []stmt
	for i := 0; i < 32; i++ {
		c := clusters[lb.rng.Intn(len(clusters))]
		xmax := c.x + 1 + int64(lb.rng.Intn(200))
		var want int64
		for _, o := range clusters {
			if o.tile == c.tile && o.x < xmax {
				want++
			}
		}
		scans = append(scans, stmt{
			fmt.Sprintf("SELECT COUNT(*) FROM [Read] WHERE tile = %d AND x < %d", c.tile, xmax),
			expectCount(want),
		})
	}
	lb.add("scan", scans...)

	var eqs []stmt
	for i := 0; i < 32; i++ {
		s := reads[lb.rng.Intn(len(reads))].Seq
		eqs = append(eqs, stmt{
			fmt.Sprintf("SELECT COUNT(*) FROM [Read] WHERE short_read_seq = '%s'", s),
			expectCount(seqFreq[s]),
		})
	}
	lb.add("seq_eq", eqs...)

	var tops []stmt
	for _, col := range []string{"x", "y"} {
		vals := make([]int64, len(clusters))
		for i, c := range clusters {
			vals[i] = c.x
			if col == "y" {
				vals[i] = c.y
			}
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
		want := vals[:min(10, len(vals))]
		tops = append(tops, stmt{
			fmt.Sprintf("SELECT TOP 10 r_id, %s FROM [Read] ORDER BY %s DESC", col, col),
			func(r *core.Result) error {
				if len(r.Rows) != len(want) {
					return fmt.Errorf("%d rows, want %d", len(r.Rows), len(want))
				}
				for i, row := range r.Rows {
					if row[1].I != want[i] { // ties make r_id ambiguous; the ordered values are not
						return fmt.Errorf("row %d value %d, want %d", i, row[1].I, want[i])
					}
				}
				return nil
			},
		})
	}
	lb.add("topn", tops...)

	lb.add("fs_scan", stmt{
		"SELECT COUNT(*) FROM ListShortReads(855, 1, 'FastQ')",
		expectCount(int64(len(reads))),
	})
	return nil
}

func (lb *lab) buildReseq() error {
	ln := lb.ln
	readID := make(map[string]int64, len(ln.ReseqReads))
	lb.reseqRows = make([]sqltypes.Row, len(ln.ReseqReads))
	for i, r := range ln.ReseqReads {
		readID[r.Name] = int64(i + 1)
		lb.reseqRows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)), sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual),
		}
	}
	chromID := make(map[string]int64, len(ln.Chroms))
	for i, c := range ln.Chroms {
		chromID[c] = int64(i + 1)
	}

	n := len(ln.Aligns)
	if n < 2*lb.sc.PivotAlignments {
		return fmt.Errorf("only %d alignments; the lane is too small for this scale", n)
	}
	var mapqOver10 int64
	posCount := map[int64]int64{}
	positions := make([]int64, n)
	byPos := make([]fastq.AlignmentRecord, n)
	copy(byPos, ln.Aligns)
	lb.alignRows = make([]sqltypes.Row, n)
	for i, a := range ln.Aligns {
		id, ok := readID[a.ReadName]
		if !ok || chromID[a.RefName] == 0 {
			return fmt.Errorf("alignment %d names unknown read %q or reference %q", i, a.ReadName, a.RefName)
		}
		if a.MapQ > 10 {
			mapqOver10++
		}
		posCount[a.Pos]++
		positions[i] = a.Pos
		lb.alignRows[i] = sqltypes.Row{
			sqltypes.NewInt(id), sqltypes.NewInt(chromID[a.RefName]), sqltypes.NewInt(a.Pos),
			sqltypes.NewBool(a.Strand == '-'), sqltypes.NewInt(int64(a.MapQ)),
		}
	}
	sort.Slice(positions, func(i, j int) bool { return positions[i] < positions[j] })
	sort.SliceStable(byPos, func(i, j int) bool {
		gi, gj := chromID[byPos[i].RefName], chromID[byPos[j].RefName]
		if gi != gj {
			return gi < gj
		}
		return byPos[i].Pos < byPos[j].Pos
	})
	lb.sorted = make([]sqltypes.Row, n)
	for i, a := range byPos {
		lb.sorted[i] = sqltypes.Row{
			sqltypes.NewInt(chromID[a.RefName]), sqltypes.NewInt(a.Pos), sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(a.Seq), sqltypes.NewString(a.Qual),
		}
	}

	lb.add("merge_join", stmt{
		"SELECT COUNT(*) FROM Alignment JOIN ReseqRead ON a_r_id = r_id", expectCount(int64(n)),
	})
	lb.add("hash_join", stmt{
		"SELECT COUNT(*) FROM AlignHeap JOIN ReadHeap ON a_r_id = r_id WHERE a_mapq > 10",
		expectCount(mapqOver10),
	})
	lb.add("wscan", stmt{"SELECT COUNT(*) FROM AlignHeap WHERE a_mapq > 10", expectCount(mapqOver10)})

	// Query 3 as optimised. The engine runs the sliding window; the
	// expected strings come from the other algorithm, the pivot.
	aligned := make([]consensus.AlignedRead, n)
	for i, a := range byPos {
		aligned[i] = consensus.AlignedRead{Chrom: a.RefName, Pos: int(a.Pos), Seq: a.Seq, Qual: a.Qual}
	}
	called, err := consensus.CallPivot(aligned)
	if err != nil {
		return err
	}
	wantSeq := map[int64]string{}
	for _, c := range called {
		wantSeq[chromID[c.Chrom]] = string(c.Seq)
	}
	lb.add("consensus", stmt{
		"SELECT a_g_id, AssembleConsensus(a_pos, seq, quals) FROM AlignmentSorted GROUP BY a_g_id",
		func(r *core.Result) error {
			if len(r.Rows) != len(wantSeq) {
				return fmt.Errorf("%d chromosomes, want %d", len(r.Rows), len(wantSeq))
			}
			for _, row := range r.Rows {
				if row[1].S != wantSeq[row[0].I] {
					return fmt.Errorf("consensus of chromosome %d differs from the pivot oracle", row[0].I)
				}
			}
			return nil
		},
	})

	// Query 3 as written, over the first PivotAlignments alignments of
	// chromosome 1, so the expanded row count is the same for every seed.
	// Expected string: the sliding window over the same alignments.
	limit := byPos[lb.sc.PivotAlignments].Pos
	if chromID[byPos[lb.sc.PivotAlignments].RefName] != 1 {
		return fmt.Errorf("chromosome 1 has fewer than %d alignments", lb.sc.PivotAlignments)
	}
	caller := consensus.NewSlidingCaller()
	for _, a := range aligned {
		if chromID[a.Chrom] == 1 && int64(a.Pos) < limit {
			if err := caller.Add(a); err != nil {
				return err
			}
		}
	}
	region := caller.Finish()
	if len(region) != 1 {
		return fmt.Errorf("pivot oracle produced %d spans", len(region))
	}
	wantRegion := string(region[0].Seq)
	lb.add("pivot", stmt{
		fmt.Sprintf(`SELECT a_g_id, AssembleSequence(position, b)
  FROM (SELECT a_g_id, position, CallBase(base, qual) AS b
          FROM AlignmentSorted CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
         WHERE a_g_id = 1 AND a_pos < %d
         GROUP BY a_g_id, position) t
 GROUP BY a_g_id`, limit),
		func(r *core.Result) error {
			if len(r.Rows) != 1 || r.Rows[0][0].I != 1 || r.Rows[0][1].S != wantRegion {
				return fmt.Errorf("pivot consensus of chromosome 1 below %d differs from the sliding-window oracle", limit)
			}
			return nil
		},
	})

	maxPos := positions[n-1]
	lb.add("sort_spill", stmt{
		fmt.Sprintf("SELECT a_pos, ROW_NUMBER() OVER (ORDER BY a_pos DESC) AS rn FROM AlignHeap WHERE a_pos < %d", writerPosBase),
		func(r *core.Result) error {
			if len(r.Rows) != n {
				return fmt.Errorf("%d rows, want %d", len(r.Rows), n)
			}
			first, last := r.Rows[0], r.Rows[n-1]
			if first[0].I != maxPos || first[1].I != 1 || last[0].I != positions[0] || last[1].I != int64(n) {
				return fmt.Errorf("ends (%d,%d)..(%d,%d), want (%d,1)..(%d,%d)",
					first[0].I, first[1].I, last[0].I, last[1].I, maxPos, positions[0], n)
			}
			return nil
		},
	})

	lb.add("agg_spill", stmt{
		fmt.Sprintf("SELECT COUNT(*) FROM (SELECT a_pos, COUNT(*) AS n FROM AlignHeap WHERE a_pos < %d GROUP BY a_pos) t", writerPosBase),
		expectCount(int64(len(posCount))),
	})

	var pks, idxs, ranges []stmt
	for i := 0; i < 64; i++ {
		id := lb.rng.Intn(len(ln.ReseqReads))
		want := ln.ReseqReads[id].Seq
		pks = append(pks, stmt{
			fmt.Sprintf("SELECT short_read_seq FROM ReseqRead WHERE r_id = %d", id+1),
			func(r *core.Result) error {
				if len(r.Rows) != 1 || r.Rows[0][0].S != want {
					return fmt.Errorf("got %v, want [%s]", r.Rows, want)
				}
				return nil
			},
		})
	}
	for i := 0; i < 256; i++ {
		p := positions[lb.rng.Intn(n)]
		idxs = append(idxs, stmt{
			fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos = %d", p), expectCount(posCount[p]),
		})
	}
	for i := 0; i < 64; i++ {
		lo := positions[lb.rng.Intn(n)]
		hi := lo + 200
		from := sort.Search(n, func(j int) bool { return positions[j] >= lo })
		to := sort.Search(n, func(j int) bool { return positions[j] > hi })
		ranges = append(ranges, stmt{
			fmt.Sprintf("SELECT COUNT(*) FROM AlignHeap WHERE a_pos >= %d AND a_pos <= %d", lo, hi),
			expectCount(int64(to - from)),
		})
	}
	lb.add("pk_lookup", pks...)
	lb.add("idx_lookup", idxs...)
	lb.add("range", ranges...)
	return nil
}

// ingestRow is one row of an Ingest transaction and the bytes it would
// take in a FASTQ file.
type ingestRow struct {
	id        int64
	seq, qual string
}

// ingestTxn is one pre-built 64-row INSERT for the Ingest table.
type ingestTxn struct {
	sql       string
	rows      []ingestRow
	userBytes int64
}

const ingestRowsPerTxn = 64

// buildIngestTxns pre-builds count transactions whose ids start at base.
// Sequences and qualities cycle through the re-sequencing lane.
func (lb *lab) buildIngestTxns(base int64, count int) []ingestTxn {
	reads := lb.ln.ReseqReads
	out := make([]ingestTxn, count)
	var sb strings.Builder
	for t := range out {
		sb.Reset()
		sb.WriteString("INSERT INTO Ingest VALUES ")
		rows := make([]ingestRow, ingestRowsPerTxn)
		var user int64
		for j := range rows {
			id := base + int64(t*ingestRowsPerTxn+j)
			r := reads[int(id)%len(reads)]
			rows[j] = ingestRow{id, r.Seq, r.Qual}
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,'%s','%s')", id, id%8+1, r.Seq, strings.ReplaceAll(r.Qual, "'", "''"))
			user += int64(len(r.Name) + len(r.Seq) + len(r.Qual) + 6) // @name\nseq\n+\nqual\n
		}
		out[t] = ingestTxn{sql: sb.String(), rows: rows, userBytes: user}
	}
	return out
}
