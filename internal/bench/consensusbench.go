package bench

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/udf"
)

// ConsensusResult captures the Section 5.3.3 experiments: the parallel
// merge-join rate for retrieving sequences per alignment (Figure 10) and
// the pivot-vs-sliding-window consensus comparison.
type ConsensusResult struct {
	Alignments       int64
	MergeJoinElapsed time.Duration
	MergeJoinRate    float64 // alignments per second
	MergeJoinPlan    string
	// MergeJoinPoolStats is the buffer-pool activity of the measured
	// (warm) join run.
	MergeJoinPoolStats storage.PoolStats
	PivotElapsed       time.Duration
	SlidingElapsed     time.Duration
	SlidingPlan        string
	ConsensusMatch     bool
}

// ConsensusExperiment loads a re-sequencing dataset into clustered tables
// and runs the merge-join and consensus measurements.
func ConsensusExperiment(ds *ResequencingDataset, workDir string, dop int) (*ConsensusResult, error) {
	db, err := core.Open(filepath.Join(workDir, "consensusdb"), core.Options{DOP: dop})
	if err != nil {
		return nil, err
	}
	defer db.Close()
	udf.RegisterAll(db)

	// Physical design for the join (Figure 10): Read clustered by r_id,
	// Alignment clustered by its read id.
	if _, err := db.Exec(`CREATE TABLE [Read] (
	    r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`); err != nil {
		return nil, err
	}
	if _, err := db.Exec(`CREATE TABLE Alignment (
	    a_r_id BIGINT NOT NULL PRIMARY KEY CLUSTERED,
	    a_g_id INT, a_pos BIGINT, a_strand BIT, a_mapq INT)`); err != nil {
		return nil, err
	}
	readID := readIDResolver(ds.Reads)
	chromID := map[string]int64{}
	for i, c := range ds.Genome.Chroms {
		chromID[c.Name] = int64(i + 1)
	}
	readRows := make([]sqltypes.Row, len(ds.Reads))
	for i, r := range ds.Reads {
		readRows[i] = sqltypes.Row{
			sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(r.Seq), sqltypes.NewString(r.Qual),
		}
	}
	if err := insertBatches(db, "Read", readRows); err != nil {
		return nil, err
	}
	alignRows := make([]sqltypes.Row, 0, len(ds.Alignments))
	for _, a := range ds.Alignments {
		alignRows = append(alignRows, sqltypes.Row{
			sqltypes.NewInt(readID(a.ReadName)),
			sqltypes.NewInt(chromID[a.RefName]),
			sqltypes.NewInt(a.Pos),
			sqltypes.NewBool(a.Strand == '-'),
			sqltypes.NewInt(int64(a.MapQ)),
		})
	}
	if err := insertBatches(db, "Alignment", alignRows); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CHECKPOINT"); err != nil {
		return nil, err
	}

	res := &ConsensusResult{Alignments: int64(len(alignRows))}

	// Merge-join rate ("about 1.6 million alignments per second" on the
	// paper's box), measured with a warm buffer pool.
	joinSQL := `SELECT COUNT(*) FROM Alignment JOIN [Read] ON a_r_id = r_id`
	plan, err := db.Exec("EXPLAIN " + joinSQL)
	if err != nil {
		return nil, err
	}
	res.MergeJoinPlan = plan.Plan
	if _, err := db.Exec(joinSQL); err != nil { // warm the pool
		return nil, err
	}
	pool := poolTraffic(db)
	start := time.Now()
	jr, err := db.Exec(joinSQL)
	res.MergeJoinElapsed = time.Since(start)
	res.MergeJoinPoolStats = pool()
	if err != nil {
		return nil, err
	}
	if jr.Rows[0][0].I != res.Alignments {
		return nil, fmt.Errorf("bench: join produced %d rows, want %d", jr.Rows[0][0].I, res.Alignments)
	}
	res.MergeJoinRate = float64(res.Alignments) / res.MergeJoinElapsed.Seconds()

	// Consensus input: alignments with their sequences in position order
	// (clustered by chromosome, position).
	if _, err := db.Exec(`CREATE TABLE AlignmentSorted (
	    a_g_id INT NOT NULL, a_pos BIGINT NOT NULL, a_id BIGINT NOT NULL,
	    seq VARCHAR(300), quals VARCHAR(300),
	    PRIMARY KEY CLUSTERED (a_g_id, a_pos, a_id))`); err != nil {
		return nil, err
	}
	type sortedAlign struct {
		g    int64
		pos  int64
		seq  string
		qual string
	}
	sorted := make([]sortedAlign, 0, len(ds.Alignments))
	for _, a := range ds.Alignments {
		sorted = append(sorted, sortedAlign{chromID[a.RefName], a.Pos, a.Seq, a.Qual})
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].g != sorted[j].g {
			return sorted[i].g < sorted[j].g
		}
		return sorted[i].pos < sorted[j].pos
	})
	sortedRows := make([]sqltypes.Row, len(sorted))
	for i, a := range sorted {
		sortedRows[i] = sqltypes.Row{
			sqltypes.NewInt(a.g), sqltypes.NewInt(a.pos), sqltypes.NewInt(int64(i + 1)),
			sqltypes.NewString(a.seq), sqltypes.NewString(a.qual),
		}
	}
	if err := insertBatches(db, "AlignmentSorted", sortedRows); err != nil {
		return nil, err
	}
	if _, err := db.Exec("CHECKPOINT"); err != nil {
		return nil, err
	}

	// Pivot plan (Query 3 as written): expand every alignment into
	// per-base rows, hash-group by position, call, assemble.
	pivotSQL := `
	  SELECT a_g_id, AssembleSequence(position, b)
	    FROM (SELECT a_g_id, position, CallBase(base, qual) AS b
	            FROM AlignmentSorted
	            CROSS APPLY PivotAlignment(a_pos, seq, quals) AS p
	           GROUP BY a_g_id, position) t
	   GROUP BY a_g_id`
	start = time.Now()
	pres, err := db.Exec(pivotSQL)
	res.PivotElapsed = time.Since(start)
	if err != nil {
		return nil, err
	}

	// Sliding-window plan: stream aggregate over the clustered order with
	// the AssembleConsensus UDA - no pivot, no blocking sort.
	slidingSQL := `
	  SELECT a_g_id, AssembleConsensus(a_pos, seq, quals)
	    FROM AlignmentSorted
	   GROUP BY a_g_id`
	plan, err = db.Exec("EXPLAIN " + slidingSQL)
	if err != nil {
		return nil, err
	}
	res.SlidingPlan = plan.Plan
	start = time.Now()
	sres, err := db.Exec(slidingSQL)
	res.SlidingElapsed = time.Since(start)
	if err != nil {
		return nil, err
	}

	// Both plans must produce identical consensus strings.
	res.ConsensusMatch = consensusEqual(pres.Rows, sres.Rows)
	if !res.ConsensusMatch {
		return res, fmt.Errorf("bench: pivot and sliding-window consensus differ")
	}
	return res, nil
}

func consensusEqual(a, b []sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(rows []sqltypes.Row) map[int64]string {
		m := make(map[int64]string, len(rows))
		for _, r := range rows {
			m[r[0].I] = r[1].S
		}
		return m
	}
	am, bm := key(a), key(b)
	if len(am) != len(bm) {
		return false
	}
	for k, v := range am {
		if bm[k] != v {
			return false
		}
	}
	return true
}
