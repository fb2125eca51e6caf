package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"time"

	"repro/internal/blob"
	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/fastq"
	"repro/internal/script"
	"repro/internal/sqlparse"
	"repro/internal/sqltypes"
	"repro/internal/storage"
	"repro/internal/wal"
)

// The probes time one layer alone, through its public functions, on the
// workload's own data. They run in the traced pass after the measured
// phase, in scratch files under dir.

// timeEach returns the median seconds of reps calls of f.
func timeEach(reps int, f func() error) (float64, error) {
	ds := make([]float64, reps)
	for i := range ds {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = time.Since(t).Seconds()
	}
	return median(ds), nil
}

func probeSqlparse(lb *lab, out map[string]float64) error {
	idx := lb.kinds["idx_lookup"].stmts
	i := 0
	s, err := timeEach(2000, func() error {
		_, err := sqlparse.Parse(idx[i%len(idx)].sql)
		i++
		return err
	})
	if err != nil {
		return err
	}
	out["sqlparse.parse_us.idx_lookup"] = s * 1e6
	txns := lb.buildIngestTxns(1, 8)
	i = 0
	s, err = timeEach(200, func() error {
		_, err := sqlparse.Parse(txns[i%len(txns)].sql)
		i++
		return err
	})
	out["sqlparse.parse_us.insert64"] = s * 1e6
	return err
}

// estActual matches the scan and join nodes of EXPLAIN ANALYZE. Exchange
// nodes are display-only and report actual=0, so they are left out.
var estActual = regexp.MustCompile(`(?:Scan \[|Join\)).*\(est=(\d+) rows, actual=(\d+) rows`)

// qError runs EXPLAIN ANALYZE and returns the worst ratio between a scan
// or join node's estimated and actual row count, whichever way it is off.
func qError(db *core.Database, sql string) (float64, error) {
	res, err := db.Exec("EXPLAIN ANALYZE " + sql)
	if err != nil {
		return 0, err
	}
	worst := 1.0
	for _, m := range estActual.FindAllStringSubmatch(res.Plan, -1) {
		est, _ := strconv.ParseFloat(m[1], 64)
		act, _ := strconv.ParseFloat(m[2], 64)
		est, act = max(est, 1), max(act, 1) // an empty side counts as one row
		worst = max(worst, est/act, act/est)
	}
	return worst, nil
}

func probePlanner(db *core.Database, lb *lab, out map[string]float64) error {
	for _, k := range []string{"range", "hash_join"} {
		stmts := lb.kinds[k].stmts
		qs := make([]float64, 0, 8)
		for i := 0; i < min(8, len(stmts)); i++ {
			q, err := qError(db, stmts[i].sql)
			if err != nil {
				return fmt.Errorf("EXPLAIN ANALYZE %s: %w", k, err)
			}
			qs = append(qs, q)
		}
		out["plan.qerror."+k] = median(qs)
	}
	return nil
}

func probeHeapScan(db *core.Database, out map[string]float64) error {
	size, err := db.TableSizeBytes("Read")
	if err != nil {
		return err
	}
	s, err := timeEach(5, func() error {
		return db.ScanTableNoLock("Read", func(sqltypes.Row) error { return nil })
	})
	out["storage.heap_scan_mb_per_s"] = float64(size) / 1e6 / s
	return err
}

// probeCompression is the paper's Table 1 for the [Read] table: the DGE
// lane stored under each DATA_COMPRESSION setting, per byte of its FASTQ.
func probeCompression(dir string, lb *lab, out map[string]float64) error {
	db, err := core.Open(filepath.Join(dir, "compression"), core.Options{DOP: 1})
	if err != nil {
		return err
	}
	defer db.Close()
	cols := `(r_id BIGINT, fc_id INT, lane INT, tile INT, x INT, y INT,
	    short_read_seq VARCHAR(300), quals VARCHAR(300))`
	for _, v := range []struct{ name, with string }{
		{"none", ""}, {"row", " WITH (DATA_COMPRESSION = ROW)"}, {"page", " WITH (DATA_COMPRESSION = PAGE)"},
	} {
		table := "Read_" + v.name
		if _, err := db.Exec("CREATE TABLE " + table + " " + cols + v.with); err != nil {
			return err
		}
		for lo := 0; lo < len(lb.dgeRows); lo += loadBatch {
			if err := db.InsertRows(table, lb.dgeRows[lo:min(lo+loadBatch, len(lb.dgeRows))]); err != nil {
				return err
			}
		}
		if err := db.Checkpoint(); err != nil {
			return err
		}
		size, err := db.TableSizeBytes(table)
		if err != nil {
			return err
		}
		out["storage.bytes_per_user_byte."+v.name] = float64(size) / float64(len(lb.ln.DGEFASTQ))
	}
	return nil
}

// probeBtree builds a standalone tree over the workload's index keys
// (a_pos, row number): bulk load, point gets, one full leaf walk.
func probeBtree(dir string, lb *lab, out map[string]float64) error {
	keys := make([][]byte, len(lb.alignRows))
	for i, row := range lb.alignRows {
		k, err := btree.AppendKey(nil, sqltypes.Row{row[2], sqltypes.NewInt(int64(i))})
		if err != nil {
			return err
		}
		keys[i] = k
	}
	sort.Slice(keys, func(a, b int) bool { return bytes.Compare(keys[a], keys[b]) < 0 })
	pool := storage.NewBufferPool(4096)
	i := 0
	start := time.Now()
	tree, err := btree.BulkLoad(filepath.Join(dir, "probe.btree"), pool, func() ([]byte, []byte, bool, error) {
		if i == len(keys) {
			return nil, nil, false, nil
		}
		i++
		return keys[i-1], nil, true, nil
	})
	if err != nil {
		return err
	}
	defer tree.Close()
	out["btree.bulkload_keys_per_s"] = float64(len(keys)) / time.Since(start).Seconds()

	i = 0
	s, err := timeEach(5000, func() error {
		_, ok, err := tree.Get(keys[(i*7919)%len(keys)])
		i++
		if err == nil && !ok {
			err = fmt.Errorf("btree probe: key not found")
		}
		return err
	})
	if err != nil {
		return err
	}
	out["btree.get_us"] = s * 1e6

	start = time.Now()
	it, err := tree.Seek(nil, nil)
	if err != nil {
		return err
	}
	n := 0
	for it.Next() {
		n++
	}
	err = it.Err()
	it.Close()
	if err == nil && n != len(keys) {
		err = fmt.Errorf("btree probe: walked %d keys, want %d", n, len(keys))
	}
	out["btree.seek_next_ns"] = float64(time.Since(start).Nanoseconds()) / float64(max(n, 1))
	return err
}

// probeWAL appends records the size of a 64-row Ingest transaction's row
// images and flushes once per transaction, as a lone committer would.
func probeWAL(dir string, lb *lab, out map[string]float64) error {
	w, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	defer w.Close()
	r := lb.ln.ReseqReads[0]
	img := make([]byte, 8+4+len(r.Seq)+len(r.Qual)+8) // roughly one Ingest row image
	const txns = 200
	appends := make([]float64, 0, txns*ingestRowsPerTxn)
	flushes := make([]float64, 0, txns)
	for t := 0; t < txns; t++ {
		for j := 0; j < ingestRowsPerTxn; j++ {
			start := time.Now()
			if err := w.Append(wal.Record{Type: wal.RecInsert, Txn: uint64(t + 1), Table: 1, RowIndex: int64(j), Data: img}); err != nil {
				return err
			}
			appends = append(appends, float64(time.Since(start).Nanoseconds()))
		}
		if err := w.Append(wal.Record{Type: wal.RecCommit, Txn: uint64(t + 1)}); err != nil {
			return err
		}
		start := time.Now()
		if err := w.Flush(); err != nil {
			return err
		}
		flushes = append(flushes, float64(time.Since(start).Nanoseconds())/1e3)
	}
	out["wal.append_ns"] = median(appends)
	out["wal.flush_us"] = median(flushes)
	return nil
}

func probeBlob(dir string, lb *lab, out map[string]float64) error {
	store, err := blob.OpenStore(filepath.Join(dir, "probe.blobs"))
	if err != nil {
		return err
	}
	mb := float64(len(lb.ln.DGEFASTQ)) / 1e6
	var guids []string
	s, err := timeEach(5, func() error {
		g := blob.NewGUID()
		guids = append(guids, g)
		_, err := store.CreateFromFile(g, lb.fastqPath)
		return err
	})
	if err != nil {
		return err
	}
	out["blob.import_mb_per_s"] = mb / s
	buf := make([]byte, 1<<20)
	s, err = timeEach(5, func() error {
		st, err := store.Open(guids[0])
		if err != nil {
			return err
		}
		defer st.Close()
		st.SetSequential(true)
		var off int64
		for off < st.Size() {
			n, err := st.GetBytes(off, buf)
			off += int64(n)
			if err == io.EOF || n == 0 {
				break
			}
			if err != nil {
				return err
			}
		}
		if off != int64(len(lb.ln.DGEFASTQ)) {
			return fmt.Errorf("blob probe: read %d bytes, want %d", off, len(lb.ln.DGEFASTQ))
		}
		return nil
	})
	out["blob.read_mb_per_s"] = mb / s
	return err
}

func probeFastq(lb *lab, out map[string]float64) error {
	data := lb.ln.DGEFASTQ
	s, err := timeEach(5, func() error {
		sc := fastq.NewChunkedScanner(fastq.SourceFromReaderAt(bytes.NewReader(data)), fastq.FASTQEntry, 0)
		for sc.MoveNext() {
		}
		if sc.Err() == nil && sc.Entries != int64(len(lb.ln.DGEReads)) {
			return fmt.Errorf("fastq probe: %d entries, want %d", sc.Entries, len(lb.ln.DGEReads))
		}
		return sc.Err()
	})
	out["fastq.parse_mb_per_s"] = float64(len(data)) / 1e6 / s
	return err
}

// probeScript is the paper's section 5.3.2 baseline for q1_bin_ms: the
// sequential script over the lane file, interpreted (Perl-style) and
// compiled.
func probeScript(lb *lab, out map[string]float64) error {
	trace, nInterp, err := script.BinUniqueReadsInterpreted(bytes.NewReader(lb.ln.DGEFASTQ), io.Discard)
	if err != nil {
		return err
	}
	out["script.q1_interpreted_ms"] = trace.Total.Seconds() * 1e3
	trace, nCompiled, err := script.BinUniqueReads(bytes.NewReader(lb.ln.DGEFASTQ), io.Discard)
	if err != nil {
		return err
	}
	out["script.q1_compiled_ms"] = trace.Total.Seconds() * 1e3
	if nInterp != lb.uniqueTags || nCompiled != lb.uniqueTags {
		return fmt.Errorf("script probe: interpreted found %d tags, compiled %d, want %d", nInterp, nCompiled, lb.uniqueTags)
	}
	return nil
}

// runProbes runs every standalone probe and removes its scratch files.
func runProbes(dir string, db *core.Database, lb *lab) (map[string]float64, error) {
	scratch := filepath.Join(dir, "probes")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	out := map[string]float64{}
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"sqlparse", func() error { return probeSqlparse(lb, out) }},
		{"plan", func() error { return probePlanner(db, lb, out) }},
		{"storage scan", func() error { return probeHeapScan(db, out) }},
		{"storage compression", func() error { return probeCompression(scratch, lb, out) }},
		{"btree", func() error { return probeBtree(scratch, lb, out) }},
		{"wal", func() error { return probeWAL(scratch, lb, out) }},
		{"blob", func() error { return probeBlob(scratch, lb, out) }},
		{"fastq", func() error { return probeFastq(lb, out) }},
		{"script", func() error { return probeScript(lb, out) }},
	} {
		if err := p.run(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", p.name, err)
		}
	}
	return out, nil
}
