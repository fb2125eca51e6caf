// Command genodb is a SQL shell over the engine: it executes statements
// from the command line or stdin against a database directory, with the
// genomics extension functions pre-registered.
//
// Usage:
//
//	genodb -db DIR -e "SELECT ..."      run one statement (repeatable ;-script)
//	genodb -db DIR < script.sql         run a script from stdin
//	genodb -db DIR                      interactive: one statement per line
//
// Run "ANALYZE" (or "ANALYZE TABLE t") after bulk loads: it collects
// per-column histograms and NDV sketches that the planner uses to pick
// join build sides, partition counts and Bloom filters; "EXPLAIN SELECT
// ..." shows the resulting per-node "est=N rows" estimates.
//
// # Secondary indexes & access paths
//
// "CREATE INDEX idx ON t(col)" builds a B-tree over col (a parallel
// sort-based build; existing rows are included, later inserts are
// maintained transactionally) and "DROP INDEX idx ON t" removes it. For
// each predicate of the shape "col op constant" (=, <, <=, >, >=) the
// planner prices three access paths by estimated page I/O and EXPLAIN
// shows which one won:
//
//	|--Index Scan [t] idx (100..200)        B-tree range scan + heap fetch
//	|--Table Scan [t] ... zonemap-pruned(58/564 pages)
//	                                        parallel scan, skipping sealed
//	                                        pages whose min/max zone map
//	                                        excludes the predicate
//	|--Table Scan [t] ... full scan         every page (chosen when the
//	                                        predicate is too wide to pay
//	                                        one heap fetch per index hit)
//
// Zone maps are per-page min/max summaries kept for every sealed heap
// page; they are built at page seal, CHECKPOINT and ANALYZE, cost no
// I/O at query time, and shine on columns correlated with insertion
// order (positions, timestamps). Selective point and narrow-range
// predicates on an indexed column flip to an Index Scan; widen the
// range and EXPLAIN flips back to a (pruned) heap scan. Index scans
// also deliver rows in key order, which the planner feeds to ORDER BY
// (sort elision), ROW_NUMBER and merge joins.
//
// BEGIN / COMMIT / ROLLBACK group statements into one atomic transaction.
// The shell is a single session; other sessions (another genodb on the
// same directory is NOT supported, but embedded users of core.Session
// are) see none of its changes until COMMIT, and its reads come from a
// consistent snapshot taken at BEGIN. DDL (CREATE/DROP TABLE) and
// CHECKPOINT are refused inside a transaction.
//
// # Vectorized execution
//
// Every operator hands its parent ~1024-row columnar batches with
// selection vectors, never one row per call; rows exist only where a row
// source enters a plan (a table-valued function, an index scan) and where
// the result leaves it. A scan decodes only the columns the query
// reads: on uncompressed and ROW-compressed tables it locates the cells
// of a sealed page in one pass and decodes a column, typed and a page at
// a time, the first time a filter, projection, join key or aggregate
// argument reads it, so "SELECT COUNT(*) FROM [Read] WHERE tile = 7" pays
// for one column of eight (in the shell, \stats shows scan.values_decoded
// and scan.rows: cells decoded and rows scanned). On tables created
// WITH (DATA_COMPRESSION = PAGE), sealed pages also keep their
// dictionary/RLE coding into the scan, so predicates like "flow = 'X'"
// compare small integer codes and rows they drop are never decompressed.
// There is one hash join, for two rows or two million: it hashes each key
// once from the key column (typed for INT and VARCHAR keys, once per
// distinct value of a dictionary column), keeps of the build side only the
// columns the query reads, in one columnar table, and emits the matches
// as batches, so "SELECT COUNT(*) FROM a JOIN b ON ..." never builds a
// row. Past the join memory budget it spills whole hash partitions and
// re-joins them one at a time. A predicate on the leading column of a
// clustered key ("WHERE r_id = 7") seeks: EXPLAIN shows the key range
// read as SEEK:[7..8).
// "EXPLAIN SELECT ..." marks the nodes that compute on typed vectors with
// a trailing "vectorized": table scans, filters, computed columns, TOP,
// the exchanges, the hash join, the aggregates. The unmarked ones still
// work a row at a time inside, between a batch in and a batch out — ORDER
// BY, TOP n ORDER BY, ROW_NUMBER, the merge join, CROSS APPLY — or read a
// row source. There is nothing to tune: the batch size is fixed and there
// is one of each operator.
//
// # Durability & recovery
//
// The engine write-ahead logs every change and checkpoints data files
// only at CHECKPOINT (and clean Close). The exact guarantees:
//
//   - A transaction whose COMMIT returned is durable: its commit record
//     was fsynced to db.wal before COMMIT returned (concurrent commits
//     share one group fsync). After a crash — power loss included —
//     reopening the directory replays the log and every such
//     transaction is fully visible.
//   - A transaction that never reached COMMIT (in flight, rolled back,
//     or its COMMIT errored) leaves no rows behind after recovery.
//     Recovery replays only transactions whose commit record is intact
//     in the log.
//   - A torn log tail — the crash interrupted the final write — is
//     detected by record CRCs and sequence numbers and cut off cleanly;
//     it can only ever contain transactions whose COMMIT had not
//     returned. Damage in the MIDDLE of the log (bit rot, a misdirected
//     write) with intact records after it is different: recovery fails
//     with wal.ErrCorruptLog rather than silently dropping committed
//     work. Restore from backup in that case.
//   - Every sealed data page carries a CRC32C checksum, verified when
//     the page is read from disk into the buffer pool. A corrupt page
//     fails the query that touches it with storage.ErrCorruptPage and
//     is counted in integrity.checksum_failures (\stats); other tables
//     (and other pages of the same table) remain fully usable, and the
//     database stays open. Databases written by pre-checksum builds open and
//     scan normally — verification keys off each page's version byte.
//
// "genodb -db DIR -verify" scans every table's sealed pages offline and
// reports checksum failures without loading anything into the pool —
// run it after hardware incidents or before archiving a directory.
//
// # Observability
//
// "EXPLAIN ANALYZE SELECT ..." executes the statement with timed
// per-operator instrumentation and prints the plan annotated with what
// actually happened instead of the row results:
//
//	|--Hash Match (Partitioned Inner Join) ... (est=240 rows, actual=210 rows,
//	       off by 1.1x over) time=18.3ms (self 12.1ms)
//	       spill: 1.2 MB in 7 runs (385 rows)
//	       bloom: 3000 checked, 2760 dropped (92.0%)
//	|--Table Scan [reads] ... (est=3000 rows, actual=3000 rows, off by 1.0x)
//	       pool: 112 hits, 10 misses
//
// Every node reports its actual row count against the planner's
// estimate (the "off by Kx under/over" ratio is how far the estimate
// missed — large ratios explain bad plans); nodes that did physical
// work add spill, Bloom-filter and buffer-pool detail lines — the pool
// line counts every page the node had read on its behalf: heap pages,
// btree descents and leaf walks, the re-read of spilled join partitions.
// "time=" is cumulative over the node's subtree; "(self ...)" subtracts
// the children. Plain SELECTs always collect the (cheap, atomic) counters
// — only EXPLAIN ANALYZE adds the clocks.
//
// The engine-wide view counts the same events: each is written once, to
// the engine's counter set and to the profile of the plan node it
// happened under (exec.pool.hits and exec.pool.misses are the share of
// pool.hits and pool.misses that statements' operators caused).
//
//   - "genodb -db DIR -metrics" prints every engine metric as JSON and
//     exits: the whole counter vocabulary (join, sort and aggregate
//     spill, Bloom activity, scan decode work, checksum verifications,
//     checkpoint and vacuum runs, planner access-path picks) plus the
//     buffer pool's own traffic, WAL fsyncs and query counts.
//   - In the shell, "\stats" prints the same metrics as a table, and
//     "\hist" shows the recent-query ring (duration, rows, spill bytes
//     per statement).
//   - core.Options.SlowQueryThreshold (flag "-slow-query DURATION")
//     keeps the full rendered profile of every statement at or over the
//     threshold; "\slow" prints the captured profiles. The capture is
//     bounded (the newest 32) and costs nothing for fast statements.
//
// Counter-only instrumentation is always on, with no switch: each
// operator wrapper counts rows locally and flushes one atomic add per
// 1024 rows.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/sqltypes"
	"repro/internal/udf"
)

func main() {
	dbDir := flag.String("db", "genodb-data", "database directory")
	exec := flag.String("e", "", "execute this SQL (semicolon-separated script) and exit")
	dop := flag.Int("dop", 0, "degree of parallelism (default: all cores)")
	verify := flag.Bool("verify", false, "scan all tables, report page-checksum failures, and exit")
	metrics := flag.Bool("metrics", false, "print the engine metrics registry as JSON and exit")
	slowQuery := flag.Duration("slow-query", 0, "capture full profiles of statements at or over this duration (e.g. 250ms; \\slow shows them)")
	flag.Parse()

	db, err := core.Open(*dbDir, core.Options{
		DOP:                *dop,
		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "genodb:", err)
		os.Exit(1)
	}
	defer db.Close()
	udf.RegisterAll(db)

	if *verify {
		if err := runVerify(db); err != nil {
			fmt.Fprintln(os.Stderr, "genodb:", err)
			os.Exit(1)
		}
		return
	}
	if *metrics {
		if err := printMetricsJSON(db, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genodb:", err)
			os.Exit(1)
		}
		return
	}
	if *exec != "" {
		if err := runScript(db, *exec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "genodb:", err)
			os.Exit(1)
		}
		return
	}
	st, _ := os.Stdin.Stat()
	interactive := (st.Mode() & os.ModeCharDevice) != 0
	if interactive {
		fmt.Println("genodb SQL shell - one statement per line, \\q to quit")
		fmt.Println("  tip: run ANALYZE [TABLE t] after loading data; EXPLAIN shows the est=N rows it gives the planner")
		fmt.Println("  tip: BEGIN; ...; COMMIT (or ROLLBACK) makes a multi-statement change atomic")
		fmt.Println("  tip: scans run vectorized (EXPLAIN shows which nodes); CREATE TABLE ... WITH (DATA_COMPRESSION = PAGE) lets filters compare dictionary codes without decompressing")
		fmt.Println("  tip: CREATE INDEX idx ON t(col) speeds up selective predicates; EXPLAIN shows the chosen access path (Index Scan / zonemap-pruned / full scan)")
		fmt.Println("  tip: EXPLAIN ANALYZE SELECT ... runs the query and shows actual rows, per-operator time and spill; \\stats dumps engine counters, \\hist recent queries, \\slow captured slow-query profiles")
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for {
		if interactive {
			if pending.Len() == 0 {
				fmt.Print("genodb> ")
			} else {
				fmt.Print("   ...> ")
			}
		}
		if !sc.Scan() {
			break
		}
		line := sc.Text()
		if strings.TrimSpace(line) == "\\q" {
			break
		}
		if cmd := strings.TrimSpace(line); pending.Len() == 0 && strings.HasPrefix(cmd, "\\") {
			if err := runShellCommand(db, cmd, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if !strings.Contains(line, ";") && interactive {
			continue
		}
		if err := runScript(db, pending.String(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
		pending.Reset()
	}
	if pending.Len() > 0 {
		if err := runScript(db, pending.String(), os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}

func runScript(db *core.Database, sql string, w io.Writer) error {
	if strings.TrimSpace(sql) == "" {
		return nil
	}
	res, err := db.ExecScript(sql)
	if err != nil {
		return err
	}
	if res == nil {
		return nil
	}
	printResult(w, res)
	return nil
}

func printResult(w io.Writer, res *core.Result) {
	if res.Plan != "" {
		fmt.Fprint(w, res.Plan)
		return
	}
	if len(res.Cols) == 0 {
		if res.RowsAffected > 0 {
			fmt.Fprintf(w, "(%d rows affected)\n", res.RowsAffected)
		} else {
			fmt.Fprintln(w, "OK")
		}
		return
	}
	widths := make([]int, len(res.Cols))
	render := make([][]string, len(res.Rows))
	for i, c := range res.Cols {
		if c == "" {
			c = fmt.Sprintf("col%d", i+1)
		}
		widths[i] = len(c)
	}
	for r, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = formatValue(v)
			if len(cells[i]) > widths[i] {
				widths[i] = len(cells[i])
			}
		}
		render[r] = cells
	}
	for i, c := range res.Cols {
		if c == "" {
			c = fmt.Sprintf("col%d", i+1)
		}
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for i := range res.Cols {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, cells := range render {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "(%d rows)\n", len(res.Rows))
}

func formatValue(v sqltypes.Value) string {
	if v.IsNull() {
		return "NULL"
	}
	s := v.String()
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}

// runShellCommand handles backslash commands entered at the prompt
// (outside any pending multi-line statement).
func runShellCommand(db *core.Database, cmd string, w io.Writer) error {
	switch cmd {
	case "\\stats":
		vals := db.Metrics()
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		width := 0
		for _, n := range names {
			if len(n) > width {
				width = len(n)
			}
		}
		for _, n := range names {
			fmt.Fprintf(w, "%-*s  %d\n", width, n, vals[n])
		}
		return nil
	case "\\hist":
		recs := db.QueryHistory()
		if len(recs) == 0 {
			fmt.Fprintln(w, "(no queries recorded)")
			return nil
		}
		for _, r := range recs {
			status := ""
			if r.Err != "" {
				status = "  ERROR: " + r.Err
			}
			spill := ""
			if r.SpillBytes > 0 {
				spill = fmt.Sprintf("  spill=%d B", r.SpillBytes)
			}
			fmt.Fprintf(w, "%-10s  %6d rows%s  %s%s\n",
				r.Duration.Round(time.Microsecond), r.Rows, spill, r.SQL, status)
		}
		return nil
	case "\\slow":
		recs := db.SlowQueries()
		if len(recs) == 0 {
			fmt.Fprintln(w, "(no slow queries captured; set -slow-query DURATION)")
			return nil
		}
		for _, r := range recs {
			fmt.Fprintf(w, "-- %s  %d rows  %s\n", r.Duration.Round(time.Microsecond), r.Rows, r.SQL)
			if r.Profile != "" {
				fmt.Fprint(w, r.Profile)
				if !strings.HasSuffix(r.Profile, "\n") {
					fmt.Fprintln(w)
				}
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q (try \\stats, \\hist, \\slow, \\q)", cmd)
	}
}

// printMetricsJSON dumps the metrics registry as one sorted JSON object,
// the machine-readable twin of the shell's \stats.
func printMetricsJSON(db *core.Database, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(db.Metrics())
}

// runVerify scans every table's sealed pages directly (bypassing the
// buffer pool) and reports per-table checksum results. Returns an error
// when any page fails verification so scripts can gate on the exit code.
func runVerify(db *core.Database) error {
	reports, err := db.VerifyIntegrity()
	if err != nil {
		return err
	}
	bad := 0
	for _, rep := range reports {
		status := "ok"
		if len(rep.Failures) > 0 {
			status = fmt.Sprintf("%d CORRUPT PAGES", len(rep.Failures))
			bad += len(rep.Failures)
		}
		fmt.Printf("%-24s %6d pages checked, %6d unverifiable (pre-checksum or index): %s\n",
			rep.Table, rep.PagesChecked, rep.PagesSkipped, status)
		for _, f := range rep.Failures {
			fmt.Printf("    %s\n", f)
		}
	}
	if bad > 0 {
		return fmt.Errorf("verify: %d corrupt pages found", bad)
	}
	fmt.Println("verify: all page checksums valid")
	return nil
}
