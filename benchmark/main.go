// Command benchmark is genodb's one measuring stick: four workloads shaped
// like the paper's evaluation (BENCHMARK.json lists the two the driver
// runs), fifteen end-to-end metrics from an untraced pass and per-layer
// numbers from a traced pass. See README.md.
//
//	go run ./benchmark                         every workload, both passes
//	go run ./benchmark -repeat 5 -out a.json   five sets, medians and quartiles
//	go run ./benchmark -compare a.json b.json  per workload x metric verdicts
//	... -workload W -seed N -seconds S -trace 0|1   one pass, one JSON line last
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 58

// The benchmark runs with the collector's pacer off and collects itself:
// before every read cycle and after every checkpoint of a write loop,
// never inside a timed statement. The engine allocates heavily per
// statement; under the default pacer a collection landed inside about
// every other statement and, where DOP equals GOMAXPROCS, took a core from
// the query at random, so runs of the same code differed by 10-30 %. With
// this policy the two halves of a run agree within a few percent. What a
// statement allocates still costs it (allocation, page faults) and shows
// in core.peak_heap_mb; what collecting it costs does not show.
// gcMemoryLimit is the safety net: past it the runtime collects anyway.
const (
	gcPolicy      = "pacer off (GOGC=off); the benchmark collects between read cycles and after checkpoints, outside every timed statement; memory limit 3 GiB"
	gcMemoryLimit = 3 << 30
)

// flushPolicy is the engine's only one; both sides of any comparison run it.
const flushPolicy = "fsync at every COMMIT through the group-commit WAL; CHECKPOINT only when the workload issues it"

// environment says what machine and settings produced the numbers.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	DOP        int     `json:"dop"`
	DOPStatus  string  `json:"dop_status"` // "comparable", or "not_comparable" when GOMAXPROCS < DOP
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Flush      string  `json:"flush_policy"`
	GC         string  `json:"gc_policy"`
}

func newEnvironment(seed int64, sc scale, seconds float64) environment {
	nproc := runtime.NumCPU()
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(gcMemoryLimit)
	// Explicit, so a container quota the runtime ignores cannot hide
	// behind a default. This is the most any pass gets; each pass runs
	// under its workload's own count (workload.processors, reported in
	// the sizes).
	runtime.GOMAXPROCS(nproc)
	env := environment{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), DOP: parallelDOP(nproc),
		DOPStatus: "comparable", GoVersion: runtime.Version(), GitCommit: "unknown",
		Seed: seed, Scale: sc.Name, Seconds: seconds, Flush: flushPolicy,
		GC: gcPolicy,
	}
	if env.GOMAXPROCS < env.DOP {
		env.DOPStatus = "not_comparable"
	}
	// Ask git about this directory only: the driver's checkout is not a
	// repository, and the benchmark reads nothing above it.
	if cwd, err := os.Getwd(); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		if out, err := cmd.Output(); err == nil {
			env.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return env
}

// runRecord is one workload of one set in a result file.
type runRecord struct {
	Workload  string             `json:"workload"`
	Set       int                `json:"set"`
	Seed      int64              `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Sizes     sizes              `json:"sizes"`
	EndToEnd  map[string]value   `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
	SelfMS    map[string]float64 `json:"span_self_ms,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env   environment `json:"env"`
	Claim *string     `json:"claim"` // this benchmark claims no gain: null
	Runs  []runRecord `json:"runs"`
}

func main() {
	workloadFlag := flag.String("workload", "all", "dge_warm, reseq_cold, ingest, mixed or all")
	seed := flag.Int64("seed", 42, "seed of the data and parameter generators")
	seconds := flag.Float64("seconds", defaultSeconds, "length of each measured phase")
	trace := flag.Int("trace", -1, "0 or 1: run one pass of one workload and print one JSON object last")
	scaleName := flag.String("scale", "full", "full or tiny")
	outDir := flag.String("dir", ".bench_build", "directory for scratch databases, trace.json and the result file")
	out := flag.String("out", "", "result file (default <dir>/result.json)")
	repeat := flag.Int("repeat", 1, "sets to run; more than one prints medians and quartiles")
	compare := flag.Bool("compare", false, "compare two result files given as arguments")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fatal("unknown -scale " + *scaleName)
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	env := newEnvironment(*seed, sc, *seconds)
	base := passConfig{
		sc: sc, seconds: *seconds, nproc: env.NProc,
		workDir:  filepath.Join(*outDir, fmt.Sprintf("work-%d", os.Getpid())),
		traceOut: filepath.Join(*outDir, "trace.json"),
	}

	if *trace >= 0 {
		wl := workloadByName(*workloadFlag)
		if wl == nil || *trace > 1 {
			fatal("-trace 0|1 needs -workload naming one workload")
		}
		base.wl = wl
		if err := runContract(base, env, *seed, *trace == 1); err != nil {
			fatal(err)
		}
		return
	}

	selected := workloads
	if *workloadFlag != "all" {
		wl := workloadByName(*workloadFlag)
		if wl == nil {
			fatal("unknown -workload " + *workloadFlag)
		}
		selected = []*workload{wl}
	}
	if *out == "" {
		*out = filepath.Join(*outDir, "result.json")
	}
	if err := runSets(base, env, *seed, selected, *repeat, *out); err != nil {
		fatal(err)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(1)
}

// runContract is the driver's mode: one workload, one pass, and as the
// last line of standard output one JSON object with exactly the keys
// correct, attempted, failed and metrics.
func runContract(cfg passConfig, env environment, seed int64, traced bool) error {
	var err error
	if cfg.lanes, err = buildLanes(seed, cfg.sc); err != nil {
		return fmt.Errorf("building lanes: %w", err)
	}
	res, err := runPass(cfg, traced)
	if err != nil {
		return err
	}
	printEnvironment(env, cfg.wl, res.Sizes)
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	printMetrics(defs, res.Metrics)
	for _, e := range res.Errors {
		fmt.Println("failed:", e)
	}
	type contractValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]contractValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]contractValue{}}
	for _, d := range defs {
		v := res.Metrics[d.Name]
		line.Metrics[d.Name] = contractValue{v.Value, v.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

// runSets is the lab's mode: every selected workload, untraced then
// traced, repeat times over with the seed advancing by one per set.
func runSets(base passConfig, env environment, seed int64, selected []*workload, repeat int, out string) error {
	file := resultFile{Env: env}
	allCorrect := true
	for set := 0; set < repeat; set++ {
		ln, err := buildLanes(seed+int64(set), base.sc)
		if err != nil {
			return fmt.Errorf("building lanes: %w", err)
		}
		for _, wl := range selected {
			cfg := base
			cfg.wl, cfg.lanes = wl, ln
			plain, err := runPass(cfg, false)
			if err != nil {
				return fmt.Errorf("%s untraced: %w", wl.Name, err)
			}
			// The contract caps total time; when it is tight the traced
			// pass is the one shortened, never the untraced one.
			cfg.seconds = min(base.seconds, 10)
			cfg.traceOut = strings.TrimSuffix(base.traceOut, ".json") + "-" + wl.Name + ".json"
			traced, err := runPass(cfg, true)
			if err != nil {
				return fmt.Errorf("%s traced: %w", wl.Name, err)
			}
			rec := runRecord{
				Workload: wl.Name, Set: set, Seed: ln.Seed,
				Correct:   plain.Correct && traced.Correct,
				Attempted: plain.Attempted + traced.Attempted,
				Failed:    plain.Failed + traced.Failed,
				Errors:    append(plain.Errors, traced.Errors...),
				Sizes:     plain.Sizes, EndToEnd: plain.Metrics, PerLayer: traced.Metrics, SelfMS: traced.SelfMS,
			}
			allCorrect = allCorrect && rec.Correct
			file.Runs = append(file.Runs, rec)

			fmt.Printf("\n== %s (set %d, seed %d): %s\n", wl.Name, set, ln.Seed, wl.Why)
			printEnvironment(env, wl, plain.Sizes)
			fmt.Printf("operations: %d attempted, %d failed, correct=%v\n", rec.Attempted, rec.Failed, rec.Correct)
			for _, e := range rec.Errors {
				fmt.Println("failed:", e)
			}
			fmt.Println("-- end to end (untraced pass)")
			printMetrics(endToEnd, plain.Metrics)
			fmt.Println("-- per layer (traced pass)")
			printMetrics(perLayer, traced.Metrics)
			fmt.Println("-- self time of traced spans, ms")
			printSelfTimes(traced.SelfMS)
		}
	}
	if repeat > 1 {
		fmt.Printf("\n== %d sets: median [first quartile, third quartile] spread/bound\n", repeat)
		printSpreads(os.Stdout, file.Runs)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("\nresults:", out)
	if !allCorrect {
		return fmt.Errorf("some operations failed or returned wrong answers")
	}
	return nil
}

func printEnvironment(env environment, wl *workload, sz sizes) {
	dop := fmt.Sprint(sz.DOP)
	if sz.GOMAXPROCS < sz.DOP {
		dop += " (not_comparable: GOMAXPROCS < DOP)"
	}
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d DOP=%s %s commit=%s seed=%d scale=%s seconds=%g\n",
		env.NProc, sz.GOMAXPROCS, dop, env.GoVersion, env.GitCommit, env.Seed, env.Scale, env.Seconds)
	fmt.Printf("env: flush policy: %s\n", env.Flush)
	fmt.Printf("env: gc policy: %s\n", env.GC)
	fmt.Printf("sizes: %s: %d DGE reads, %d re-sequencing reads, %d alignments; %d user bytes stored as %d bytes; pool %d pages (%.2fx the pool), join/sort/agg budgets %d/%d/%d bytes (0 = 64 MB default)\n",
		wl.Name, sz.DGEReads, sz.ReseqReads, sz.Alignments, sz.UserBytes, sz.StoredBytes, sz.PoolPages, sz.DataPerPool,
		sz.Budgets.Join, sz.Budgets.Sort, sz.Budgets.Agg)
}

func printMetrics(defs []metricDef, m map[string]value) {
	for _, d := range defs {
		v := m[d.Name]
		note := ""
		if v.Samples > 0 {
			note = fmt.Sprintf("  (n=%d", v.Samples)
			if v.Pct > 0 {
				note += fmt.Sprintf(", p%.1f", v.Pct)
			}
			note += ")"
		}
		fmt.Printf("%-36s %14.4f %-6s%s\n", d.Name, v.Value, v.Unit, note)
	}
}

func printSelfTimes(self map[string]float64) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("%-36s %14.3f\n", n, self[n])
	}
}
