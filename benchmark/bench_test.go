package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the root of the repository.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the tables in metrics.go and pass.go say the same.
func TestSpecMatchesCode(t *testing.T) {
	spec := readSpec(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", spec.RunSeconds, defaultSeconds)
	}
	var gated []*workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in code", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].Name || w.Why != gated[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, w.Name, w.Why, gated[i].Name, gated[i].Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounded && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code has %+v", kind, i, g, w)
			}
			if !nameRE.MatchString(g.Name) || !unitRE.MatchString(g.Unit) || seen[g.Name] {
				t.Errorf("%s %s: bad or repeated name, or bad unit %q", kind, g.Name, g.Unit)
			}
			seen[g.Name] = true
			if bounded && (g.Bound <= 0 || g.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
}

// Every workload at the tiny scale, both passes: every metric of
// BENCHMARK.json comes out with its unit, no operation fails, spans nest,
// and parse + exec account for the statement span.
func TestSmokeTiny(t *testing.T) {
	spec := readSpec(t)
	dir := t.TempDir()
	ln, err := buildLanes(7, scales["tiny"])
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		// nproc 3 gives DOP 2, so the parallel plans run here whatever
		// the box.
		cfg := passConfig{
			wl: wl, sc: scales["tiny"], seconds: 0.2, nproc: 3, lanes: ln,
			workDir:  filepath.Join(dir, "work-"+wl.Name),
			traceOut: filepath.Join(dir, "trace-"+wl.Name+".json"),
		}
		plain, err := runPass(cfg, false)
		if err != nil {
			t.Fatalf("%s untraced: %v", wl.Name, err)
		}
		traced, err := runPass(cfg, true)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.Name, err)
		}
		for _, res := range []*passResult{plain, traced} {
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d: %v", wl.Name, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
		}
		for _, m := range spec.EndToEnd {
			v, ok := plain.Metrics[m.Name]
			if !ok || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end %s: emitted=%v unit=%q, want unit %q", wl.Name, m.Name, ok, v.Unit, m.Unit)
			}
			if !(v.Value > 0) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: end-to-end %s = %v; it must never be 0", wl.Name, m.Name, v.Value)
			}
		}
		for _, m := range spec.PerLayer {
			v, ok := traced.Metrics[m.Name]
			if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer %s: emitted=%v unit=%q value=%v, want unit %q", wl.Name, m.Name, ok, v.Unit, v.Value, m.Unit)
			}
		}
		checkTrace(t, wl.Name, cfg.traceOut)
	}
}

// maxResidual is the stated share of the statement spans that
// sqlparse.parse and core.exec may leave unaccounted for: the benchmark's
// own time between the calls.
const maxResidual = 0.02

func checkTrace(t *testing.T, workload, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	var stmtNS, partsNS int64
	stmts := 0
	for i, s := range spans {
		if s.ID != i || s.End < s.Start {
			t.Fatalf("%s: span %d has id %d, start %d, end %d", workload, i, s.ID, s.Start, s.End)
		}
		if s.Parent == noSpan {
			if strings.HasPrefix(s.Name, "stmt.") {
				stmtNS += s.End - s.Start
				stmts++
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("%s: span %d (%s) names parent %d", workload, i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.Start < p.Start || s.End > p.End || s.Stmt != p.Stmt {
			t.Errorf("%s: span %d (%s) [%d,%d] stmt %d does not nest in %d (%s) [%d,%d] stmt %d",
				workload, i, s.Name, s.Start, s.End, s.Stmt, s.Parent, p.Name, p.Start, p.End, p.Stmt)
		}
		if strings.HasPrefix(p.Name, "stmt.") && (s.Name == "sqlparse.parse" || s.Name == "core.exec") {
			partsNS += s.End - s.Start
		}
	}
	if stmts == 0 {
		t.Fatalf("%s: no statement spans in the trace", workload)
	}
	if residual := 1 - float64(partsNS)/float64(stmtNS); residual < 0 || residual > maxResidual {
		t.Errorf("%s: sqlparse.parse + core.exec leave %.2f%% of the statement spans unaccounted for; at most %.0f%%",
			workload, 100*residual, 100*maxResidual)
	}
}

// A wrong expected value must count as a failed operation, and a right
// one must not.
func TestWrongAnswerFails(t *testing.T) {
	sc := scales["tiny"]
	dir := t.TempDir()
	ln, err := buildLanes(7, sc)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := newLab(ln, sc, dir)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := setupLab(filepath.Join(dir, "db"), lb, engineConfig{dop: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := &runner{db: db, lb: lb, rec: newRecorder(), trec: newRecorder()}
	sess := db.NewSession()
	right := int64(len(ln.Aligns))
	sql := lb.kinds["merge_join"].stmts[0].sql
	r.exec(sess, &kind{name: "right", stmts: []stmt{{sql, expectCount(right)}}}, false)
	if r.rec.attempted != 1 || r.rec.failed != 0 {
		t.Fatalf("right answer: attempted=%d failed=%d %v", r.rec.attempted, r.rec.failed, r.rec.errs)
	}
	r.exec(sess, &kind{name: "wrong", stmts: []stmt{{sql, expectCount(right + 1)}}}, false)
	if r.rec.attempted != 2 || r.rec.failed != 1 || len(r.rec.lat["wrong"]) != 0 {
		t.Fatalf("wrong answer: attempted=%d failed=%d latencies=%v", r.rec.attempted, r.rec.failed, r.rec.lat["wrong"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	if v, pct := tail([]float64{1, 2, 3}); v != 2 || pct != 50 {
		t.Errorf("tail of 3 samples = %v at p%v, want the median", v, pct)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "x_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "x_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 106, 104, 105, 105}, "ok"},
		{lower, steady, []float64{115, 116, 114, 115, 115}, "regressed"},
		{lower, steady, []float64{80, 81, 79, 80, 80}, "ok"},
		{higher, steady, []float64{85, 86, 84, 85, 85}, "regressed"},
		{higher, steady, []float64{120, 121, 119, 120, 120}, "ok"},
		{lower, steady, []float64{80, 130, 100, 150, 60}, "unresolved"},
	} {
		if got, _, _ := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v vs %v) = %s, want %s", c.d.Name, c.a, c.b, got, c.want)
		}
	}
}
