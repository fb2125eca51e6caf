package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series collects one end-to-end metric of one workload over a file's sets.
func series(runs []runRecord, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if r.Workload == workload {
			if v, ok := r.EndToEnd[metric]; ok {
				xs = append(xs, v.Value)
			}
		}
	}
	return xs
}

// printSpreads prints, per workload and end-to-end metric, the median and
// quartiles over the sets and the spread beside the metric's bound.
func printSpreads(w io.Writer, runs []runRecord) {
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := series(runs, wl.Name, d.Name)
			if len(xs) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-11s %-28s %12.4f [%12.4f, %12.4f] %-5s spread %5.1f%% / bound %4.1f%%\n",
				wl.Name, d.Name, q2, q1, q3, d.Unit, 100*spread(xs), 100*d.Bound)
		}
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges b against base a for one metric: regressed when b's
// median is worse than a's by more than the bound, unresolved when either
// side's own spread is wider than the bound (the runs cannot tell), else
// ok. worse is the signed share by which b is worse than a.
func verdict(d metricDef, a, b []float64) (status string, ratio, worse float64) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	worse = ratio - 1
	if d.Better == "higher" {
		worse = 1 - ratio
	}
	switch {
	case (len(a) > 1 && spread(a) > d.Bound) || (len(b) > 1 && spread(b) > d.Bound):
		status = "unresolved"
	case worse > d.Bound:
		status = "regressed"
	default:
		status = "ok"
	}
	return status, ratio, worse
}

// compareFiles prints one row per workload and end-to-end metric: both
// medians, b over a with a as the base, the bound, and the verdict.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a = %s (commit %s, %s scale, GOMAXPROCS %d)\nb = %s (commit %s, %s scale, GOMAXPROCS %d)\n",
		pathA, a.Env.GitCommit, a.Env.Scale, a.Env.GOMAXPROCS, pathB, b.Env.GitCommit, b.Env.Scale, b.Env.GOMAXPROCS)
	if a.Env.Scale != b.Env.Scale || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.Seconds != b.Env.Seconds {
		fmt.Fprintln(w, "warning: the two files were not taken with the same settings")
	}
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := series(a.Runs, wl.Name, d.Name), series(b.Runs, wl.Name, d.Name)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			status, ratio, _ := verdict(d, xa, xb)
			counts[status]++
			fmt.Fprintf(w, "%-11s %-28s a %12.4f  b %12.4f %-5s b/a %6.3f (base a, n=%d/%d)  bound %4.1f%%  %s\n",
				wl.Name, d.Name, median(xa), median(xb), d.Unit, ratio, len(xa), len(xb), 100*d.Bound, status)
		}
	}
	fmt.Fprintf(w, "ok %d, regressed %d, unresolved %d\n", counts["ok"], counts["regressed"], counts["unresolved"])
	return nil
}
