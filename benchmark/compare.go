package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdicts of -compare, one per (end-to-end metric, workload).
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge compares a metric's values in a baseline set of runs (a) and a
// candidate set (b) against its bound. The medians decide; but where the
// run-to-run spread of either set is wider than the bound, the difference
// cannot be told from noise and the row is unresolved, not unchanged.
func judge(m metricSpec, a, b []float64) (verdict string, worse, noise float64) {
	ma, mb := median(a), median(b)
	worse = (mb - ma) / ma
	if m.Better == "higher" {
		worse = (ma - mb) / ma
	}
	noise = max(spread(a), spread(b))
	switch {
	case noise > m.Bound:
		return verdictUnresolved, worse, noise
	case worse > m.Bound:
		return verdictRegressed, worse, noise
	}
	return verdictOK, worse, noise
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

// valuesOf collects a metric's values over the untraced runs of a workload.
func (f *resultFile) valuesOf(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
			out = append(out, v.Value)
		}
	}
	return out
}

// compareFiles prints one row per (end-to-end metric, workload) present in
// both files and reports whether every row is ok. It is the tool for a
// change's no-regression table and for checking that two sets of runs of
// the same code agree.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Host.CPUModel != b.Host.CPUModel || a.Host.NumCPU != b.Host.NumCPU || a.Host.P != b.Host.P {
		fmt.Fprintf(w, "warning: the files come from different hosts (%s ×%d P=%d, %s ×%d P=%d)\n",
			a.Host.CPUModel, a.Host.NumCPU, a.Host.P, b.Host.CPUModel, b.Host.NumCPU, b.Host.P)
	}
	fmt.Fprintf(w, "%-17s %-18s %12s %12s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread", "bound", "verdict")
	allOK, rows := true, 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a.valuesOf(wl.Name, m.Name), b.valuesOf(wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			rows++
			verdict, worse, noise := judge(m, va, vb)
			allOK = allOK && verdict == verdictOK
			fmt.Fprintf(w, "%-17s %-18s %12.6g %12.6g %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, median(va), median(vb), 100*worse, 100*noise, 100*m.Bound, verdict)
		}
	}
	if rows == 0 {
		return false, fmt.Errorf("%s and %s share no (workload, metric) pair", pathA, pathB)
	}
	return allOK, nil
}
