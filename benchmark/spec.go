package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// specFile is the benchmark contract at the root of the repository. It is
// the single list of workload and metric names: the program reads it at
// start and refuses to print a result whose metric set differs from it.
const specFile = "BENCHMARK.json"

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression; per-layer metrics have none.
	Bound float64 `json:"bound,omitempty"`
}

// spec is the part of the contract the program reads.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

// enterRoot changes to the checkout root — the nearest directory at or
// above the working directory that holds BENCHMARK.json — so that every
// other path in the program (golden file, output directory) is relative to
// it whether the program was started by run.sh or by `go test`.
func enterRoot() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, specFile)); err == nil {
			return os.Chdir(d)
		}
		if d == filepath.Dir(d) {
			return fmt.Errorf("no %s at or above %s", specFile, dir)
		}
	}
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// list returns the metrics a run of the given kind must print.
func (s *spec) list(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}
