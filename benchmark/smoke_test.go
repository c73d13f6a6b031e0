package main

import (
	"fmt"
	"os"
	"runtime"
	"testing"
)

func TestMain(m *testing.M) {
	// Tests run in the package directory; the program runs from the root.
	if err := enterRoot(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload at toy size, untraced and traced, and every
// probe, and checks that each metric BENCHMARK.json names is measured and
// finite and that every correctness check passes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped in -short mode")
	}
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	procs, err := choosePar(0, runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	if err := smokeRun(sp, procs, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// The golden of a subset of tables is the subset of the golden's lines, and
// the golden of all six tables is the whole file.
func TestGoldenSubset(t *testing.T) {
	whole, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	all, err := goldenFor(fullSizes.tables)
	if err != nil {
		t.Fatal(err)
	}
	if string(all) != string(whole) {
		t.Error("the golden of tables 1-6 is not the whole golden file")
	}
	one, err := goldenFor([]string{"1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(one) == 0 || len(one) >= len(whole) || string(whole[:len(one)]) != string(one) {
		t.Errorf("the golden of table 1 (%d bytes) is not the head of the file (%d bytes)", len(one), len(whole))
	}
}
