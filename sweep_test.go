package overd

import (
	"bytes"
	"io"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// goldenSweep runs golden tables 1–6 through one sweep and checks the bytes.
func goldenSweep(t *testing.T, opt Options) *sweep {
	t.Helper()
	want, err := os.ReadFile("testdata/tables_scale005_steps2.jsonl")
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	sel, err := ParseTableSelection("1,2,3,4,5,6")
	if err != nil {
		t.Fatal(err)
	}
	opt.Scale, opt.Steps = 0.05, 2
	s := newSweep(opt)
	var got bytes.Buffer
	if err := s.emitJSON(&got, sel); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("sweep output differs from the golden file (TestPerfPassBitIdentical names the line)")
	}
	return s
}

// The golden tables name 56 runs — every row on the SP2 and on the SP, and
// Table 6 all of Table 4's again — of 27 distinct computations, and a sweep
// executes the 27: the rest are re-timed or handed back. The memo does that
// per call, not per process, and keeps no grids. With a metrics registry
// attached every run executes, because the registry must hold the last
// run's series.
func TestSweepExecutesEachComputationOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweeps; skipped in -short mode")
	}
	// What a sweep allocates, too, is pinned here (GOMAXPROCS 1: the counts
	// then repeat to 0.01 %): 321 MB and 106 K objects with every run's
	// slab, kit and tape recycled through the sweep's Storage and five
	// cases built; 583 MB and 252 K before kits and shared cases.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for call := 1; call <= 2; call++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s := goldenSweep(t, Options{})
		runtime.ReadMemStats(&m1)
		if mb, objects := float64(m1.TotalAlloc-m0.TotalAlloc)/1e6, m1.Mallocs-m0.Mallocs; mb > 400 || objects > 150e3 {
			t.Errorf("call %d: the sweep allocated %.0f MB in %d objects, ceilings 400 MB and 150 000", call, mb, objects)
		}
		if s.executed != 27 {
			t.Errorf("call %d: %d executions, want 27", call, s.executed)
		}
		// 19 computations are timed on two machines, Table 5's 8 on one.
		if len(s.memo) != 2*19+8 {
			t.Errorf("call %d: the memo holds %d results, want %d", call, len(s.memo), 2*19+8)
		}
		for key, r := range s.memo {
			if r.Config.Case != nil {
				t.Fatalf("%+v: the memo pins the run's case", key)
			}
			if r.points <= 0 || r.Flops <= 0 || r.TotalTime <= 0 || r.Config.Machine.Name != key.machine {
				t.Errorf("%+v: kept %d points, %v flops, %v s on %s", key, r.points, r.Flops, r.TotalTime, r.Config.Machine.Name)
			}
		}
	}

	reg := NewMetricsRegistry()
	s := goldenSweep(t, Options{Metrics: reg})
	if s.executed != 56 || len(s.memo) != 0 {
		t.Errorf("with metrics attached: %d executions and %d results kept, want 56 and 0", s.executed, len(s.memo))
	}
	if reg.NRanks() != Table6Nodes[len(Table6Nodes)-1] {
		t.Errorf("the registry holds a run on %d ranks, want the sweep's last (%d)", reg.NRanks(), Table6Nodes[len(Table6Nodes)-1])
	}
}

// A sweep shares across tables whatever they have in common: the faulted
// Table 5 reuses Table 5's eight clean runs, and says so.
func TestSweepSharesAcrossTables(t *testing.T) {
	if testing.Short() {
		t.Skip("table sweeps; skipped in -short mode")
	}
	var log strings.Builder
	s := newSweep(Options{Scale: 0.05, Steps: 2, Log: &log})
	if err := s.emitJSON(io.Discard, map[string]bool{"5": true, "5f": true}); err != nil {
		t.Fatal(err)
	}
	if s.executed != 16 {
		t.Errorf("tables 5 and 5f: %d executions, want 16 (8 clean, 8 under the straggler)", s.executed)
	}
	if n := strings.Count(log.String(), "shared with Table 5:"); n != 8 {
		t.Errorf("%d progress lines say \"shared with Table 5\", want 8\n%s", n, log.String())
	}
}

// Consecutive rows on one case share it: a sweep builds a case when a row asks
// for another (constructor, scale) than the row before — five times for the
// golden tables, whose bytes do not notice — holds one case at a time, and
// every run on a case put back where it started equals the run on a new one.
func TestSweepBuildsACasePerBlockOfRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full table sweeps; skipped in -short mode")
	}
	var log strings.Builder
	s := goldenSweep(t, Options{Log: &log})
	var built []string
	for _, m := range regexp.MustCompile(`\((.*) case built at scale (.*)\)`).FindAllStringSubmatch(log.String(), -1) {
		built = append(built, m[1]+" "+m[2])
	}
	want := []string{"airfoil 0.05", "airfoil 0.0125", "airfoil 0.2", "deltawing 0.05", "storesep 0.05"}
	if !reflect.DeepEqual(built, want) || s.built != len(want) {
		t.Errorf("the golden sweep built %d cases, %v; want %v", s.built, built, want)
	}

	// A block that comes back is built again, and rows that share a case
	// are the rows they would be alone.
	rows := []runSpec{
		{mk: "airfoil", scale: 0.05, nodes: 3, steps: 2},
		{mk: "airfoil", scale: 0.05, nodes: 6, steps: 2, fo: 2, check: 1},
		{mk: "deltawing", scale: 0.05, nodes: 7, steps: 1},
		{mk: "airfoil", scale: 0.05, nodes: 4, steps: 3},
	}
	shared := newSweep(Options{})
	for i, spec := range rows {
		got, err := shared.run("row", spec, SP2(), SP())
		if err != nil {
			t.Fatal(err)
		}
		alone, err := newSweep(Options{}).run("row", spec, SP2(), SP())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, alone) {
			t.Errorf("row %d differs from the same row on a case of its own", i)
		}
	}
	if shared.built != 3 {
		t.Errorf("four rows in three blocks built %d cases", shared.built)
	}
}
