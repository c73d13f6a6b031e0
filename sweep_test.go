package overd

import (
	"bytes"
	"io"
	"os"
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
	for call := 1; call <= 2; call++ {
		s := goldenSweep(t, Options{})
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
