package core

import (
	"math"
	"reflect"
	"testing"

	"overd/internal/fault"
	"overd/internal/par"
	"overd/internal/trace"
)

// TestNilAndEmptyFaultPlansBitIdentical is the acceptance regression: a nil
// plan and an empty plan must leave every virtual clock and Result number
// bit-identical — the fault layer's hooks delegate to the exact unhooked
// arithmetic when no fault matches.
func TestNilAndEmptyFaultPlansBitIdentical(t *testing.T) {
	base, err := Run(smallAirfoil(4, math.Inf(1), 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallAirfoil(4, math.Inf(1), 3)
	cfg.Faults = &fault.Plan{Seed: 99}
	faulted, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.TotalTime != faulted.TotalTime {
		t.Errorf("TotalTime differs: %v vs %v", base.TotalTime, faulted.TotalTime)
	}
	if base.Flops != faulted.Flops {
		t.Errorf("Flops differs: %v vs %v", base.Flops, faulted.Flops)
	}
	if base.Orphans != faulted.Orphans || base.IGBPs != faulted.IGBPs {
		t.Errorf("connectivity differs: orphans %d/%d igbps %d/%d",
			base.Orphans, faulted.Orphans, base.IGBPs, faulted.IGBPs)
	}
	if !reflect.DeepEqual(base.Steps, faulted.Steps) {
		t.Errorf("per-step stats differ under empty fault plan")
	}
	if faulted.Recoveries != 0 || faulted.Checkpoints != 0 ||
		faulted.DroppedMsgs != 0 || faulted.FaultWaitTime != 0 {
		t.Errorf("empty plan reported fault activity: %+v", faulted)
	}
}

// TestCrashRestartIntegration is the headline robustness scenario: a rank
// crash mid-run recovers via checkpoint/restart — the run completes with a
// typed-error-free Result that reports the recovery cost, on one fewer node.
func TestCrashRestartIntegration(t *testing.T) {
	cfg := smallAirfoil(5, math.Inf(1), 8)
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, Step: 5}}}
	cfg.CheckpointEvery = 3
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res)
	if len(res.Steps) != 8 {
		t.Errorf("recorded %d steps, want 8", len(res.Steps))
	}
	if res.Recoveries != 1 {
		t.Errorf("Recoveries = %d, want 1", res.Recoveries)
	}
	// Checkpoint fired after step 3; the crash at step 5 re-executes 3, 4.
	if res.RecoverySteps != 2 {
		t.Errorf("RecoverySteps = %d, want 2", res.RecoverySteps)
	}
	if res.RecoveryTime <= 0 {
		t.Errorf("RecoveryTime = %v, want > 0", res.RecoveryTime)
	}
	if res.Checkpoints < 1 || res.CheckpointTime <= 0 {
		t.Errorf("checkpoints %d time %v", res.Checkpoints, res.CheckpointTime)
	}
	if res.FinalNodes != 4 {
		t.Errorf("FinalNodes = %d, want 4 (one crash on 5 nodes)", res.FinalNodes)
	}

	base, err := Run(smallAirfoil(5, math.Inf(1), 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= base.TotalTime {
		t.Errorf("crashed run (%v s) should cost more than clean run (%v s)",
			res.TotalTime, base.TotalTime)
	}
}

// What a crashed attempt is charged for is what its ranks had done as the
// crash step began — not what each survivor had done when the poison reached
// it, which is host timing.
func TestCrashedAttemptAccountingDeterministic(t *testing.T) {
	mk := func() Config {
		cfg := smallAirfoil(5, math.Inf(1), 8)
		cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 2, Step: 5}}}
		cfg.CheckpointEvery = 3
		return cfg
	}
	charges := func(r *Result) [9]float64 {
		return [9]float64{r.Flops, r.FlowTime, r.MotionTime, r.ConnectTime, r.BalanceTime,
			r.FlowWaitTime, r.MotionWaitTime, r.ConnectWaitTime, r.BalanceWaitTime}
	}
	want, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		cfg := mk()
		cfg.Workers = i % 3 // unbounded, then through the run-slot gate
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if charges(got) != charges(want) {
			t.Fatalf("run %d: charges %v, first run %v", i, charges(got), charges(want))
		}
	}
}

// Without checkpointing the restart re-executes from step 0.
func TestCrashWithoutCheckpointRestartsFromZero(t *testing.T) {
	cfg := smallAirfoil(4, math.Inf(1), 4)
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, Step: 2}}}
	cfg.CheckpointEvery = -1
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoints != 0 {
		t.Errorf("Checkpoints = %d with checkpointing disabled", res.Checkpoints)
	}
	if res.Recoveries != 1 || res.RecoverySteps != 2 {
		t.Errorf("recoveries %d steps %d, want 1 and 2", res.Recoveries, res.RecoverySteps)
	}
	if len(res.Steps) != 4 {
		t.Errorf("recorded %d steps, want 4", len(res.Steps))
	}
	if res.FinalNodes != 3 {
		t.Errorf("FinalNodes = %d, want 3", res.FinalNodes)
	}
}

// A crash that leaves too few nodes to hold the grid system is a hard error.
func TestCrashCascadeRunsOutOfNodes(t *testing.T) {
	cfg := smallAirfoil(2, math.Inf(1), 3)
	cfg.Faults = &fault.Plan{Crashes: []fault.Crash{{Rank: 1, Step: 1}}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected an error when a crash leaves fewer nodes than grids")
	}
}

// TestLostSearchRepliesDegradeToOrphans is the graceful-degradation
// acceptance test: donor-search replies lost beyond the retry budget must
// turn into a bounded orphan count, not a deadlock.
func TestLostSearchRepliesDegradeToOrphans(t *testing.T) {
	cfg := smallAirfoil(4, math.Inf(1), 3)
	cfg.Faults = &fault.Plan{
		Seed: 7,
		Losses: []fault.Loss{
			{Tag: int(par.TagSearchRep), From: -1, To: -1, Prob: 0.35},
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DroppedMsgs == 0 {
		t.Error("loss plan dropped no messages")
	}
	if len(res.Steps) != 3 {
		t.Errorf("recorded %d steps, want 3", len(res.Steps))
	}
	base, err := Run(smallAirfoil(4, math.Inf(1), 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Orphans < base.Orphans {
		t.Errorf("lossy run has fewer orphans (%d) than clean run (%d)",
			res.Orphans, base.Orphans)
	}
	// Bounded: most fringe points still resolve (retries absorb most loss).
	if res.Orphans > res.IGBPs/2 {
		t.Errorf("degradation unbounded: %d orphans of %d IGBPs", res.Orphans, res.IGBPs)
	}
}

// A straggler makes the run strictly slower and shows up as wait time on
// the healthy ranks (they idle at barriers for the slow one).
func TestStragglerSlowsRun(t *testing.T) {
	base, err := Run(smallAirfoil(4, math.Inf(1), 3))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallAirfoil(4, math.Inf(1), 3)
	cfg.Faults = &fault.Plan{
		Stragglers: []fault.Straggler{{Rank: 1, Factor: 4, FromStep: 0}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= base.TotalTime {
		t.Errorf("straggler run (%v s) not slower than clean run (%v s)",
			res.TotalTime, base.TotalTime)
	}
}

// A degraded link slows the run without changing the answer.
func TestDegradedLinkSlowsRun(t *testing.T) {
	base, err := Run(smallAirfoil(4, math.Inf(1), 2))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallAirfoil(4, math.Inf(1), 2)
	cfg.Faults = &fault.Plan{
		Links: []fault.LinkFault{{From: -1, To: -1, LatencyFactor: 20, BandwidthFactor: 20}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= base.TotalTime {
		t.Errorf("degraded-link run (%v s) not slower than clean run (%v s)",
			res.TotalTime, base.TotalTime)
	}
	if res.Orphans != base.Orphans || res.IGBPs != base.IGBPs {
		t.Errorf("link degradation changed connectivity: orphans %d/%d igbps %d/%d",
			res.Orphans, base.Orphans, res.IGBPs, base.IGBPs)
	}
}

// TestFaultedRunDeterministic: same seed + same plan must reproduce the
// identical trace event stream and Result, per the acceptance criteria.
func TestFaultedRunDeterministic(t *testing.T) {
	plan := &fault.Plan{
		Seed: 42,
		Stragglers: []fault.Straggler{
			{Rank: 1, Factor: 2, FromStep: 1, ToStep: 3},
		},
		Losses: []fault.Loss{
			{Tag: int(par.TagSearchRep), From: -1, To: -1, Prob: 0.3},
			{Tag: int(par.TagSearchReq), From: -1, To: -1, Prob: 0.15},
		},
	}
	run := func() (*Result, *trace.Recorder) {
		cfg := smallAirfoil(4, math.Inf(1), 3)
		cfg.Faults = plan
		cfg.Trace = trace.NewRecorder()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res, cfg.Trace
	}
	resA, trA := run()
	resB, trB := run()
	if resA.TotalTime != resB.TotalTime || resA.Flops != resB.Flops {
		t.Errorf("nondeterministic result: %v/%v vs %v/%v",
			resA.TotalTime, resA.Flops, resB.TotalTime, resB.Flops)
	}
	if resA.DroppedMsgs != resB.DroppedMsgs || resA.SendRetries != resB.SendRetries {
		t.Errorf("nondeterministic loss: %d/%d vs %d/%d",
			resA.DroppedMsgs, resA.SendRetries, resB.DroppedMsgs, resB.SendRetries)
	}
	if trA.NRanks() != trB.NRanks() {
		t.Fatalf("rank counts differ: %d vs %d", trA.NRanks(), trB.NRanks())
	}
	for rank := 0; rank < trA.NRanks(); rank++ {
		if !reflect.DeepEqual(trA.Events(rank), trB.Events(rank)) {
			t.Errorf("rank %d: trace event streams differ", rank)
		}
	}
}

// The crash recovery path composes with everything else: dynamic balancing
// on, loss on, straggler on — the run still completes and reports.
func TestCrashUnderCombinedFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("combined fault sweep skipped in -short")
	}
	cfg := smallAirfoil(6, 1.2, 8)
	cfg.Faults = &fault.Plan{
		Seed:       3,
		Stragglers: []fault.Straggler{{Rank: 0, Factor: 2, FromStep: 2, ToStep: 6}},
		Losses: []fault.Loss{
			{Tag: int(par.TagSearchRep), From: -1, To: -1, Prob: 0.2},
		},
		Crashes: []fault.Crash{{Rank: 3, Step: 4}},
	}
	cfg.CheckpointEvery = 2
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recoveries != 1 || res.FinalNodes != 5 {
		t.Errorf("recoveries %d final nodes %d", res.Recoveries, res.FinalNodes)
	}
	if len(res.Steps) != 8 {
		t.Errorf("recorded %d steps, want 8", len(res.Steps))
	}
	checkResult(t, res)
}
