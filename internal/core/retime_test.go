package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"overd/internal/cases"
	"overd/internal/fault"
	"overd/internal/machine"
	"overd/internal/par"
)

// retimeSpec is one computation the re-timing tests run on both machines.
// mk builds a fresh configuration (a run moves its case); its Machine is set
// by the test.
type retimeSpec struct {
	name string
	mk   func() Config
}

func perfSpec(name string, mk func(float64) *cases.Case, scale float64, nodes int) retimeSpec {
	return retimeSpec{name, func() Config {
		return Config{Case: mk(scale), Nodes: nodes, Steps: 2, Fo: math.Inf(1)}
	}}
}

// goldenSpecs are the runs of golden tables 1–4 (the root package's
// Table1Nodes, RunTable2's rows, Table3Nodes, Table4Nodes at the golden
// file's scale 0.05 and 2 steps; tables 5 and 6 add no run that is timed on
// a second machine), plus the two kinds of run those tables lack: a body
// moved by its integrated loads, and a run that repartitions.
func goldenSpecs() []retimeSpec {
	const scale = 0.05
	var specs []retimeSpec
	for _, n := range []int{6, 9, 12, 18, 24} {
		specs = append(specs, perfSpec("airfoil", cases.OscAirfoil, scale, n))
	}
	specs = append(specs,
		perfSpec("airfoil-coarsened", cases.OscAirfoil, 0.25*scale, 3),
		perfSpec("airfoil-refined", cases.OscAirfoil, 4*scale, 48))
	for _, n := range []int{7, 12, 26, 55} {
		specs = append(specs, perfSpec("deltawing", cases.DeltaWing, scale, n))
	}
	for _, n := range []int{16, 18, 22, 28, 35, 42, 52, 61} {
		specs = append(specs, perfSpec("storesep", cases.StoreSep, scale, n))
	}
	return append(specs, extraSpecs()...)
}

func extraSpecs() []retimeSpec {
	return []retimeSpec{
		perfSpec("storesep-free", cases.StoreSepFree, 0.05, 16),
		{"storesep-dynamic", func() Config {
			return Config{Case: cases.StoreSep(0.05), Nodes: 18, Steps: 6, Fo: 2, CheckInterval: 3}
		}},
	}
}

// record executes spec on m, sampled, with a tape attached, and returns the
// Result without its case (motions hold functions, which never compare
// equal).
func record(t *testing.T, spec retimeSpec, m machine.Model) (*Result, *par.Tape) {
	t.Helper()
	cfg := spec.mk()
	cfg.Machine = m
	cfg.Sample = &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0}
	tape := par.NewTape()
	res, err := execute(cfg, tape)
	if err != nil {
		t.Fatalf("%s/%d on %s: %v", spec.name, cfg.Nodes, m.Name, err)
	}
	res.Config.Case = nil
	return res, tape
}

// Machine invariance, as a property: what a run computes, sends and receives
// does not depend on the machine it is timed on, so the tapes of the same
// run on the SP2 and on the SP are equal — and each, replayed under the
// other machine, gives the other's Result bit for bit.
func TestTapeMachineInvariant(t *testing.T) {
	specs := goldenSpecs()
	if testing.Short() {
		specs = append(specs[2:3:3], extraSpecs()...)
	}
	sp2, sp := machine.SP2(), machine.SP()
	for _, spec := range specs {
		res2, tape2 := record(t, spec, sp2)
		resS, tapeS := record(t, spec, sp)
		name := fmt.Sprintf("%s/%d", spec.name, res2.Config.Nodes)
		for _, tape := range []*par.Tape{tape2, tapeS} {
			if reason, void := tape.Voided(); void {
				t.Fatalf("%s: tape void: %s", name, reason)
			}
		}
		if d := tape2.Diff(tapeS); d != "" {
			t.Errorf("%s: the SP2 and SP tapes differ: %s", name, d)
		}
		if spec.name == "storesep-dynamic" && res2.Rebalances == 0 {
			t.Errorf("%s never repartitioned", name)
		}
		if len(res2.Field) == 0 || !reflect.DeepEqual(res2.Field, resS.Field) {
			t.Errorf("%s: the sampled field depends on the machine", name)
		}
		for _, dir := range []struct {
			from, want *Result
			tape       *par.Tape
		}{{res2, resS, tape2}, {resS, res2, tapeS}} {
			got, err := retime(dir.from, dir.tape, dir.want.Config.Machine)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !reflect.DeepEqual(got, dir.want) {
				t.Errorf("%s: re-timed %s→%s differs from executing on %s\n got %+v\nwant %+v", name,
					dir.from.Config.Machine.Name, dir.want.Config.Machine.Name, dir.want.Config.Machine.Name,
					got.Steps, dir.want.Steps)
			}
		}
	}
}

// Where invariance is not claimed: a balancer that feeds on wait times makes
// the computation a function of the machine, and a fault plan is stated
// against the clock; both tapes come back void.
func TestTapeVoidWhereClocksSteer(t *testing.T) {
	diffusive := smallAirfoil(6, math.Inf(1), 4)
	diffusive.Balancer = "diffusive"
	straggler := smallAirfoil(6, math.Inf(1), 4)
	straggler.Faults = &fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 1, Factor: 3, FromStep: 2}}}
	lossy := smallAirfoil(6, math.Inf(1), 2)
	lossy.Faults = &fault.Plan{Seed: 3, Losses: []fault.Loss{{Tag: int(par.TagHalo), From: -1, To: -1, Prob: 0.3}}}
	for name, cfg := range map[string]Config{"diffusive": diffusive, "straggler": straggler, "lossy": lossy} {
		tape := par.NewTape()
		if _, err := execute(cfg, tape); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		reason, void := tape.Voided()
		if !void {
			t.Errorf("%s: the tape is not void", name)
		}
		if _, err := tape.Retime(machine.SP(), nil); err == nil {
			t.Errorf("%s: a void tape replayed", name)
		}
		t.Logf("%s: %s", name, reason)
	}
}

// RunOn is Run on each machine — re-timed where that applies, executed where
// it does not — whichever machine comes first and however many procs run the
// ranks.
func TestRunOnIsRunPerMachine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	run := func(mk func() Config, ms ...machine.Model) ([]*Result, int) {
		t.Helper()
		cfg := mk()
		cfg.Sample = &SampleSpec{FieldGrid: 0, FieldK: -1, SurfaceGrid: 0}
		results, executed, err := RunOn(cfg, ms...)
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range results {
			res.Config.Case = nil
		}
		return results, executed
	}
	specs := []struct {
		retimeSpec
		executions int // of a RunOn on two machines
	}{
		{perfSpec("airfoil", cases.OscAirfoil, 0.05, 12), 1},
		{perfSpec("deltawing", cases.DeltaWing, 0.05, 7), 1},
		{extraSpecs()[0], 1},
		{extraSpecs()[1], 1},
		{retimeSpec{"airfoil-diffusive", func() Config {
			cfg := smallAirfoil(12, math.Inf(1), 4)
			cfg.Balancer = "diffusive"
			return cfg
		}}, 2},
		{retimeSpec{"storesep-straggler", func() Config {
			return Config{Case: cases.StoreSep(0.05), Nodes: 16, Steps: 4, Fo: 2, CheckInterval: 2,
				Faults: &fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 1, Factor: 3, FromStep: 2}}}}
		}}, 2},
		{retimeSpec{"airfoil-onstep", func() Config {
			cfg := smallAirfoil(6, math.Inf(1), 2)
			cfg.OnStep = func(int, StepStats, float64) {}
			return cfg
		}}, 2},
	}
	sp2, sp := machine.SP2(), machine.SP()
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, spec := range specs {
			want2, _ := run(spec.mk, sp2)
			wantS, _ := run(spec.mk, sp)
			if spec.name == "airfoil-onstep" {
				// Functions never compare equal.
				want2[0].Config.OnStep, wantS[0].Config.OnStep = nil, nil
			}
			for _, order := range [][]machine.Model{{sp2, sp}, {sp, sp2}} {
				got, executed := run(spec.mk, order...)
				if executed != spec.executions {
					t.Errorf("%s, %d procs: %d executions, want %d", spec.name, procs, executed, spec.executions)
				}
				for i, res := range got {
					res.Config.OnStep = nil
					want := want2[0]
					if order[i].Name == "SP" {
						want = wantS[0]
					}
					if !reflect.DeepEqual(res, want) {
						t.Errorf("%s, %d procs, %s first: the %s result differs from Run's", spec.name, procs, order[0].Name, order[i].Name)
					}
				}
			}
		}
	}
}

func TestRunOnNeedsAMachine(t *testing.T) {
	if _, _, err := RunOn(smallAirfoil(3, math.Inf(1), 1)); err == nil {
		t.Error("RunOn with no machine returned no error")
	}
}
