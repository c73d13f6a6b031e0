package overd

import (
	"fmt"
	"math"

	"overd/internal/cases"
	"overd/internal/core"
)

// runSpec names one numerical computation of a sweep: everything that decides
// a run's flow field, donors, flops and messages. The machine is not in it —
// the same computation timed on a second machine is a re-timing (core.RunOn)
// — and two tables that ask for equal specs ask for the same run.
type runSpec struct {
	mk       string  // case constructor, a key of caseMakers
	scale    float64 // its argument
	nodes    int
	steps    int
	fo       float64
	check    int    // Config.CheckInterval
	balancer string // Config.Balancer
	faults   string // fault plan, a key of faultPlans; "" for none
}

var caseMakers = map[string]func(float64) *Case{
	"airfoil":   OscillatingAirfoil,
	"deltawing": DescendingDeltaWing,
	"storesep":  StoreSeparation,
}

var faultPlans = map[string]func() *FaultPlan{
	"straggler": Table5FaultPlan,
}

// ran is what a sweep keeps of a finished run: the Result without its case
// (a memo that held cases would pin every grid of the sweep), the one number
// reducers read from the case, and which row first asked for the run.
type ran struct {
	*Result
	points int // the case's composite gridpoint count
	label  string
}

// sweep executes the runs of one EmitTablesJSON / FprintTables / RunTableN /
// RunBalancerSweep call: each distinct spec once, however many rows, tables
// and machines ask for it. The memo lives and dies with the call.
type sweep struct {
	opt  Options
	memo map[memoKey]*ran
	// executed counts executions of a case (as against results re-timed or
	// handed back from the memo).
	executed int
	// The latest case built, which constructor and scale built it and where
	// it started: the rows of a table, and of the next table on the same
	// case, run one after another on one case put back between them (as
	// core.RunOn does between machines), and only one case is ever held.
	// built counts constructions.
	c     *Case
	from  caseKey
	start cases.Placement
	built int
}

type caseKey struct {
	mk    string
	scale float64
}

type memoKey struct {
	spec    runSpec
	machine string
}

func newSweep(opt Options) *sweep {
	return &sweep{opt: opt.withDefaults(), memo: map[memoKey]*ran{}}
}

// perfSpec is the spec of the paper's performance tables: static balancing
// over the sweep's scale and steps.
func (s *sweep) perfSpec(mk string, nodes int) runSpec {
	return runSpec{mk: mk, scale: s.opt.Scale, nodes: nodes, steps: s.opt.Steps, fo: math.Inf(1)}
}

// run returns spec's outcome on each of the machines, for the row named by
// label. With a metrics registry attached every run executes, machine by
// machine, because the registry must end up holding the last run's series.
func (s *sweep) run(label string, spec runSpec, machines ...Machine) ([]*ran, error) {
	out := make([]*ran, len(machines))
	if s.opt.Metrics != nil {
		for i, m := range machines {
			rs, err := s.execute(label, spec, m)
			if err != nil {
				return nil, err
			}
			out[i] = rs[0]
		}
		return out, nil
	}
	var missing []Machine
	for _, m := range machines {
		if s.memo[memoKey{spec, m.Name}] == nil {
			missing = append(missing, m)
		}
	}
	if len(missing) > 0 {
		rs, err := s.execute(label, spec, missing...)
		if err != nil {
			return nil, err
		}
		for i, m := range missing {
			s.memo[memoKey{spec, m.Name}] = rs[i]
		}
	}
	for i, m := range machines {
		out[i] = s.memo[memoKey{spec, m.Name}]
	}
	if len(missing) == 0 {
		s.opt.logf("%s: shared with %s", label, out[0].label)
	}
	return out, nil
}

// execute runs spec's case on the machines through one core.RunOn: one
// execution, and a re-timing per further machine where that applies.
func (s *sweep) execute(label string, spec runSpec, machines ...Machine) ([]*ran, error) {
	s.opt.logf("%s on %s...", label, machines[0].Name)
	if key := (caseKey{spec.mk, spec.scale}); s.from != key {
		s.c, s.from = caseMakers[spec.mk](spec.scale), key
		s.start = s.c.Placement()
		s.built++
		s.opt.logf("(%s case built at scale %g)", spec.mk, spec.scale)
	} else {
		s.start.Restore(s.c)
	}
	var plan *FaultPlan
	if spec.faults != "" {
		plan = faultPlans[spec.faults]()
	}
	results, executed, err := core.RunOn(Config{
		Case: s.c, Nodes: spec.nodes, Steps: spec.steps,
		Fo: spec.fo, CheckInterval: spec.check, Balancer: spec.balancer,
		Faults: plan, Metrics: s.opt.Metrics, Storage: s.opt.Storage,
	}, machines...)
	s.executed += executed
	if err != nil {
		return nil, fmt.Errorf("%s: %w", label, err)
	}
	how := "re-timed"
	if executed > 1 {
		how = "executed (re-timing does not apply)"
	}
	out := make([]*ran, len(results))
	points := s.c.Sys.NPoints()
	for i, res := range results {
		if i > 0 {
			s.opt.logf("%s on %s: %s", label, machines[i].Name, how)
		}
		res.Config.Case = nil
		out[i] = &ran{Result: res, points: points, label: label}
	}
	return out, nil
}
