// Package core is the OVERFLOW-D1 analog: it bundles the parallel flow
// solver (package flow), the distributed domain-connectivity solution
// (package dcf), grid motion (package sixdof), and the static/dynamic load
// balancers (package balance) into the three-step unsteady solution loop of
// the paper — 1) solve the flow equations, 2) move grid components,
// 3) re-establish domain connectivity — with barriers between modules and
// per-module virtual-time accounting on a simulated machine.
package core

import (
	"errors"
	"fmt"
	"math"

	"overd/internal/balance"
	"overd/internal/cases"
	"overd/internal/dcf"
	"overd/internal/fault"
	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/machine"
	"overd/internal/metrics"
	"overd/internal/par"
	"overd/internal/trace"
)

// Config describes one run.
type Config struct {
	Case    *cases.Case
	Nodes   int
	Machine machine.Model
	Steps   int
	// Fo is the dynamic load-balance factor (Algorithm 2); +Inf or 0
	// disables the dynamic scheme (pure static balancing).
	Fo float64
	// CheckInterval is the number of steps between dynamic-balance checks.
	CheckInterval int
	// Balancer selects the load-balancing scheme by registry name
	// ("static", "dynamic", "sfc", "diffusive"; see package balance).
	// Empty resolves from Fo for compatibility: a finite positive Fo means
	// "dynamic", anything else "static" — exactly the pre-interface
	// behavior, bit for bit. Run stores the resolved name back into
	// Result.Config.Balancer.
	Balancer string
	// CFL scales the stability-limited timestep when the case's DT is 0.
	CFL float64
	// Sample optionally extracts field and surface data from the final
	// solution (see SampleSpec).
	Sample *SampleSpec
	// SlabDecomp uses 1-D slab subdomains instead of the prime-factor
	// minimal-surface subdivision (the Fig. 4 ablation baseline).
	SlabDecomp bool
	// Workers bounds how many rank goroutines run host code simultaneously
	// (see par.World.SetParallelism). 0 or >= Nodes means unbounded — every
	// rank runnable at once, multiplexed over GOMAXPROCS by the Go
	// scheduler. It is a host-side resource control only: any value yields
	// bit-identical virtual clocks, traces, metrics and tables, which is why
	// the job service may vary it per job without perturbing the
	// content-addressed result cache.
	Workers int
	// Storage, when non-nil, is where the run takes what it builds by first
	// use — block memory, per-rank buffers — and leaves it for the next run
	// (see Storage). Like Workers it is a host-side resource control only: nil —
	// allocate, then drop — and any Storage, whatever it held before, yield
	// bit-identical results. Result.Config does not keep it.
	Storage *Storage
	// Trace, when non-nil, records every rank's virtual-time events for
	// wait/idle attribution, critical-path analysis, and Chrome trace
	// export (see package trace). Nil adds no cost and changes no times.
	// On a run that restarts after an injected crash, the trace covers the
	// final (successful) attempt only.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives typed counters/gauges/histograms
	// from the runtime and numerical layers (see package metrics), plus a
	// post-run roll-up derived from Result and — when Trace is also set —
	// from the trace summary. Nil adds no cost and changes no times; like
	// Trace, live per-rank series cover the final attempt only.
	Metrics *metrics.Registry
	// Faults, when non-nil, is the deterministic fault plan perturbing the
	// run (see package fault). Nil — or an empty plan — leaves every
	// virtual clock and Result number bit-identical to an unfaulted run.
	Faults *fault.Plan
	// CheckpointEvery is the number of steps between checkpoint snapshots
	// used to recover from injected rank crashes. 0 picks a default (5)
	// when the fault plan schedules crashes and disables checkpointing
	// otherwise; negative disables it entirely (a crash then restarts the
	// run from step 0 on the surviving nodes).
	CheckpointEvery int
	// OnStep, when non-nil, is invoked by rank 0 after each timestep's
	// statistics capture with the 0-based step index, that step's stats,
	// and rank 0's virtual clock. It is a host-side observer: it runs on
	// the rank-0 goroutine between module barriers, reads nothing but its
	// arguments, and must not block for long (every simulated rank is
	// waiting on the trailing barrier). Like Trace and Metrics it never
	// advances a virtual clock, so attaching it leaves runs bit-identical;
	// on a crash-restart attempt, re-executed steps fire it again.
	OnStep func(step int, stats StepStats, vclock float64)
	// Interrupt, when non-nil, is the run's cancellation hook: rank 0
	// polls it at each step boundary (after that step's OnStep) with the
	// 0-based step index. Returning a non-nil error stops the run cleanly
	// — every rank exits the timestep loop at the same boundary, the
	// world's goroutines join, and Run returns an *InterruptError wrapping
	// the hook's error instead of a Result. The hook runs on the host wall
	// clock and is never charged to a virtual clock, so a hook that keeps
	// returning nil (or a nil hook) leaves the run bit-identical; it is
	// how the job service threads a context.Context's deadline or a
	// DELETE /jobs cancellation into a running solve without perturbing
	// uncancelled runs. The final step is never polled — a run that
	// reaches it completes.
	Interrupt func(step int) error
}

// InterruptError reports a run stopped by Config.Interrupt. Unwrap exposes
// the hook's error so callers can classify the cause with errors.Is (e.g.
// context.Canceled vs context.DeadlineExceeded).
type InterruptError struct {
	// Step is the 0-based step boundary at which the hook fired.
	Step int
	// Err is the hook's error.
	Err error
}

func (e *InterruptError) Error() string {
	return fmt.Sprintf("core: run interrupted at step %d: %v", e.Step, e.Err)
}

func (e *InterruptError) Unwrap() error { return e.Err }

// StepStats records one timestep's virtual-time breakdown (seconds, equal
// across ranks because modules are barrier-separated).
type StepStats struct {
	Flow    float64
	Motion  float64
	Connect float64
	Balance float64
	// FlowWait..BalanceWait are rank 0's blocked seconds inside each
	// module this step (receive wait plus barrier wait) — the
	// communication-overhead share the aggregate module times hide. Wait
	// time varies by rank; rank 0's is recorded as the representative
	// because it costs nothing to read (no extra collectives that would
	// perturb the virtual clocks).
	FlowWait    float64
	MotionWait  float64
	ConnectWait float64
	BalanceWait float64
	// IGBPs is the composite fringe count this step.
	IGBPs int
	// MaxF is the connectivity load-imbalance factor max_p I(p)/Ī.
	MaxF float64
}

// TotalWait returns the step's blocked time across all modules (rank 0).
func (s StepStats) TotalWait() float64 {
	return s.FlowWait + s.MotionWait + s.ConnectWait + s.BalanceWait
}

// Total returns the step's wall time across all modules.
func (s StepStats) Total() float64 { return s.Flow + s.Motion + s.Connect + s.Balance }

// Result summarizes a run.
type Result struct {
	Config    Config
	Steps     []StepStats
	TotalTime float64 // virtual seconds over the measured steps
	Flops     float64 // total floating-point work over measured steps
	// Phase totals (virtual seconds).
	FlowTime, MotionTime, ConnectTime, BalanceTime float64
	// Per-module blocked time (rank 0's receive + barrier wait seconds)
	// over the measured steps; subsets of the matching phase totals.
	FlowWaitTime, MotionWaitTime, ConnectWaitTime, BalanceWaitTime float64
	// Rebalances counts step-boundary repartitions (dynamic or diffusive
	// scheme).
	Rebalances int
	// MovedPoints is the total gridpoint volume those repartitions
	// shipped between ranks (owner changed), summed over all rebalances.
	MovedPoints int
	// IGBPs is the steady-state composite fringe count.
	IGBPs int
	// Orphans is the final orphan count.
	Orphans int
	// Force is the latest aerodynamic force on the case's moving body.
	Force geom.Vec3
	// Np is the final per-grid processor distribution.
	Np []int
	// Tau is the static balancer's converged tolerance factor.
	Tau float64
	// Field and Surface hold sampled output when Config.Sample is set.
	Field   []FieldSample
	Surface []SurfaceSample

	// Fault and recovery reporting (zero on fault-free runs). TotalTime,
	// Flops and the phase totals above include the work of crashed
	// attempts that was later redone — they measure the cost to solution
	// under the fault plan, not just the final attempt.
	//
	// Recoveries counts crash-triggered restarts; RecoverySteps the
	// timesteps re-executed because they post-dated the last checkpoint;
	// RecoveryTime the virtual seconds of lost (re-executed) work.
	Recoveries    int
	RecoverySteps int
	RecoveryTime  float64
	// Checkpoints counts snapshots taken; CheckpointTime is their modeled
	// virtual cost (rank 0).
	Checkpoints    int
	CheckpointTime float64
	// FinalNodes is the processor count of the successful attempt (smaller
	// than Config.Nodes after crashes).
	FinalNodes int
	// DroppedMsgs counts fault-injected message drops across all ranks and
	// attempts; SendRetries the reliable-send retransmissions among them;
	// FaultWaitTime the total virtual seconds (summed over ranks and
	// attempts) lost to retry backoff and loss discovery.
	DroppedMsgs   int
	SendRetries   int
	FaultWaitTime float64
}

// MflopsPerNode returns the average per-node Megaflop rate, the paper's
// Table 1/3/4 statistic: total flops over (wall time x nodes).
func (r *Result) MflopsPerNode() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return r.Flops / (r.TotalTime * float64(r.Config.Nodes)) / 1e6
}

// PctConnect returns the percentage of time spent in the connectivity
// solution (the paper's "% time in DCF3D").
func (r *Result) PctConnect() float64 {
	t := r.TotalTime
	if t <= 0 {
		return 0
	}
	return 100 * r.ConnectTime / t
}

// TotalWaitTime returns rank 0's blocked seconds over the measured steps,
// summed across modules.
func (r *Result) TotalWaitTime() float64 {
	return r.FlowWaitTime + r.MotionWaitTime + r.ConnectWaitTime + r.BalanceWaitTime
}

// PctWait returns the percentage of the measured time rank 0 spent blocked
// (receive wait plus barrier wait) rather than computing.
func (r *Result) PctWait() float64 {
	if r.TotalTime <= 0 {
		return 0
	}
	return 100 * r.TotalWaitTime() / r.TotalTime
}

// TimePerStep returns virtual seconds per timestep.
func (r *Result) TimePerStep() float64 {
	if len(r.Steps) == 0 {
		return 0
	}
	return r.TotalTime / float64(len(r.Steps))
}

// Run executes the case on the simulated machine and returns the measured
// statistics. The initial connectivity solution and solver setup are
// treated as preprocessing and excluded, as in the paper's tables.
//
// Under a fault plan with scheduled rank crashes, Run recovers: a crashed
// rank surfaces as a typed failure, the run rolls back to the last
// checkpoint (or step 0 without one), the dead rank's work is re-spread
// over the survivors by the static balancer, and the loop resumes — with
// the recovery cost recorded in the Result rather than returned as an
// error. Non-crash rank panics still propagate as panics (they are bugs).
func Run(cfg Config) (*Result, error) {
	results, _, err := RunOn(cfg, cfg.Machine)
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// RunOn is Run on several machines (cfg.Machine is not read): it returns one
// Result per machine, each what Run returns for that machine. The case is
// executed once, on the first; its flow field, donors, flops and messages
// are the same whatever the machine, so the other Results are re-timed from
// the tape of that execution (see par.Tape) and share everything that is not
// a time with the first.
//
// Where re-timing does not apply the case is executed once per machine
// instead: when anything that reads clocks as the run goes is attached
// (Trace, Metrics, Faults, OnStep, Interrupt, CheckpointEvery), and when the
// tape comes back void (the balancer fed on wait times, say). executed is
// the number of executions, 1 or len(machines).
func RunOn(cfg Config, machines ...machine.Model) (results []*Result, executed int, err error) {
	if len(machines) == 0 {
		return nil, 0, fmt.Errorf("core: no machine to run on")
	}
	var tape *par.Tape
	var initial cases.Placement
	if len(machines) > 1 {
		if cfg.Trace == nil && cfg.Metrics == nil && cfg.Faults == nil &&
			cfg.OnStep == nil && cfg.Interrupt == nil && cfg.CheckpointEvery == 0 {
			tape = cfg.Storage.getTape()
			defer cfg.Storage.putTape(tape)
		}
		// A run moves its case; one that re-executes starts where the first
		// did.
		initial = cfg.Case.Placement()
	}
	cfg.Machine = machines[0]
	first, err := execute(cfg, tape)
	if err != nil {
		return nil, 1, err
	}
	results, executed = append(results, first), 1
	retimes := tape != nil
	if retimes {
		_, void := tape.Voided()
		retimes = !void
	}
	for _, m := range machines[1:] {
		var res *Result
		if retimes {
			res, err = retime(first, tape, m)
		} else {
			initial.Restore(cfg.Case)
			cfg.Machine = m
			res, err = execute(cfg, nil)
			executed++
		}
		if err != nil {
			return nil, executed, err
		}
		results = append(results, res)
	}
	return results, executed, nil
}

// execute runs cfg's case on cfg.Machine. tape, when non-nil, records the
// run for re-timing; it comes back void if the run did anything a replay
// would not reproduce.
func execute(cfg Config, tape *par.Tape) (*Result, error) {
	if cfg.Steps < 1 {
		return nil, fmt.Errorf("core: need at least 1 step")
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 5
	}
	if cfg.CFL <= 0 {
		cfg.CFL = flow.DefaultCFL
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, err
		}
	}
	// The slab store stays out of the run's own copy of the configuration:
	// no rank reaches it but through runState, and the Result holds none.
	storage := cfg.Storage
	cfg.Storage = nil
	c := cfg.Case
	sizes := c.GridSizes()
	dims := c.GridDims()

	// Resolve the balancer. The empty name reproduces the historical
	// behavior exactly: a finite positive Fo selects the dynamic scheme,
	// anything else pure static balancing.
	if cfg.Balancer == "" {
		if cfg.Fo > 0 && !math.IsInf(cfg.Fo, 1) {
			cfg.Balancer = "dynamic"
		} else {
			cfg.Balancer = "static"
		}
	}
	bal, err := balance.New(cfg.Balancer, balance.Params{
		Fo: cfg.Fo, CheckInterval: cfg.CheckInterval,
	})
	if err != nil {
		return nil, err
	}
	// Grid centers feed geometry-aware balancers (SFC placement); computed
	// host-side, they cost no virtual time and are ignored by the others.
	centers := make([][3]float64, len(c.Sys.Grids))
	for i, g := range c.Sys.Grids {
		b := g.Bounds()
		centers[i] = [3]float64{
			(b.Min.X + b.Max.X) / 2,
			(b.Min.Y + b.Max.Y) / 2,
			(b.Min.Z + b.Max.Z) / 2,
		}
	}

	eng := fault.NewEngine(cfg.Faults)
	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 && cfg.Faults.HasCrashes() {
		ckEvery = 5
	}
	if ckEvery < 0 {
		ckEvery = 0
	}

	nodes := cfg.Nodes
	var rec recovery
	var ck *checkpoint
	for {
		input := balance.Input{
			Sizes: sizes, Dims: dims, Centers: centers,
			NP: nodes, Slabs: cfg.SlabDecomp,
		}
		plan, err := bal.Plan(input)
		if err != nil {
			return nil, err
		}

		// The world's machine copy carries the fault hooks; cfg.Machine
		// stays clean (nil hooks delegate to the exact unhooked arithmetic,
		// so a nil or empty plan is bit-identical to no fault layer).
		mach := cfg.Machine
		if eng != nil {
			mach.RateHook = eng.RateScale
			mach.LinkHook = eng.LinkScale
			eng.Attach(nodes)
		}
		world := par.NewWorld(nodes, mach)
		world.SetParallelism(cfg.Workers)
		world.SetTrace(cfg.Trace)
		world.SetMetrics(cfg.Metrics)
		world.SetTape(tape)
		if eng != nil {
			world.SetFaults(eng)
			// The plan's rates, links and crashes are stated against this
			// run's clock and steps; a replay has neither.
			tape.Void("a fault plan is attached")
		}
		st := newRunState(cfg, plan)
		st.storage, st.kit = storage, storage.getKit(nodes)
		st.layoutBlocks()
		st.eng, st.ckEvery = eng, ckEvery
		st.balInput = input
		if sb, ok := bal.(balance.StepBalancer); ok && sb.Active() {
			// Only an active step balancer gathers measurements at check
			// boundaries; anything else leaves the balance phase exactly
			// as a pure static run (bit-identical clocks).
			st.stepBal = sb
			if sb.Needs().Waits {
				tape.Void("the balancer reads wait times")
			}
		}
		if ck != nil {
			st.restoreFrom(ck)
		}

		ranks, err := world.RunErr(func(r *par.Rank) { st.rankMain(r) })
		// The last reader of the blocks is finish (sampling); after it the
		// attempt's slab and kit go back, however the attempt ended.
		var done *Result
		if err == nil && st.stopErr == nil {
			done = st.finish()
		}
		storage.put(st.slab)
		storage.putKit(st.kit)
		// What the attempt is charged: all its ranks did if it finished, what
		// they had done as the crash step began if it died. (Where each
		// survivor was when the poison reached it is host timing.)
		if err == nil {
			for i, rk := range ranks {
				st.tops[i] = tallyOf(rk)
			}
		}
		for _, t := range st.tops {
			rec.dropped += t.dropped
			rec.retries += t.retries
			rec.faultWait += t.faultWait
		}
		if err == nil {
			if st.stopErr != nil {
				return nil, &InterruptError{Step: st.stopStep, Err: st.stopErr}
			}
			res := rec.merge(done)
			rollupMetrics(cfg, res)
			return res, nil
		}
		var rf *par.RankFailure
		if !errors.As(err, &rf) {
			panic(err.Error())
		}
		crash, isCrash := rf.Crashed()
		if !isCrash || eng == nil {
			// A real bug, not a modeled crash: fail as loudly as Run
			// always has.
			panic(err.Error())
		}

		// Account the failed attempt: which step and clock the next attempt
		// resumes from, how much measured work was lost, and the raw flops
		// and module times it burned (they are part of the cost to
		// solution under the fault plan).
		rec.count++
		start := st.led.start
		resumeStep, resumeClock := 0, start.clock
		if st.ck != nil {
			resumeStep = st.ck.step
			if st.ck != ck {
				// Captured during this attempt: the loss is only the work
				// since the snapshot, on this attempt's own timeline.
				resumeClock = st.ck.clock
			}
		}
		rec.steps += crash.Step - resumeStep
		rec.time += crash.Clock - resumeClock
		rec.prevTime += crash.Clock - start.clock
		for i, t := range st.tops {
			rec.flops += t.flops - st.preFlops[i]
		}
		for i := range modules {
			rec.mod[i] += st.top.mod[i] - start.mod[i]
			rec.wait[i] += st.top.wait[i] - start.wait[i]
		}
		rec.checkpoints += st.result.Checkpoints
		rec.checkpointTime += st.result.CheckpointTime
		ck = st.ck

		nodes--
		if nodes < 1 {
			return nil, fmt.Errorf("core: rank %d crashed at step %d and no nodes remain to restart on", rf.Rank, crash.Step)
		}
	}
}

// recovery accumulates fault bookkeeping across crashed attempts.
type recovery struct {
	count, steps     int
	time, prevTime   float64
	flops            float64
	mod, wait        [4]float64 // rank 0's time and blocked time per module
	checkpoints      int
	checkpointTime   float64
	dropped, retries int
	faultWait        float64
}

// merge folds the accumulated recovery cost of crashed attempts into the
// successful attempt's Result.
func (rec *recovery) merge(res *Result) *Result {
	res.TotalTime += rec.prevTime
	res.Flops += rec.flops
	res.FlowTime += rec.mod[0]
	res.MotionTime += rec.mod[1]
	res.ConnectTime += rec.mod[2]
	res.BalanceTime += rec.mod[3]
	res.FlowWaitTime += rec.wait[0]
	res.MotionWaitTime += rec.wait[1]
	res.ConnectWaitTime += rec.wait[2]
	res.BalanceWaitTime += rec.wait[3]
	res.Recoveries = rec.count
	res.RecoverySteps = rec.steps
	res.RecoveryTime = rec.time
	res.Checkpoints += rec.checkpoints
	res.CheckpointTime += rec.checkpointTime
	res.DroppedMsgs = rec.dropped
	res.SendRetries = rec.retries
	res.FaultWaitTime = rec.faultWait
	return res
}

// finish assembles the Result after all ranks have returned.
func (st *runState) finish() *Result {
	st.sampleResults()
	res := st.result
	res.Config = st.cfg
	res.Steps = st.stats
	res.Rebalances = st.rebalances
	res.MovedPoints = st.movedPoints
	res.Np = append([]int(nil), st.plan.Np...)
	res.Tau = st.plan.Tau
	res.FinalNodes = st.plan.NP()
	if n := len(st.stats); n > 0 {
		res.IGBPs = st.stats[n-1].IGBPs
	}
	return &res
}

// EstimateSerialTime models the single-processor Cray reference of Table 6:
// the same floating-point work executed at the serial machine's sustained
// rate with no communication ("1 YMP unit = 1 unit of time on [a] single
// processor Cray YMP/864").
func EstimateSerialTime(flops float64, m machine.Model) float64 {
	return m.ComputeTime(flops, 64<<20)
}

// runState is the shared coordination state of one run; per-rank slices are
// indexed by rank and touched only at barrier-separated points.
type runState struct {
	cfg  Config
	plan *balance.Plan

	blocks  []*flow.Block
	solvers []*dcf.Solver

	// The blocks' memory: every block of the current plan lives in its
	// range (layout) of one slab taken from storage, which may be nil;
	// slabZeroed says the slab came new. Written by layoutBlocks only.
	storage    *Storage
	layout     *blockLayout
	slab       []float64
	slabZeroed bool

	// The world's envelope arenas and per-rank first-use buffers, from
	// storage, attached to every block and solver (see buildRank).
	kit kit

	dt float64

	stats       []StepStats
	rebalances  int
	movedPoints int
	result      Result

	// Step-boundary balancer state: stepBal is non-nil only when the
	// resolved balancer has an active step hook; balInput is the planning
	// input re-presented at each check; prevClock/prevWait are per-rank
	// snapshots from the previous check, used to compute busy/wait deltas
	// for balancers that need them.
	stepBal   balance.StepBalancer
	balInput  balance.Input
	prevClock []float64
	prevWait  []float64

	// Fault layer (nil/zero on unfaulted runs).
	eng     *fault.Engine
	ckEvery int
	// Restart state primed by restoreFrom before the world starts.
	startStep int
	restored  bool
	restoreQ  [][]float64
	ck        *checkpoint
	// Rank 0's snapshots of the measured window (see ledger), and each rank's
	// flops where it opens.
	led      ledger
	preFlops []float64
	// What each rank, and rank 0's clocks, had been charged at the top of the
	// last step it began: Run accounts a crashed attempt from these after the
	// world's goroutines have joined.
	tops []tally
	top  snapshot
	// Interrupt outcome: rank 0 writes these between the post-balance
	// barrier and the trailing step barrier (peers quiescent); every rank
	// reads them at the next step boundary, after that barrier's
	// happens-before edge, so all ranks leave the loop together.
	stopErr  error
	stopStep int
}

func newRunState(cfg Config, plan *balance.Plan) *runState {
	n := plan.NP()
	st := &runState{
		cfg:       cfg,
		plan:      plan,
		blocks:    make([]*flow.Block, n),
		solvers:   make([]*dcf.Solver, n),
		preFlops:  make([]float64, n),
		tops:      make([]tally, n),
		prevClock: make([]float64, n),
		prevWait:  make([]float64, n),
	}
	return st
}
