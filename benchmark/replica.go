package main

import (
	"time"

	"overd"
	"overd/internal/balance"
	"overd/internal/dcf"
	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/machine"
	"overd/internal/par"
	"overd/internal/sixdof"
)

// The replica step loop makes, from outside, the same public calls that
// core.Run's static path makes for a case with prescribed motion — the same
// set-up, the same three modules per step with barriers between them, and
// flow.Block.FlowStep unrolled into its six calls — so that each call can
// carry a span. It is checked against overd.Run bit for bit on the virtual
// clock (core.replica_match); it exists to attribute host time, not to be
// a second solver.

type replicaRun struct {
	setupS      float64
	unitsMS     []float64
	from, to    usage
	fingerprint string
}

type replica struct {
	c       *overd.Case
	plan    *balance.Plan
	parts   []dcf.Part
	first   []int // first rank of each grid: it moves the shared coordinates
	blocks  []*flow.Block
	solvers []*dcf.Solver
	flowAr  *flow.Arenas
	dcfAr   *dcf.Arenas
	dt      float64
	steps   int
	tr      *tracer
	unit0   int

	t0        time.Time
	out       replicaRun
	totalTime float64
	igbps     int
	orphans   int
}

// staticPlan is Algorithm 1 with the minimal-surface subdivision: the plan
// core.Run builds for the "static" balancer.
func staticPlan(c *overd.Case, nodes int) (*balance.Plan, []dcf.Part, []int) {
	plan, err := balance.Static(c.GridSizes(), nodes)
	if err != nil {
		panic(err) // the benchmark's node counts cover every grid
	}
	balance.SubdividePlan(plan, c.GridDims())
	parts := make([]dcf.Part, plan.NP())
	first := make([]int, len(c.Sys.Grids))
	for i := range first {
		first[i] = -1
	}
	for rank, p := range plan.Parts {
		parts[rank] = dcf.Part{Grid: p.Grid, Rank: p.Rank, Box: p.Box}
		if first[p.Grid] < 0 {
			first[p.Grid] = rank
		}
	}
	return plan, parts, first
}

// motionAt returns grid gi's prescribed placement at time t, as
// core.transformAt does for a case without a free body.
func motionAt(c *overd.Case, gi int, t float64) (xf geom.Transform, moving bool) {
	if gi < len(c.Motions) && c.Motions[gi] != nil {
		if _, static := c.Motions[gi].(sixdof.StaticMotion); !static {
			return c.Motions[gi].At(t), true
		}
	}
	return xf, false
}

// runReplica runs the step loop once. unit0 numbers the first timed unit,
// so that repeats recorded into one tracer keep distinct unit ids.
func runReplica(c *overd.Case, nodes, steps int, tr *tracer, unit0 int) replicaRun {
	if c.FreeBody != nil {
		panic("replica: force-coupled motion is not replicated")
	}
	rp := &replica{c: c, steps: steps, tr: tr, unit0: unit0, t0: time.Now()}
	rp.plan, rp.parts, rp.first = staticPlan(c, nodes)
	rp.blocks = make([]*flow.Block, nodes)
	rp.solvers = make([]*dcf.Solver, nodes)
	rp.flowAr = flow.NewArenas(nodes)
	rp.dcfAr = dcf.NewArenas(nodes)
	world := par.NewWorld(nodes, machine.SP2())
	world.Run(rp.rankMain)
	rp.out.fingerprint = virtualPrint(rp.totalTime, rp.igbps, rp.orphans)
	return rp.out
}

func (rp *replica) buildBlocks() {
	c := rp.c
	for gi, g := range c.Sys.Grids {
		var boxes []grid.IBox
		var ranks []int
		for rank, part := range rp.plan.Parts {
			if part.Grid == gi {
				boxes = append(boxes, part.Box)
				ranks = append(ranks, rank)
			}
		}
		for i, b := range flow.BuildBlocks(g, boxes, ranks, c.FS) {
			if c.ViscousAll {
				b.SetViscousDirs([3]bool{true, true, true})
			}
			b.UseArenas(rp.flowAr)
			rp.blocks[ranks[i]] = b
		}
	}
}

func (rp *replica) rankMain(r *par.Rank) {
	c := rp.c
	ln := rp.tr.lane(r.ID)
	barrier := func() { barrier(ln, r) }

	// Preprocessing, as core.rankMain.
	r.SetPhase(par.PhaseOther)
	if r.ID == 0 {
		ln.begin("flow.build_blocks")
		rp.buildBlocks()
		ln.end()
	}
	barrier()
	s := dcf.NewSolver(c.Overset, rp.parts, r.ID)
	s.UseArenas(rp.dcfAr)
	rp.solvers[r.ID] = s
	barrier()
	ln.begin("dcf.solve_cold")
	s.Solve(r)
	ln.end()
	b := rp.blocks[r.ID]
	ln.begin("flow.refresh_masks")
	b.RefreshMasks()
	ln.end()
	barrier()
	ln.begin("flow.halo")
	b.ExchangeHalo(r)
	ln.end()
	ln.begin("dcf.update_fringes")
	s.UpdateFringes(r, b)
	ln.end()
	barrier()
	if r.ID == 0 {
		rp.dt = c.DT
	}
	if c.DT <= 0 {
		local := b.MaxDTLocal(flow.DefaultCFL)
		global := -r.AllReduceMax(-local)
		if r.ID == 0 {
			rp.dt = global
		}
	}
	barrier()
	startClock := r.Clock
	myGrid := rp.plan.Parts[r.ID].Grid
	var last time.Time

	for step := 0; step < rp.steps; step++ {
		if step > 0 {
			ln.setUnit(rp.unit0 + step - 1)
		}
		ln.begin("step")
		dt := rp.dt

		// Module 1: flow solution.
		r.SetPhase(par.PhaseFlow)
		ln.begin("flow.halo")
		b.ExchangeHalo(r)
		ln.end()
		ln.begin("dcf.update_fringes")
		s.UpdateFringes(r, b)
		ln.end()
		// flow.Block.FlowStep, call by call.
		r.SetWorkingSet(b.WorkingSetBytes())
		ln.begin("flow.halo")
		b.ExchangeHalo(r)
		ln.end()
		ln.begin("flow.bc")
		r.Compute(b.ApplyBCs())
		ln.end()
		ln.begin("flow.turb")
		r.Compute(b.ComputeTurbulence())
		ln.end()
		ln.begin("flow.rhs")
		r.Compute(b.ComputeRHS(dt))
		ln.end()
		ln.begin("flow.adi")
		r.Compute(b.SolveADI(r, dt))
		ln.end()
		ln.begin("flow.update")
		r.Compute(b.ApplyUpdate())
		ln.end()
		ln.begin("flow.bc")
		r.Compute(b.ApplyBCs())
		ln.end()
		barrier()

		// Module 2: grid motion.
		r.SetPhase(par.PhaseMotion)
		t := float64(step+1) * dt
		for gi, g := range c.Sys.Grids {
			if rp.first[gi] != r.ID {
				continue
			}
			if xf, moving := motionAt(c, gi, t); moving {
				ln.begin("grid.apply_transform")
				g.ApplyTransform(xf)
				r.Compute(float64(g.NPoints()) * 12)
				ln.end()
			}
		}
		barrier()
		if c.Sys.Grids[myGrid].Moving {
			ln.begin("flow.refresh_geometry")
			b.RefreshGeometry(dt)
			b.RefreshFreestreamResidual()
			r.Compute(float64(b.NPointsLocal()) * 180)
			ln.end()
		}
		barrier()

		// Module 3: domain connectivity.
		ln.begin("dcf.solve")
		s.Solve(r)
		ln.end()
		r.SetPhase(par.PhaseConnect)
		ln.begin("flow.refresh_masks")
		b.RefreshMasks()
		ln.end()
		barrier()

		// The (inactive) balance check of a static run.
		r.SetPhase(par.PhaseBalance)
		barrier()

		if r.ID == 0 {
			// Where core captures the step's statistics and calls OnStep.
			now := time.Now()
			if step == 0 {
				rp.out.setupS = now.Sub(rp.t0).Seconds()
				rp.out.from = readUsage()
				now = rp.out.from.at
			} else {
				rp.out.unitsMS = append(rp.out.unitsMS, now.Sub(last).Seconds()*1e3)
			}
			if step == rp.steps-1 {
				rp.totalTime = r.Clock - startClock
				rp.igbps = 0
				for _, sv := range rp.solvers {
					rp.igbps += sv.IGBPCount()
				}
				rp.out.to = readUsage()
			}
			last = now
		}
		barrier()
		ln.end() // step
		ln.setUnit(-1)
	}

	if r.ID == 0 {
		for _, sv := range rp.solvers {
			_, orph := sv.DonorCounts()
			rp.orphans += orph
		}
	}
}
