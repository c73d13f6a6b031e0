package core

import (
	"overd/internal/balance"
	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/par"
	"overd/internal/sixdof"
)

// rankMain is one rank's whole-run body: setup (excluded from statistics),
// then the paper's three-module timestep loop with barriers between
// modules, plus the periodic dynamic-balance check.
func (st *runState) rankMain(r *par.Rank) {
	c := st.cfg.Case

	// ---- Preprocessing (excluded from statistics, like the paper's). ----
	r.SetPhase(par.PhaseOther)
	st.buildRank(r.ID)
	if st.restoreQ != nil {
		// Restarting after an injected crash: reload the checkpointed
		// conserved field into the new partition's block.
		st.loadQ(r.ID)
	}
	// Two barriers: the modeled set-up synchronizes once after the blocks
	// and once after the solvers.
	r.Barrier()
	r.Barrier()
	// Initial connectivity (from scratch) and fringe data.
	st.solvers[r.ID].Solve(r)
	st.blocks[r.ID].RefreshMasks()
	r.Barrier()
	st.blocks[r.ID].ExchangeHalo(r)
	st.solvers[r.ID].UpdateFringes(r, st.blocks[r.ID])
	r.Barrier()
	// Timestep: stability-limited global minimum, held fixed. A restarted
	// attempt keeps the checkpointed dt (the run's frozen timestep) so the
	// resumed trajectory matches the original.
	if !st.restored {
		if r.ID == 0 {
			st.dt = c.DT
		}
		if c.DT <= 0 {
			local := st.blocks[r.ID].MaxDTLocal(st.cfg.CFL)
			global := -r.AllReduceMax(-local)
			if r.ID == 0 {
				st.dt = global
			}
		}
	}
	r.Barrier()

	// Statistics measure the timestep loop only; record the preprocessing
	// baselines to subtract (the paper's tables exclude preprocessing).
	// Open the metrics window at the same instant: windowed metrics zero
	// here so their totals reconcile exactly with the trace summary, whose
	// window is [start of measurement, last-step capture] (all clocks equal
	// after the preprocessing barrier above).
	r.MetricsWindowStart()
	if reg := r.MetricsRegistry(); reg != nil {
		publishRankGridpoints(reg, r, st.plan.Parts[r.ID].Grid,
			st.blocks[r.ID].NPointsLocal())
	}
	s0Flops := r.TotalFlops()
	st.preFlops[r.ID] = s0Flops
	// Busy/wait baselines for wait-fed step balancers: deltas start at the
	// measurement window, not at rank launch, so preprocessing cost never
	// reads as timestep-loop imbalance.
	st.prevClock[r.ID] = r.Clock
	st.prevWait[r.ID] = r.TotalWaitTime()
	if r.ID == 0 {
		st.led.open(account(r))
	}

	// ---- Timestep loop. ----
	for step := st.startStep; step < st.cfg.Steps; step++ {
		if st.stopErr != nil {
			// Interrupted: rank 0 set stopErr during the previous step and
			// the trailing barrier every rank just crossed published it, so
			// all ranks break at the same boundary and fall through to the
			// joint post-loop collectives.
			break
		}
		// What the rank has been charged as the step begins, for Run to account
		// an attempt that dies in this step. Every rank gets here and no
		// further: the barrier it just left returns to all, this is
		// straight-line code, and the step's first barrier needs the dead.
		st.tops[r.ID] = tallyOf(r)
		if r.ID == 0 {
			st.top = snap(r)
		}
		if st.eng != nil {
			// Scheduled rank crashes fire at the top of the step, where the
			// module barriers have just equalized every clock; the panic is
			// typed so Run can tell a modeled crash from a genuine bug.
			if st.eng.CrashNow(r.ID, step) {
				panic(par.Crash{Step: step, Clock: r.Clock})
			}
			st.eng.BeginStep(r.ID, step)
		}

		// Module 1: flow solution (includes intergrid BC data exchange).
		r.SetPhase(par.PhaseFlow)
		b := st.blocks[r.ID]
		b.ExchangeHalo(r)
		st.solvers[r.ID].UpdateFringes(r, b)
		b.FlowStep(r, st.dt)
		r.Barrier()

		// Module 2: grid motion.
		r.SetPhase(par.PhaseMotion)
		st.moveGrids(r, step)
		r.Barrier()

		// Module 3: re-establish domain connectivity.
		st.solvers[r.ID].Solve(r)
		r.SetPhase(par.PhaseConnect)
		st.blocks[r.ID].RefreshMasks()
		r.Barrier()

		// Step-boundary load balance check (Algorithm 2 or a registered
		// competitor). stepBal is nil unless the resolved balancer has an
		// active step hook, so static-style runs cross this phase without
		// a single collective.
		r.SetPhase(par.PhaseBalance)
		if st.stepBal != nil && (step+1)%st.cfg.CheckInterval == 0 {
			st.balanceStep(r, step)
		}
		r.Barrier()
		if step == st.cfg.Steps-1 {
			// Close the metrics window where the trace window closes: the
			// barrier above equalized every clock at what will be recorded
			// as TotalTime; the trailing synchronization and the post-loop
			// flops reduction are bookkeeping outside the measured window.
			r.MetricsWindowEnd()
		}

		// Record the step's phase deltas (equal across ranks after the
		// barriers; rank 0 writes).
		if r.ID == 0 {
			now := account(r)
			stats := StepStats{}
			maxI, sumI := 0, 0
			for _, s := range st.solvers {
				stats.IGBPs += s.IGBPCount()
				if s.ReceivedIGBPs > maxI {
					maxI = s.ReceivedIGBPs
				}
				sumI += s.ReceivedIGBPs
			}
			if sumI > 0 {
				stats.MaxF = float64(maxI) * float64(len(st.solvers)) / float64(sumI)
			}
			st.led.closeStep(now, &stats)
			st.stats = append(st.stats, stats)
			publishStepMetrics(r.MetricsRegistry(), stats.MaxF, stats.IGBPs, r.Clock)
			if st.cfg.OnStep != nil {
				st.cfg.OnStep(step, stats, r.Clock)
			}
			if st.cfg.Interrupt != nil && step+1 < st.cfg.Steps {
				// Cancellation poll: host-side only, never charged to a
				// virtual clock. Skipped on the final step — the run is
				// about to complete anyway.
				if err := st.cfg.Interrupt(step); err != nil {
					st.stopErr = err
					st.stopStep = step
				}
			}
			if step == st.cfg.Steps-1 {
				// End-of-run capture from the same snapshot, so phase
				// sums, step totals and TotalTime agree exactly; the
				// trailing synchronization below is bookkeeping.
				st.led.closeRun(now, &st.result)
				// Mark the measured interval so trace analyses (summary,
				// critical path) reconcile with TotalTime, which excludes
				// preprocessing; all clocks are equal here because the
				// module barriers just synchronized them.
				if st.cfg.Trace != nil {
					st.cfg.Trace.SetWindow(st.led.start.clock, r.Clock)
				}
			}
		}
		if st.ckEvery > 0 && (step+1)%st.ckEvery == 0 && step+1 < st.cfg.Steps {
			// Peers are quiescent between the stats capture above and the
			// trailing barrier, so rank 0 may snapshot every block race-free.
			st.writeCheckpoint(r, step+1)
		}
		r.Barrier()
	}

	// Final diagnostics (times were captured with the last step's stats).
	if r.ID == 0 {
		st.result.Orphans = 0
		for _, s := range st.solvers {
			_, orph := s.DonorCounts()
			st.result.Orphans += orph
		}
	}
	// Flops over the measured window only (preprocessing subtracted).
	total := r.AllReduceSum(r.TotalFlops() - s0Flops)
	if r.ID == 0 {
		st.result.Flops = total
	}
}

// moveGrids advances every moving component to the next time level and
// refreshes rank-local geometry: each rank transforms its own subdomain of
// the shared world-frame coordinates, then recomputes its local copies and
// metrics, as in the MPI original.
func (st *runState) moveGrids(r *par.Rank, step int) {
	c := st.cfg.Case
	t := float64(step+1) * st.dt

	// Aerodynamic loads for force-coupled bodies: only wall faces of the
	// body's own grids contribute.
	if c.FreeBody != nil {
		var f, m geom.Vec3
		myGrid := st.plan.Parts[r.ID].Grid
		for _, bg := range c.BodyGrids {
			if bg != myGrid {
				continue
			}
			var flops float64
			f, m, flops = st.blocks[r.ID].Forces(c.ForceRef)
			r.Compute(flops)
			break
		}
		fx := r.AllReduceSum(f.X)
		fy := r.AllReduceSum(f.Y)
		fz := r.AllReduceSum(f.Z)
		mx := r.AllReduceSum(m.X)
		my := r.AllReduceSum(m.Y)
		mz := r.AllReduceSum(m.Z)
		if r.ID == 0 {
			st.result.Force = geom.Vec3{X: fx, Y: fy, Z: fz}
			c.FreeBody.Step(geom.Vec3{X: fx, Y: fy, Z: fz}, geom.Vec3{X: mx, Y: my, Z: mz}, st.dt)
		}
		r.Barrier()
	}

	// Every rank of a moving grid writes the new placement of its own
	// subdomain into the shared world-frame coordinates (the subdomains
	// cover the grid exactly and disjointly). The grid's first rank records
	// the placement and carries the whole grid's modeled cost.
	part := st.plan.Parts[r.ID]
	g := c.Sys.Grids[part.Grid]
	if xf, moving := st.transformAt(part.Grid, t); moving {
		if isFirstRankOfGrid(st.plan, r.ID, part.Grid) {
			g.Xform = xf
			r.Compute(float64(g.NPoints()) * 12)
		}
		g.ApplyTransformBox(xf, part.Box)
	}
	r.Barrier()

	// Every rank refreshes its local geometry (moving grids only).
	if g.Moving {
		b := st.blocks[r.ID]
		b.RefreshGeometry(st.dt)
		b.RefreshFreestreamResidual()
		r.Compute(float64(b.NPointsLocal()) * 180)
	}
}

// transformAt returns grid gi's placement at time t.
func (st *runState) transformAt(gi int, t float64) (geom.Transform, bool) {
	c := st.cfg.Case
	if c.FreeBody != nil {
		for _, bg := range c.BodyGrids {
			if bg == gi {
				return c.FreeBody.Transform(), true
			}
		}
	}
	if gi < len(c.Motions) && c.Motions[gi] != nil {
		if _, isStatic := c.Motions[gi].(sixdof.StaticMotion); !isStatic {
			return c.Motions[gi].At(t), true
		}
	}
	return geom.IdentityTransform(), false
}

func isFirstRankOfGrid(plan *balance.Plan, rank, gi int) bool {
	for r, p := range plan.Parts {
		if p.Grid == gi {
			return r == rank
		}
	}
	return false
}

// balanceStep runs the active step balancer's check collectively: gather
// exactly the measurements it declared (each gather is a modeled
// collective, identical on every rank), decide deterministically
// everywhere, and repartition if a new plan came back.
func (st *runState) balanceStep(r *par.Rank, step int) {
	needs := st.stepBal.Needs()
	fb := balance.Feedback{Step: step}
	if needs.IGBPs {
		// A count travels as a float64, exact below 2^53.
		all := r.AllGatherFloats([]float64{float64(st.solvers[r.ID].ReceivedIGBPs)})
		fb.ReceivedIGBPs = make([]int, len(all))
		for i, v := range all {
			fb.ReceivedIGBPs[i] = int(v)
		}
	}
	if needs.Waits {
		// Busy/wait deltas since the previous check: clock advance minus
		// blocked time is compute+send-overhead time, the diffusive
		// scheme's load signal. One 16-byte gather ships both.
		wait := r.TotalWaitTime() - st.prevWait[r.ID]
		busy := (r.Clock - st.prevClock[r.ID]) - wait
		all := r.AllGatherFloats([]float64{busy, wait})
		fb.Busy = make([]float64, len(all)/2)
		fb.Wait = make([]float64, len(all)/2)
		for i := range fb.Busy {
			fb.Busy[i], fb.Wait[i] = all[2*i], all[2*i+1]
		}
		st.prevClock[r.ID] = r.Clock
		st.prevWait[r.ID] = r.TotalWaitTime()
	}
	newPlan, _, err := st.stepBal.Rebalance(st.plan, st.balInput, fb)
	if err != nil || newPlan == st.plan {
		return
	}
	st.repartition(r, newPlan)
}

// repartition rebuilds blocks and connectivity state for a new plan,
// modeling the data redistribution cost: every conserved value whose owner
// changed crosses the network once.
func (st *runState) repartition(r *par.Rank, newPlan *balance.Plan) {
	oldBlocks := make([]*flow.Block, len(st.blocks))
	copy(oldBlocks, st.blocks)
	oldPlan, oldSlab := st.plan, st.slab
	r.Barrier()
	if r.ID == 0 {
		st.plan = newPlan
		st.rebalances++
		// The shipped volume, from box intersections: host-side, so the
		// accounting itself costs no collective.
		st.movedPoints += balance.MovedPoints(oldPlan, newPlan)
		st.layoutBlocks()
	}
	r.Barrier()

	// Build my new block in the new slab, copy conserved data into it from
	// the old owners, and charge the modeled redistribution traffic.
	st.buildRank(r.ID)
	b := st.blocks[r.ID]
	part := st.plan.Parts[r.ID]
	moved := 0
	for k := part.Box.KLo; k <= part.Box.KHi; k++ {
		for j := part.Box.JLo; j <= part.Box.JHi; j++ {
			for i := part.Box.ILo; i <= part.Box.IHi; i++ {
				oldRank := ownerOf(oldPlan, part.Grid, i, j, k)
				q, ok := oldBlocks[oldRank].QAtGlobal(i, j, k)
				if !ok {
					continue
				}
				if oldRank != r.ID {
					moved++
				}
				li, lj, lk := b.Local(i, j, k)
				b.SetQ(b.LIdx(li, lj, lk), q)
			}
		}
	}
	r.Transfer(moved * 40)
	r.Compute(float64(part.Box.Count()) * 10)

	r.Barrier()
	if r.ID == 0 {
		// Every rank is done reading the old blocks.
		st.storage.put(oldSlab)
	}
	// Re-establish connectivity under the new partition so the next flow
	// step has valid fringe exchange lists.
	st.solvers[r.ID].Solve(r)
	st.blocks[r.ID].RefreshMasks()
	r.Barrier()
	st.blocks[r.ID].ExchangeHalo(r)
	st.solvers[r.ID].UpdateFringes(r, st.blocks[r.ID])
	r.Barrier()
}

func ownerOf(plan *balance.Plan, gi, i, j, k int) int {
	for rank, p := range plan.Parts {
		if p.Grid == gi && p.Box.Contains(i, j, k) {
			return rank
		}
	}
	return -1
}
