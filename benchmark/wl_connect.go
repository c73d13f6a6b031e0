package main

import (
	"fmt"
	"time"

	"overd"
	"overd/internal/dcf"
	"overd/internal/machine"
	"overd/internal/metrics"
	"overd/internal/par"
)

// orphanCeiling is the largest share of fringe points that may be left
// without a donor. The store-separation system at scale 0.5 over 52 ranks
// leaves 2.1 %, every solve; a protocol bug shows as a multiple of that.
const orphanCeiling = 0.03

// connectRun is what one world lifetime of the DCF3D-standalone loop yields.
type connectRun struct {
	setupS      float64   // case + plan + world + NewSolver + first cold Solve
	unitsMS     []float64 // warm, restart-hinted solves across all ranks
	from, to    usage
	fingerprint string
	igbps       int
	orphans     int
	// Per-solve work counts of the last warm solve, summed over ranks.
	searchSteps, forwards, hinted, scratch, received, maxReceived int
}

// runConnect drives connectivity alone: per iteration the first rank of
// each moving grid places it at the next time level, then every rank solves
// — no flow step in between, so dcf and overset are all of the host time.
// recold adds, after the timed iterations, one solve from dropped restart
// hints.
func runConnect(sz solverSize, tr *tracer, unit0 int, reg *metrics.Registry, recold bool) connectRun {
	var out connectRun
	t0 := time.Now()
	c := overd.StoreSeparation(sz.scale)
	_, parts, first := staticPlan(c, sz.nodes)
	world := par.NewWorld(sz.nodes, machine.SP2())
	world.SetMetrics(reg)
	arenas := dcf.NewArenas(sz.nodes)
	solvers := make([]*dcf.Solver, sz.nodes)
	var last time.Time
	var endClock float64
	world.Run(func(r *par.Rank) {
		ln := tr.lane(r.ID)
		barrier := func() { barrier(ln, r) }
		s := dcf.NewSolver(c.Overset, parts, r.ID)
		s.UseArenas(arenas)
		solvers[r.ID] = s
		barrier()
		ln.begin("dcf.solve_cold")
		s.Solve(r)
		ln.end()
		barrier()
		r.MetricsWindowStart()
		if r.ID == 0 {
			out.setupS = time.Since(t0).Seconds()
			out.from = readUsage()
			last = out.from.at
		}
		for it := 0; it < sz.steps; it++ {
			ln.setUnit(unit0 + it)
			ln.begin("solve")
			t := float64(it+1) * c.DT
			for gi, g := range c.Sys.Grids {
				if first[gi] != r.ID {
					continue
				}
				if xf, moving := motionAt(c, gi, t); moving {
					ln.begin("grid.apply_transform")
					g.ApplyTransform(xf)
					ln.end()
				}
			}
			barrier()
			ln.begin("dcf.solve")
			s.Solve(r)
			ln.end()
			barrier()
			ln.end() // solve
			ln.setUnit(-1)
			if r.ID == 0 {
				now := time.Now()
				out.unitsMS = append(out.unitsMS, now.Sub(last).Seconds()*1e3)
				last = now
			}
		}
		r.MetricsWindowEnd()
		if r.ID == 0 {
			out.to = readUsage()
			endClock = r.Clock
			for _, sv := range solvers {
				out.igbps += sv.IGBPCount()
				_, orph := sv.DonorCounts()
				out.orphans += orph
				out.searchSteps += sv.SearchSteps
				out.forwards += sv.Forwards
				out.hinted += sv.Hinted
				out.scratch += sv.Scratch
				out.received += sv.ReceivedIGBPs
				out.maxReceived = max(out.maxReceived, sv.ReceivedIGBPs)
			}
		}
		if recold {
			barrier()
			s.InvalidateRestart()
			ln.begin("dcf.solve_cold")
			s.Solve(r)
			ln.end()
			barrier()
		}
	})
	out.fingerprint = virtualPrint(endClock, out.igbps, out.orphans)
	return out
}

// storesepConnect exists because through overd.Run connectivity never
// exceeds about a quarter of host time, so nothing else can show a dcf or
// overset gain: 16 grids, 30 K fringe points, request/serve/forward traffic
// and an AllGather per solve.
func storesepConnect() workload {
	collect := func(p *pass, run connectRun, iters int) {
		p.attempts += iters
		switch {
		case p.fingerprint == "":
			p.fingerprint = run.fingerprint
		case run.fingerprint != p.fingerprint:
			p.failed += iters
			p.fail("virtual outcome differs between repeats: %s, then %s", p.fingerprint, run.fingerprint)
			return
		}
		if float64(run.orphans) > orphanCeiling*float64(run.igbps) {
			p.failed += iters
			p.fail("%d orphans among %d fringe points exceed %.0f %%", run.orphans, run.igbps, 100*orphanCeiling)
			return
		}
		p.setupsS = append(p.setupsS, run.setupS)
		p.unitsMS = append(p.unitsMS, run.unitsMS...)
		p.m.add(run.from, run.to, iters)
	}
	return workload{
		name:      "storesep_connect",
		onep:      true,
		exercises: []string{"par.", "dcf.", "trace.span", "unit_ms_p50_1p", "speedup_np", "trace_overhead_frac"},
		warmUp: func(e *env) {
			warm := e.sz.store
			warm.steps = min(warm.steps, 3)
			runConnect(warm, nil, 0, nil, false)
		},
		repeat: func(e *env, p *pass) {
			collect(p, runConnect(e.sz.store, nil, 0, nil, false), e.sz.store.steps)
		},
		trace: func(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64) {
			p := &pass{procs: e.procs, fingerprint: base.fingerprint}
			sz := e.sz.store
			tr := newTracer(sz.nodes, func(i int) string { return fmt.Sprintf("rank %d", i) })
			lm := map[string]float64{}
			reg := metrics.New()
			var untracedMS []float64
			var lastRun connectRun
			units := 0
			withProcs(e.procs, func() {
				interleave(d, func() {
					untracedMS = append(untracedMS, runConnect(sz, nil, 0, nil, false).unitsMS...)
				}, func() {
					lastRun = runConnect(sz, tr, units, reg, true)
					units += sz.steps
					collect(p, lastRun, sz.steps)
				})
			})
			if len(p.unitsMS) == 0 {
				return p, tr, lm
			}
			lm["trace_overhead_frac"] = median(p.unitsMS)/median(untracedMS) - 1
			self := tr.selfMSPerUnit(units)
			lm["dcf.solve_ms"] = self["dcf.solve"]
			lm["par.barrier_wait_ms"] = self["par.barrier"]
			lm["dcf.solve_cold_ms"] = tr.meanMS("dcf.solve_cold") * float64(sz.nodes)
			lm["trace.span_coverage_frac"] = tr.coverage("solve")
			// The registry holds the window of the last world.
			parCounts(lm, reg, sz.nodes, float64(sz.steps), solverTags...)
			lm["dcf.igbps"] = float64(lastRun.igbps)
			lm["dcf.search_steps_per_unit"] = float64(lastRun.searchSteps)
			lm["dcf.forwards_per_unit"] = float64(lastRun.forwards)
			lm["dcf.hint_hit_frac"] = float64(lastRun.hinted) / float64(lastRun.hinted+lastRun.scratch)
			lm["dcf.orphan_frac"] = float64(lastRun.orphans) / float64(lastRun.igbps)
			lm["dcf.imbalance_f"] = float64(lastRun.maxReceived) * float64(sz.nodes) / float64(lastRun.received)
			return p, tr, lm
		},
	}
}
