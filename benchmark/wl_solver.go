package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"overd"
)

// solverCase is one paper case run through overd.Run with static balancing
// on the SP2 model; a unit is one steady timestep.
type solverCase struct {
	name string
	mk   func(scale float64) *overd.Case
	size func(sz sizes) solverSize
}

// solverRun is what one overd.Run repeat yields.
type solverRun struct {
	setupS   float64   // case generation + Run entry → first OnStep
	unitsMS  []float64 // steps 1…N−1, from OnStep host timestamps
	from, to usage     // resource readings at the first and last OnStep
	res      *overd.Result
}

// runOnce executes one overd.Run of the case. Rank 0 calls OnStep between
// module barriers while every other rank is parked, so the timestamps and
// the two resource readings cost the run nothing but themselves.
func (sc solverCase) runOnce(sz solverSize, steps int, rec *overd.TraceRecorder, reg *overd.MetricsRegistry) (solverRun, error) {
	var out solverRun
	var last time.Time
	t0 := time.Now()
	cfg := overd.Config{
		Case:    sc.mk(sz.scale),
		Nodes:   sz.nodes,
		Machine: overd.SP2(),
		Steps:   steps,
		Fo:      math.Inf(1),
		Trace:   rec,
		Metrics: reg,
		OnStep: func(step int, _ overd.StepStats, _ float64) {
			now := time.Now()
			switch {
			case step == 0:
				out.setupS = now.Sub(t0).Seconds()
				out.from = readUsage()
				now = out.from.at
			default:
				out.unitsMS = append(out.unitsMS, now.Sub(last).Seconds()*1e3)
			}
			if step == steps-1 {
				out.to = readUsage()
			}
			last = now
		},
	}
	res, err := overd.Run(cfg)
	out.res = res
	return out, err
}

// virtualPrint identifies a run's virtual-time outcome bit for bit: it must
// not differ between repeats, between GOMAXPROCS settings, or between
// overd.Run and the replica step loop.
func virtualPrint(totalTime float64, igbps, orphans int) string {
	return fmt.Sprintf("vt=%016x igbps=%d orphans=%d", math.Float64bits(totalTime), igbps, orphans)
}

// repeat is one detached overd.Run, folded into p.
func (sc solverCase) repeat(e *env, p *pass) {
	sz := sc.size(e.sz)
	units := sz.steps - 1
	p.attempts += units
	run, err := sc.runOnce(sz, sz.steps, nil, nil)
	if err != nil {
		p.failed += units
		p.fail("run: %v", err)
		return
	}
	fp := virtualPrint(run.res.TotalTime, run.res.IGBPs, run.res.Orphans)
	if p.fingerprint == "" {
		p.fingerprint = fp
	} else if fp != p.fingerprint {
		p.failed += units
		p.fail("virtual outcome differs between repeats: %s, then %s", p.fingerprint, fp)
		return
	}
	p.setupsS = append(p.setupsS, run.setupS)
	p.unitsMS = append(p.unitsMS, run.unitsMS...)
	p.m.add(run.from, run.to, units)
}

// trace interleaves four variants at P: overd.Run detached; overd.Run with
// Trace and Metrics attached (the program's own counts, and what attaching
// costs); the replica step loop untraced (what overd.Run does beyond its
// layer calls); and the replica with a span around every layer call.
func (sc solverCase) trace(e *env, d time.Duration, base *pass) (*pass, *tracer, map[string]float64) {
	lm := map[string]float64{}
	sz := sc.size(e.sz)
	steps, nodes := sz.steps, sz.nodes
	p := &pass{procs: e.procs, fingerprint: base.fingerprint}
	tr := newTracer(nodes, func(i int) string { return fmt.Sprintf("rank %d", i) })
	var detachedMS, attachedMS, plainMS []float64
	var rec *overd.TraceRecorder
	var reg *overd.MetricsRegistry
	var res *overd.Result
	match := 1.0
	units := 0
	// check holds a variant to the virtual outcome of the detached runs.
	check := func(what, fp string) bool {
		if fp == base.fingerprint {
			return true
		}
		p.attempts++
		p.fail("%s changed the virtual outcome: %s, detached %s", what, fp, base.fingerprint)
		return false
	}
	withProcs(e.procs, func() {
		interleave(d, func() {
			if run, err := sc.runOnce(sz, steps, nil, nil); err == nil {
				detachedMS = append(detachedMS, run.unitsMS...)
			}
		}, func() {
			rec, reg = overd.NewTraceRecorder(), overd.NewMetricsRegistry()
			run, err := sc.runOnce(sz, steps, rec, reg)
			if err != nil {
				p.attempts++
				p.fail("attached run: %v", err)
				return
			}
			res = run.res
			if check("attaching Trace and Metrics", virtualPrint(res.TotalTime, res.IGBPs, res.Orphans)) {
				attachedMS = append(attachedMS, run.unitsMS...)
			}
		}, func() {
			// A mismatch with overd.Run is a diagnostic about the
			// replica, never a failed unit of the program.
			plain := runReplica(sc.mk(sz.scale), nodes, steps, nil, 0)
			if plain.fingerprint != base.fingerprint {
				match = 0
				fmt.Fprintf(os.Stderr, "%s: replica step loop diverges from overd.Run: %s, Run %s\n", sc.name, plain.fingerprint, base.fingerprint)
			}
			plainMS = append(plainMS, plain.unitsMS...)
		}, func() {
			p.attempts += steps - 1
			got := runReplica(sc.mk(sz.scale), nodes, steps, tr, units)
			units += steps - 1
			p.setupsS = append(p.setupsS, got.setupS)
			p.unitsMS = append(p.unitsMS, got.unitsMS...)
			p.m.add(got.from, got.to, steps-1)
			if match == 1 && got.fingerprint != base.fingerprint {
				p.failed += steps - 1
				p.fail("spans changed the replica's virtual outcome: %s, untraced %s", got.fingerprint, base.fingerprint)
			}
		})
	})
	if res == nil || len(detachedMS) == 0 {
		return p, tr, lm
	}
	lm["trace.attach_overhead_frac"] = median(attachedMS)/median(detachedMS) - 1
	lm["core.replica_match"] = match
	lm["core.replica_gap_frac"] = median(detachedMS)/median(plainMS) - 1
	lm["trace_overhead_frac"] = median(p.unitsMS)/median(plainMS) - 1

	perStep := func(v float64) float64 { return v / float64(steps) }
	parCounts(lm, reg, nodes, float64(steps), solverTags...)
	var events, searchSteps, forwards, hinted, searches float64
	for rank := 0; rank < nodes; rank++ {
		events += float64(len(rec.Events(rank)))
		searchSteps += reg.SumSeries("overd_dcf_search_steps_total", rank)
		forwards += reg.SumSeries("overd_dcf_forwards_total", rank)
		hinted += reg.SumSeries("overd_dcf_hinted_searches_total", rank)
		searches += reg.SumSeries("overd_dcf_donor_searches_total", rank)
	}
	lm["trace.events_per_unit"] = perStep(events)
	lm["flow.flops_per_unit"] = perStep(res.Flops)
	lm["dcf.igbps"] = float64(res.IGBPs)
	lm["dcf.search_steps_per_unit"] = perStep(searchSteps)
	lm["dcf.forwards_per_unit"] = perStep(forwards)
	lm["dcf.hint_hit_frac"] = hinted / searches
	lm["dcf.orphan_frac"] = float64(res.Orphans) / float64(res.IGBPs)
	lm["dcf.imbalance_f"] = res.Steps[len(res.Steps)-1].MaxF
	lm["core.virtual_s_per_unit"] = res.TimePerStep()
	lm["core.pct_dcf_virtual"] = res.PctConnect()

	self := tr.selfMSPerUnit(units)
	for span, metric := range map[string]string{
		"flow.halo": "flow.halo_ms", "flow.bc": "flow.bc_ms", "flow.turb": "flow.turb_ms",
		"flow.rhs": "flow.rhs_ms", "flow.adi": "flow.adi_ms", "flow.update": "flow.update_ms",
		"flow.refresh_geometry": "flow.refresh_geometry_ms",
		"flow.refresh_masks":    "flow.refresh_masks_ms",
		"dcf.solve":             "dcf.solve_ms",
		"dcf.update_fringes":    "dcf.update_fringes_ms",
		"par.barrier":           "par.barrier_wait_ms",
	} {
		lm[metric] = self[span]
	}
	lm["dcf.solve_cold_ms"] = tr.meanMS("dcf.solve_cold") * float64(nodes)
	lm["trace.span_coverage_frac"] = tr.coverage("step")
	return p, tr, lm
}

func solverWorkload(sc solverCase) workload {
	return workload{name: sc.name, onep: true, repeat: sc.repeat, trace: sc.trace,
		warmUp: func(e *env) {
			sz := sc.size(e.sz)
			// An error here shows again, and is reported, in the repeats.
			_, _ = sc.runOnce(sz, min(sz.steps, 6), nil, nil)
		},
		exercises: []string{"par.", "flow.", "dcf.", "core.", "trace.", "unit_ms_p50_1p", "speedup_np", "trace_overhead_frac"}}
}

// airfoilComm has about 680 points per rank, the smallest compute per
// message of the paper's cases: par park/wake, the run-slot gate and the
// pipelined-ADI message chain cost the most here relative to arithmetic.
func airfoilComm() workload {
	return solverWorkload(solverCase{
		name: "airfoil_comm",
		mk:   overd.OscillatingAirfoil,
		size: func(sz sizes) solverSize { return sz.airfoil },
	})
}

// deltawingFlow has few ranks and about 12 K-point blocks, viscous in all
// directions: flow RHS + ADI dominate host time, so a kernel gain shows
// here and a par or dcf gain should not.
func deltawingFlow() workload {
	return solverWorkload(solverCase{
		name: "deltawing_flow",
		mk:   overd.DescendingDeltaWing,
		size: func(sz sizes) solverSize { return sz.delta },
	})
}
