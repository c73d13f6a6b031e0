package core

import (
	"overd/internal/cases"
	"overd/internal/metrics"
	"overd/internal/par"
)

// checkpoint is an in-memory snapshot of everything a restart needs to
// resume the timestep loop mid-run after an injected rank crash: the step
// index, the (frozen) timestep, every grid's absolute placement, the
// force-coupled body state, the global conserved field per grid, and the
// per-step statistics accumulated so far. The flow field is stored in
// global index space so a restart can re-partition it over a different
// processor count — the dead rank's work is re-spread by the static
// balancer, exactly as the run's initial decomposition was built.
type checkpoint struct {
	step  int     // timesteps completed
	dt    float64 // frozen timestep of the run
	clock float64 // global virtual clock at capture (all ranks equal here)

	cases.Placement
	// q holds each grid's conserved variables in global index space,
	// 5 values per point (freestream where no rank owned the point).
	q [][]float64

	stats []StepStats // per-step statistics for steps [0, step)
}

// bytesPerCheckpointPoint models the serialized size of one gridpoint's
// conserved state in the checkpoint write (5 float64 + indexing overhead).
const bytesPerCheckpointPoint = 48

// writeCheckpoint snapshots the run on rank 0 and charges every rank the
// modeled cost of writing its owned points to stable storage. Called with
// every rank between the post-balance barrier and the trailing step
// barrier, where peers are quiescent (no block mutation), so rank 0 may
// read all blocks race-free.
func (st *runState) writeCheckpoint(r *par.Rank, stepDone int) {
	r.SetPhase(par.PhaseOther)
	t0 := r.Clock
	own := st.plan.Parts[r.ID].Box.Count()
	r.Transfer(own * bytesPerCheckpointPoint)
	if r.ID != 0 {
		return
	}
	st.ck = st.capture(r, stepDone)
	st.result.Checkpoints++
	st.result.CheckpointTime += r.Clock - t0
	if reg := r.MetricsRegistry(); reg != nil {
		// Live view for -serve scrapes; the authoritative cross-attempt
		// totals are the Result-derived overd_fault_checkpoints_total.
		reg.Gauge("overd_checkpoint_writes", metrics.Opts{
			Help: "checkpoint snapshots taken in the current attempt", Global: true,
		}).Set(0, float64(st.result.Checkpoints), r.Clock)
	}
}

// capture builds the snapshot (rank 0 only; peers quiescent).
func (st *runState) capture(r *par.Rank, stepDone int) *checkpoint {
	c := st.cfg.Case
	ck := &checkpoint{step: stepDone, dt: st.dt, clock: r.Clock, Placement: c.Placement()}
	ck.q = make([][]float64, len(c.Sys.Grids))
	for gi, g := range c.Sys.Grids {
		ck.q[gi] = make([]float64, 5*g.NPoints())
	}
	for rank, part := range st.plan.Parts {
		b := st.blocks[rank]
		g := c.Sys.Grids[part.Grid]
		dst := ck.q[part.Grid]
		for k := part.Box.KLo; k <= part.Box.KHi; k++ {
			for j := part.Box.JLo; j <= part.Box.JHi; j++ {
				for i := part.Box.ILo; i <= part.Box.IHi; i++ {
					q, ok := b.QAtGlobal(i, j, k)
					if !ok {
						continue
					}
					copy(dst[5*g.Idx(i, j, k):], q[:])
				}
			}
		}
	}
	ck.stats = append([]StepStats(nil), st.stats...)
	return ck
}

// restoreFrom primes a fresh attempt's state from a snapshot before its
// world starts: grid placements and body state roll back to the
// checkpointed time level, the timestep loop resumes at ck.step with the
// original frozen dt, and the conserved field is reloaded into the new
// partition's blocks as they are built (see loadQ).
func (st *runState) restoreFrom(ck *checkpoint) {
	ck.Placement.Restore(st.cfg.Case)
	st.startStep = ck.step
	st.dt = ck.dt
	st.restored = true
	st.restoreQ = ck.q
	st.stats = append([]StepStats(nil), ck.stats...)
	st.ck = ck
}

// loadQ reloads the checkpointed conserved field into rank's freshly built
// block (every rank, during preprocessing). Halo and fringe values are
// refreshed by the preprocessing exchange that follows; hole interiors stay
// at freestream and are recut.
func (st *runState) loadQ(rank int) {
	part := st.plan.Parts[rank]
	b := st.blocks[rank]
	g := st.cfg.Case.Sys.Grids[part.Grid]
	src := st.restoreQ[part.Grid]
	for k := part.Box.KLo; k <= part.Box.KHi; k++ {
		for j := part.Box.JLo; j <= part.Box.JHi; j++ {
			for i := part.Box.ILo; i <= part.Box.IHi; i++ {
				li, lj, lk := b.Local(i, j, k)
				var q [5]float64
				copy(q[:], src[5*g.Idx(i, j, k):])
				b.SetQ(b.LIdx(li, lj, lk), q)
			}
		}
	}
}
