package dcf

import (
	"slices"

	"overd/internal/flow"
	"overd/internal/par"
)

// UpdateFringes performs the per-timestep intergrid boundary update: every
// rank interpolates the conserved state at the donor cells it owes other
// ranks (its send list from the last connectivity solve), ships the values,
// and applies what it receives to its own fringe points. Orphan points keep
// their previous data. Call after the halo exchange so donor-cell corners in
// ghost layers are current. Time is charged to the flow phase, where the
// paper accounts intergrid boundary-condition updates.
//
// Each destination's values go out in this rank's own batch for it (see
// bufs), which the next call rewrites: callers must rendezvous between two
// calls, so that every receiver has read what the last one sent.
func (s *Solver) UpdateFringes(r *par.Rank, b *flow.Block) {
	// Serve my send list: the dense per-rank buckets iterate destinations
	// in ascending rank order, the deterministic order the old map-keyed
	// list had to sort into.
	interp, batches := 0, 0
	for dst, entries := range s.sendList {
		if len(entries) == 0 {
			continue
		}
		batches++
		// Room for every duty up front: which donors interpolate can change
		// from step to step, and the batch must not grow when it does.
		batch := &s.vals[dst]
		ids := slices.Grow(batch.IDs[:0], len(entries))
		vals := slices.Grow(batch.Vals[:0], 5*len(entries))
		for _, e := range entries {
			d := e.donor
			q, ok := b.InterpolateCell(d.I, d.J, d.K, d.A, d.B, d.C)
			if !ok {
				continue
			}
			interp++
			ids = append(ids, e.id)
			vals = append(vals, q[:]...)
		}
		batch.IDs, batch.Vals = ids, vals
		// Reliable under fault injection (plain Send otherwise); a batch
		// lost beyond the retry budget arrives as a tombstone, which the
		// receiver's RecvTimeout below turns into "keep previous data".
		r.SendReliable(dst, par.TagUser+1, batch, bytesPerValue*len(ids))
	}
	r.Compute(float64(interp) * flopsPerInterp)

	// Receive from every distinct donor rank, in ascending rank order for
	// determinism (dense membership array instead of a per-step map).
	expect := s.expect
	if len(expect) < r.Size() {
		expect = make([]bool, r.Size())
		s.expect = expect
	}
	clear(expect)
	for id := range s.igbps {
		if s.donors[id].Grid >= 0 && s.donorRank[id] >= 0 {
			expect[s.donorRank[id]] = true
		}
	}
	faulty := r.Faulty()
	for from, want := range expect {
		if !want {
			continue
		}
		var m par.Msg
		if faulty {
			var ok bool
			// Graceful degradation: a fringe-value batch lost beyond the
			// transport's retry budget leaves these fringe points holding
			// their previous data for this step (the orphan treatment),
			// instead of deadlocking the receive.
			m, ok = r.RecvTimeout(from, par.TagUser+1, 2*r.Model().LatencySec)
			if !ok {
				s.LostFringe++
				continue
			}
		} else {
			m = r.Recv(from, par.TagUser+1)
		}
		vm := m.Data.(*valMsg)
		for n, id := range vm.IDs {
			pt := s.igbps[id]
			var q [5]float64
			copy(q[:], vm.Vals[5*n:5*n+5])
			b.SetFringe(pt.I, pt.J, pt.K, q)
		}
	}
	s.publishFringeMetrics(r, interp, batches)
}

// DonorCounts returns (resolved, orphaned) counts for this rank's IGBPs.
func (s *Solver) DonorCounts() (resolved, orphaned int) {
	for _, d := range s.donors {
		if d.Grid >= 0 {
			resolved++
		} else {
			orphaned++
		}
	}
	return
}

// IGBPCount returns the number of fringe points owned by this rank.
func (s *Solver) IGBPCount() int { return len(s.igbps) }
