package dcf

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"sort"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/overset"
	"overd/internal/par"
)

// Stats summarizes one rank's view of a connectivity solve.
type Stats struct {
	// LocalIGBPs is the number of fringe points owned by this rank.
	LocalIGBPs int
	// Received is I(p): search requests serviced by this rank.
	Received int
	// Forwards counts cross-boundary forwarded requests.
	Forwards int
	// Orphans counts local IGBPs left without donors.
	Orphans int
	// Rounds is the number of request/serve/reply rounds taken.
	Rounds int
}

// pendingPt tracks an unresolved local IGBP's search progression. The
// candidate ranks for the current donor grid live in a fixed-size array
// (advance keeps at most 3), so the dense pending table allocates nothing
// per point.
type pendingPt struct {
	id           int // index into s.igbps
	hier         int // position in the receiver grid's search order
	cand         [3]int
	chead, ncand int8
	// lostSends counts request batches for this point lost beyond the
	// transport's retry budget; maxLostSends of them orphan the point.
	lostSends int
}

// popCand removes and returns the next candidate rank to try.
func (p *pendingPt) popCand() int {
	dst := p.cand[p.chead]
	p.chead++
	return dst
}

// candsLeft reports whether any candidate ranks remain.
func (p *pendingPt) candsLeft() bool { return p.chead < p.ncand }

// maxLostSends bounds per-point request retransmission rounds after
// transport-level loss before the point degrades to an orphan.
const maxLostSends = 2

// Solve re-establishes domain connectivity after grid motion: distributed
// hole cutting, fringe marking, global bounding-box exchange, and the
// asynchronous hierarchical donor search with request forwarding and
// nth-level restart. All ranks must call it collectively; virtual time is
// attributed to the connectivity phase.
func (s *Solver) Solve(r *par.Rank) Stats {
	prevPhase := r.CurrentPhase()
	// A solve forced by a repartition is rebalancing overhead, not the
	// steady-state connectivity cost the paper's %DCF3D measures.
	if prevPhase != par.PhaseBalance {
		r.SetPhase(par.PhaseConnect)
	}
	defer r.SetPhase(prevPhase)

	gi, box := s.myBox()
	g := s.Cfg.Sys.Grids[gi]

	// The grids moved before this solve; nothing moves them during it, so
	// the subdomain's bounds serve both the cutter rejection here and the
	// global exchange below. World coordinates are a function of the fixed
	// body-frame coordinates and Xform alone, so an unchanged Xform keeps
	// the bounds and the walk memo; the memo is sized to twice the walks of
	// the solve before, once that solve has shown there are any, and emptied
	// whenever its length changes (a slot's place depends on it).
	walks := s.memoReqs
	s.memoReqs = 0
	if !s.stamped || g.Xform != s.xf {
		s.xf, s.stamped = g.Xform, true
		s.myBounds = g.BoundsOf(box)
		s.memo = s.memo[:0]
	} else if len(s.memo) < 2*walks && max(g.NI, g.NJ, g.NK) <= math.MaxUint16 {
		s.memo = par.Resized(s.memo, 1<<bits.Len(uint(2*walks-1)))
		clear(s.memo)
	}
	myBounds := s.myBounds
	s.cutHolesLocal(r, gi, box, myBounds)
	s.markFringesLocal(r, g, gi, box)

	// Collect my IGBPs. The row base i + NI*(j + NJ*k) is hoisted out of
	// the contiguous i-run, and the coordinate slices are loaded once, so
	// the scan is a single strided pass over IBlank.
	s.igbps = s.igbps[:0]
	ib, gx, gy, gz := g.IBlank, g.X, g.Y, g.Z
	for k := box.KLo; k <= box.KHi; k++ {
		for j := box.JLo; j <= box.JHi; j++ {
			row := g.NI * (j + g.NJ*k)
			for i := box.ILo; i <= box.IHi; i++ {
				n := row + i
				if ib[n] == grid.IBFringe {
					s.igbps = append(s.igbps, overset.IGBP{
						Grid: gi, I: i, J: j, K: k,
						Pos: geom.Vec3{X: gx[n], Y: gy[n], Z: gz[n]},
					})
				}
			}
		}
	}
	n := len(s.igbps)
	if cap(s.donors) < n {
		s.donors = make([]overset.Donor, n)
		s.donorRank = make([]int, n)
	}
	s.donors = s.donors[:n]
	s.donorRank = s.donorRank[:n]
	for i := range s.donors {
		s.donors[i] = overset.Donor{Grid: -1}
		s.donorRank[i] = -1
	}

	// Global bounding-box exchange ("broadcast globally at the beginning").
	r.Compute(float64(box.Count()) * 2)
	lo, hi := myBounds.Min, myBounds.Max
	raw := r.AllGatherFloats([]float64{lo.X, lo.Y, lo.Z, hi.X, hi.Y, hi.Z})
	nr := len(raw) / 6
	if cap(s.rankBounds) < nr {
		s.rankBounds = make([]geom.Box, nr)
	}
	rankBounds := s.rankBounds[:nr]
	for i := range rankBounds {
		v := raw[6*i : 6*i+6]
		rb := geom.Box{Min: geom.Vec3{X: v[0], Y: v[1], Z: v[2]}, Max: geom.Vec3{X: v[3], Y: v[4], Z: v[5]}}
		// Inflate so near-boundary donors are still routed to this rank.
		rankBounds[i] = rb.Inflate(0.02 * (1 + rb.Size().Norm()))
	}

	// Initial pending set, honoring restart hints.
	s.ensureWorld()
	for i := range s.sendList {
		s.sendList[i] = s.sendList[i][:0]
	}
	s.ReceivedIGBPs = 0
	s.Forwards = 0
	s.SearchSteps = 0
	s.Hinted, s.Scratch, s.HintMisses = 0, 0, 0
	outbox := s.outbox // destination rank -> requests
	for dst := range outbox {
		outbox[dst].Pts = outbox[dst].Pts[:0]
	}
	if cap(s.pend) < n {
		s.pend = make([]pendingPt, n)
	}
	s.pend = s.pend[:n]
	for id, pt := range s.igbps {
		s.pend[id] = pendingPt{id: id, hier: -1}
		p := &s.pend[id]
		if hint, ok := s.hintFor(pt); ok {
			s.Hinted++
			outbox[hint.rank].Pts = append(outbox[hint.rank].Pts, ptReq{
				Origin: s.Rank, ID: id, Pos: pt.Pos,
				Grid:  hint.donor.Grid,
				Start: [3]int{hint.donor.I, hint.donor.J, hint.donor.K},
			})
			continue
		}
		if !s.advance(p, pt, rankBounds) {
			s.donors[id] = overset.Donor{Grid: -1}
			continue
		}
		s.Scratch++
		dst := p.popCand()
		outbox[dst].Pts = append(outbox[dst].Pts, s.scratchReq(id, pt, p))
	}

	stats := Stats{LocalIGBPs: len(s.igbps)}

	// Request/serve/reply rounds until no work remains anywhere. All sends
	// use the reliable (ack + bounded-retry) transport, which is plain Send
	// on fault-free runs; because a loss beyond the retry budget is reported
	// to the SENDER, every loss has a deterministic local compensation and
	// the protocol degrades to bounded orphans instead of hanging.
	fwdbox := s.fwdbox
	for dst := range fwdbox {
		fwdbox[dst] = fwdbox[dst][:0]
	}
	// s.lostFwds carries failure replies for forwards whose retransmission
	// budget ran out, merged with this round's computed replies.
	for round := 0; round < 64; round++ {
		stats.Rounds = round + 1
		// Phase A: send queued requests and forwards, in ascending rank
		// order (dense bucket iteration) so the virtual-time trace is
		// deterministic. A request batch lost beyond the retry budget is
		// re-queued for the next round (bounded per point); its points
		// orphan when the budget runs out.
		next := s.outboxNext
		for dst := range next {
			next[dst].Pts = next[dst].Pts[:0]
		}
		for dst := range outbox {
			pts := outbox[dst].Pts
			if len(pts) == 0 || sendReqBatch(r, dst, &outbox[dst]) {
				continue
			}
			s.LostSends++
			for i := range pts {
				pt := &pts[i]
				p := &s.pend[pt.ID]
				if p.lostSends < maxLostSends {
					p.lostSends++
					next[dst].Pts = append(next[dst].Pts, *pt)
				} else {
					s.donors[pt.ID] = overset.Donor{Grid: -1}
				}
			}
		}
		outbox, s.outbox, s.outboxNext = next, next, outbox
		s.anyLostFwds = false
		for dst, pts := range fwdbox {
			if len(pts) == 0 {
				continue
			}
			s.fwdBuf[dst].Pts = append(s.fwdBuf[dst].Pts[:0], pts...)
			if sendReqBatch(r, dst, &s.fwdBuf[dst]) {
				continue
			}
			s.LostSends++
			// The chain broke between servers: tell each origin its search
			// failed so it advances the hierarchy instead of waiting forever.
			if !s.anyLostFwds {
				s.anyLostFwds = true
				for origin := range s.lostFwds {
					s.lostFwds[origin] = s.lostFwds[origin][:0]
				}
			}
			for _, pt := range pts {
				s.lostFwds[pt.Origin] = append(s.lostFwds[pt.Origin], ptRep{ID: pt.ID, OK: false, Rank: s.Rank})
			}
		}
		for dst := range fwdbox {
			fwdbox[dst] = fwdbox[dst][:0]
		}
		r.Barrier()

		// Phase B: service everything that arrived this round. Drain every
		// message before doing any work so the clock's max-over-arrivals is
		// independent of delivery order, then sort by sender.
		inbound := s.inbound[:0]
		for {
			m, ok := r.TryRecv(par.AnyRank, par.TagSearchReq)
			if !ok {
				break
			}
			inbound = append(inbound, m)
		}
		s.inbound = inbound
		slices.SortStableFunc(inbound, bySender)
		replies := s.replies
		for origin := range replies {
			replies[origin].Results = replies[origin].Results[:0]
		}
		if s.anyLostFwds {
			// Ascending-origin merge of broken-chain failures; each origin's
			// bucket keeps lost-forward entries ahead of served replies,
			// exactly as the map-based merge ordered them.
			for origin, reps := range s.lostFwds {
				replies[origin].Results = append(replies[origin].Results, reps...)
			}
		}
		for _, m := range inbound {
			req := m.Data.(*reqMsg)
			s.ReceivedIGBPs += len(req.Pts)
			for i := range req.Pts {
				pt := &req.Pts[i]
				if rep, forwarded := s.serve(r, gi, box, pt); !forwarded {
					replies[pt.Origin].Results = append(replies[pt.Origin].Results, rep)
				}
			}
		}
		for dst := range replies {
			reps := replies[dst].Results
			if len(reps) == 0 ||
				r.SendReliable(dst, par.TagSearchRep, &replies[dst], bytesPerReply*len(reps)) {
				continue
			}
			// Reply batch lost beyond the retry budget: the origin will see
			// its points finish as orphans (it never re-queues them), so
			// forget the matching interpolation duties to keep the fringe
			// exchange lists consistent on both sides.
			s.LostReplies++
			for _, rep := range reps {
				if rep.OK {
					s.dropSendEntry(dst, rep.ID)
				}
			}
		}
		r.Barrier()

		// Phase C: absorb replies; failed points advance their hierarchy.
		inRep := s.inbound[:0]
		for {
			m, ok := r.TryRecv(par.AnyRank, par.TagSearchRep)
			if !ok {
				break
			}
			inRep = append(inRep, m)
		}
		s.inbound = inRep
		slices.SortStableFunc(inRep, bySender)
		for _, m := range inRep {
			rep := m.Data.(*repMsg)
			for _, res := range rep.Results {
				pt := s.igbps[res.ID]
				if res.OK {
					s.donors[res.ID] = res.Donor
					s.donorRank[res.ID] = res.Rank
					s.restart[packRestartKey(pt.Grid, pt.I, pt.J, pt.K)] =
						restartHint{donor: res.Donor, rank: res.Rank}
					continue
				}
				p := &s.pend[res.ID]
				if p.hier < 0 {
					s.HintMisses++
				}
				if !p.candsLeft() && !s.advance(p, pt, rankBounds) {
					s.donors[res.ID] = overset.Donor{Grid: -1}
					continue
				}
				dst := p.popCand()
				outbox[dst].Pts = append(outbox[dst].Pts, s.scratchReq(res.ID, pt, p))
			}
		}

		work := 0
		for dst := range outbox {
			work += len(outbox[dst].Pts)
		}
		for _, v := range fwdbox {
			work += len(v)
		}
		if r.AllReduceSum(float64(work)) == 0 {
			break
		}
	}
	// After an odd number of rounds the two request buffers have traded
	// places; trade back, so that round k of every solve fills the same one
	// and its capacity is found once, not once per parity.
	if stats.Rounds%2 == 1 {
		s.outbox, s.outboxNext = s.outboxNext, s.outbox
	}

	s.Orphans = 0
	for _, d := range s.donors {
		if d.Grid < 0 {
			s.Orphans++
		}
	}
	stats.Received = s.ReceivedIGBPs
	stats.Forwards = s.Forwards
	stats.Orphans = s.Orphans
	s.publishSolveMetrics(r)
	return stats
}

// sendReqBatch ships a request batch by address on the reliable transport;
// the batch is the sender's to rewrite two barriers later (see bufs).
func sendReqBatch(r *par.Rank, dst int, batch *reqMsg) bool {
	return r.SendReliable(dst, par.TagSearchReq, batch, bytesPerRequest*len(batch.Pts))
}

// bySender orders a drained inbox by sender. The sort is stable and each
// sender's messages arrive in the order it sent them, so two batches from
// one sender (requests and forwards share a tag) are served in that order
// wherever other senders' messages landed in between.
func bySender(a, b par.Msg) int { return cmp.Compare(a.From, b.From) }

// hintFor returns the restart hint for an IGBP if available.
func (s *Solver) hintFor(pt overset.IGBP) (restartHint, bool) {
	if s.Cfg.DisableRestart {
		return restartHint{}, false
	}
	h, ok := s.restart[packRestartKey(pt.Grid, pt.I, pt.J, pt.K)]
	return h, ok
}

// scratchReq builds a from-scratch request for the current hierarchy grid.
func (s *Solver) scratchReq(id int, pt overset.IGBP, p *pendingPt) ptReq {
	order := s.Cfg.Search[pt.Grid]
	dg := order[p.hier]
	g := s.Cfg.Sys.Grids[dg]
	return ptReq{
		Origin: s.Rank, ID: id, Pos: pt.Pos, Grid: dg,
		Start:   [3]int{g.NI / 2, g.NJ / 2, g.NK / 2},
		Scratch: true,
	}
}

// advance moves a pending point to its next donor-grid candidate set.
// Returns false when the hierarchy is exhausted (orphan).
func (s *Solver) advance(p *pendingPt, pt overset.IGBP, rankBounds []geom.Box) bool {
	order := s.Cfg.Search[pt.Grid]
	for {
		p.hier++
		if p.hier >= len(order) {
			return false
		}
		dg := order[p.hier]
		if dg == pt.Grid {
			continue
		}
		// Candidate ranks: those of grid dg whose bounding box contains
		// the point, nearest box center first. The per-grid rank index
		// restricts the scan to ranks owning parts of dg, in the same
		// ascending-rank order a full part scan would visit them.
		cands := s.cands[:0]
		candD := s.candD[:0]
		for _, rk := range s.gridIx.Of(dg) {
			if rankBounds[rk].Contains(pt.Pos) {
				cands = append(cands, rk)
				candD = append(candD, rankBounds[rk].Center().Sub(pt.Pos).Norm2())
			}
		}
		s.cands, s.candD = cands, candD
		if len(cands) == 0 {
			continue
		}
		sortCandsByDist(cands, candD)
		// Forwarding reaches the rest of the grid from any entry rank, so
		// only the nearest few candidates are worth separate requests.
		nc := len(cands)
		if nc > 3 {
			nc = 3
		}
		for i := 0; i < nc; i++ {
			p.cand[i] = cands[i]
		}
		p.chead, p.ncand = 0, int8(nc)
		return true
	}
}

// sortCandsByDist orders candidate ranks by ascending distance. For short
// lists it runs the same insertion sort sort.Slice uses below its pdqsort
// cutoff (n <= 12), so the permutation of equal-distance candidates — and
// therefore the request routing — is bit-compatible with the historical
// sort.Slice call; longer lists (rare) go through sort.Slice itself.
func sortCandsByDist(cands []int, d []float64) {
	if len(cands) <= 12 {
		for i := 1; i < len(cands); i++ {
			for j := i; j > 0 && d[j] < d[j-1]; j-- {
				d[j], d[j-1] = d[j-1], d[j]
				cands[j], cands[j-1] = cands[j-1], cands[j]
			}
		}
		return
	}
	sort.Sort(&candSorter{cands, d})
}

type candSorter struct {
	cands []int
	d     []float64
}

func (c *candSorter) Len() int           { return len(c.cands) }
func (c *candSorter) Less(a, b int) bool { return c.d[a] < c.d[b] }
func (c *candSorter) Swap(a, b int) {
	c.cands[a], c.cands[b] = c.cands[b], c.cands[a]
	c.d[a], c.d[b] = c.d[b], c.d[a]
}

// serve performs one donor search on behalf of a requester. It returns the
// reply, or queues the request in fwdbox for the rank its walk exited to.
func (s *Solver) serve(r *par.Rank, myGrid int, myBox grid.IBox, pt *ptReq) (rep ptRep, forwarded bool) {
	dg := s.Cfg.Sys.Grids[pt.Grid]
	var res overset.LimitedResult
	if pt.Grid == myGrid {
		if pt.Scratch {
			r.Compute(125 * 4) // cost of sampling the subdomain for a start
		}
		if overset.ResolvesDirectly(dg) {
			res = overset.FindDonorLimited(dg, pt.Grid, pt.Pos, pt.Start, myBox,
				chainRestartBudget-pt.Restarts)
		} else {
			// Resolve runs on every request: a hole moving through an
			// unmoved grid blanks and uncovers remembered cells.
			res = s.walk(dg, myBox, pt).Resolve(dg)
		}
	} else {
		// Request routed to the wrong grid's rank (stale hint after
		// repartition): fail fast, the origin advances its hierarchy.
		res.OK = false
	}
	s.SearchSteps += res.Steps
	r.Compute(float64(res.Steps) * flopsPerSearchStep)

	if res.Exited && pt.Hops < maxForwardHops {
		to := s.rankOfCell(pt.Grid, res.ExitCell)
		if to >= 0 && to != s.Rank {
			s.Forwards++
			f := *pt
			f.Start = res.ExitCell
			f.Hops++
			f.Restarts += res.Restarts
			s.fwdbox[to] = append(s.fwdbox[to], f)
			return ptRep{}, true
		}
	}
	if res.OK {
		// This rank now owes the origin interpolated data at every
		// timestep until the next connectivity solve.
		s.sendList[pt.Origin] = append(s.sendList[pt.Origin],
			sendEntry{origin: pt.Origin, id: pt.ID, donor: res.Donor})
	}
	return ptRep{ID: pt.ID, OK: res.OK, Donor: res.Donor, Rank: s.Rank}, false
}

// nearestStartInBox samples a coarse lattice of the subdomain and returns
// the cell nearest the target position.
func nearestStartInBox(g *grid.Grid, box grid.IBox, pos geom.Vec3) [3]int {
	const samples = 4
	best := [3]int{box.ILo, box.JLo, box.KLo}
	bestD := pos.Sub(g.At(box.ILo, box.JLo, box.KLo)).Norm2()
	for sk := 0; sk <= samples; sk++ {
		k := box.KLo + (box.KHi-box.KLo)*sk/samples
		for sj := 0; sj <= samples; sj++ {
			j := box.JLo + (box.JHi-box.JLo)*sj/samples
			for si := 0; si <= samples; si++ {
				i := box.ILo + (box.IHi-box.ILo)*si/samples
				d := pos.Sub(g.At(i, j, k)).Norm2()
				if d < bestD {
					bestD = d
					best = [3]int{i, j, k}
				}
			}
		}
	}
	return best
}

// cutHolesLocal performs distributed hole cutting over this rank's points.
// bounds is the world-frame bounding box of those points.
func (s *Solver) cutHolesLocal(r *par.Rank, gi int, box grid.IBox, bounds geom.Box) {
	g := s.Cfg.Sys.Grids[gi]
	// Rank 0 updates cutter transforms and re-places the hole-map lattices
	// once; every rank then classifies the cells its own points fall in.
	// The charge below is the eager lattice build the 1997 code performs on
	// every processor's own copy.
	if r.ID == 0 {
		for _, bc := range s.Cfg.Cutters {
			if bc.FollowGrid >= 0 {
				bc.Cutter.SetTransform(s.Cfg.Sys.Grids[bc.FollowGrid].Xform)
			}
		}
		s.Cfg.RebuildHoleMaps()
	}
	if s.Cfg.HoleMapRes > 0 {
		r.Compute(float64(s.Cfg.HoleMapRes*s.Cfg.HoleMapRes*s.Cfg.HoleMapRes) * 9 * float64(len(s.Cfg.Cutters)))
	}
	r.Barrier()

	// Reset my points, then cut. Row bases and the IBlank/coordinate
	// slices are hoisted out of the contiguous i-runs.
	tested := 0
	ib, gx, gy, gz := g.IBlank, g.X, g.Y, g.Z
	for k := box.KLo; k <= box.KHi; k++ {
		for j := box.JLo; j <= box.JHi; j++ {
			row := g.NI * (j + g.NJ*k)
			for i := box.ILo; i <= box.IHi; i++ {
				ib[row+i] = grid.IBField
			}
		}
	}
	directTests := 0
	for _, bc := range s.Cfg.Cutters {
		if bc.Owns(gi) {
			continue
		}
		cb := bc.Cutter.Bounds()
		if !cb.Overlaps(bounds) {
			// No point of this subdomain passes cb.Contains below.
			continue
		}
		inside := bc.Cutter.Inside
		direct := true
		if hm := bc.HoleMap(); hm != nil {
			inside = hm.InsideQuiet
			direct = false
		}
		for k := box.KLo; k <= box.KHi; k++ {
			for j := box.JLo; j <= box.JHi; j++ {
				row := g.NI * (j + g.NJ*k)
				for i := box.ILo; i <= box.IHi; i++ {
					n := row + i
					if ib[n] == grid.IBHole {
						continue
					}
					p := geom.Vec3{X: gx[n], Y: gy[n], Z: gz[n]}
					if !cb.Contains(p) {
						continue
					}
					tested++
					if direct {
						directTests++
					}
					if inside(p) {
						ib[n] = grid.IBHole
					}
				}
			}
		}
	}
	// Analytic cutter queries cost several times a hole-map lattice lookup
	// (the optimization DCF3D's hole maps exist for).
	r.Compute(float64(tested)*flopsPerHoleTest + float64(directTests)*3*flopsPerHoleTest)
	r.Barrier()
}

// markFringesLocal marks fringe layers over this rank's points, with a
// barrier between layers (each layer reads the previous layer's marks,
// possibly across subdomain boundaries).
func (s *Solver) markFringesLocal(r *par.Rank, g *grid.Grid, gi int, box grid.IBox) {
	depth := s.Cfg.FringeDepth
	if depth < 1 {
		depth = 2
	}
	marked := 0
	ib := g.IBlank
	for layer := 0; layer < depth; layer++ {
		s.marks = overset.AppendFringeLayer(s.marks[:0], g, box, layer)
		r.Barrier() // reads done everywhere before writes land
		for _, n := range s.marks {
			ib[n] = grid.IBFringe
		}
		marked += len(s.marks)
		r.Barrier()
	}
	for f := grid.IMin; f <= grid.KMax; f++ {
		if g.BCs[f] != grid.BCOverset {
			continue
		}
		overset.MarkFaceFringeBox(g, f, depth, box)
	}
	r.Compute(float64(box.Count()*depth) * flopsPerFringeMark)
	r.Barrier()
}
