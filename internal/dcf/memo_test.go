package dcf

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"overd/internal/balance"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/overset"
	"overd/internal/par"
)

// planParts partitions a grid system over nodes ranks with the static plan.
func planParts(t *testing.T, sys *grid.System, nodes int) []Part {
	t.Helper()
	sizes := make([]int, len(sys.Grids))
	dims := make([][3]int, len(sys.Grids))
	for gi, g := range sys.Grids {
		sizes[gi] = g.NPoints()
		dims[gi] = [3]int{g.NI, g.NJ, g.NK}
	}
	plan, err := balance.Static(sizes, nodes)
	if err != nil {
		t.Fatal(err)
	}
	balance.SubdividePlan(plan, dims)
	parts := make([]Part, nodes)
	for r, p := range plan.Parts {
		parts[r] = Part{Grid: p.Grid, Rank: r, Box: p.Box}
	}
	return parts
}

// fourGridSystem is an airfoil O-grid that cuts a hole and two rings that
// walk, over a Cartesian background that resolves directly. Only the rings
// and the background are cut, so when the airfoil moves, the fringe sets of
// the grids that did not move change. The outer ring reaches past the
// background: some of its fringe points are orphans, whatever is tried.
func fourGridSystem() *overset.Config {
	af := gridgen.AirfoilOGrid(0, "airfoil", 48, 16, 1.2)
	af.Moving = true
	near := gridgen.Annulus(1, "near", 64, 16, 0.5, 0, 0.35, 3.0)
	far := gridgen.Annulus(2, "far", 48, 12, 0.3, 0.2, 2.0, 4.5)
	far.Moving = true
	bg := gridgen.CartesianBox(3, "bg", 28, 28, 1,
		geom.Box{Min: geom.Vec3{X: -7, Y: -7}, Max: geom.Vec3{X: 4.4, Y: 7}})
	return &overset.Config{
		Sys: &grid.System{Grids: []*grid.Grid{af, near, far, bg}},
		Cutters: []*overset.BodyCutter{{
			Cutter:     overset.NewAirfoilCutter(0.02),
			OwnGrids:   []int{0},
			FollowGrid: 0,
		}},
		Search:      map[int][]int{0: {1, 2, 3}, 1: {0, 2, 3}, 2: {1, 3}, 3: {2, 1, 0}},
		FringeDepth: 2,
		HoleMapRes:  24,
	}
}

// fourGridMotion places the grids for solve n: the airfoil moves every
// solve, near never does, far moves at solves 1, 4 and 7 and rests between.
func fourGridMotion(gi, n int) (geom.Transform, bool) {
	switch {
	case gi == 0:
		return geom.Transform{R: geom.RotZ(0.05 * float64(n)), T: geom.Vec3{X: 0.15 * float64(n)}}, true
	case gi == 2 && n%3 == 1:
		return geom.Transform{R: geom.RotZ(0.01 * float64(n)), T: geom.Vec3{Y: 0.02 * float64(n)}}, true
	}
	return geom.Transform{}, false
}

// solveRecord is everything one rank's solve decided, and its clock after.
type solveRecord struct {
	igbps     []overset.IGBP
	donors    []overset.Donor
	donorRank []int
	counters  [6]int
	clock     float64
}

func record(s *Solver, r *par.Rank) solveRecord {
	return solveRecord{
		igbps:     append([]overset.IGBP(nil), s.igbps...),
		donors:    append([]overset.Donor(nil), s.donors...),
		donorRank: append([]int(nil), s.donorRank...),
		counters:  [6]int{s.SearchSteps, s.Forwards, s.ReceivedIGBPs, s.Hinted, s.Scratch, s.Orphans},
		clock:     r.Clock,
	}
}

// diff names the first difference between two records, bit for bit.
func (a solveRecord) diff(b solveRecord) string {
	if a.counters != b.counters {
		return fmt.Sprintf("counters %v vs %v", a.counters, b.counters)
	}
	if math.Float64bits(a.clock) != math.Float64bits(b.clock) {
		return fmt.Sprintf("clock %v vs %v", a.clock, b.clock)
	}
	if len(a.donors) != len(b.donors) {
		return fmt.Sprintf("%d vs %d fringe points", len(a.donors), len(b.donors))
	}
	for id := range a.donors {
		da, db := a.donors[id], b.donors[id]
		if a.igbps[id] != b.igbps[id] || a.donorRank[id] != b.donorRank[id] ||
			da.Grid != db.Grid || da.I != db.I || da.J != db.J || da.K != db.K ||
			math.Float64bits(da.A) != math.Float64bits(db.A) ||
			math.Float64bits(da.B) != math.Float64bits(db.B) ||
			math.Float64bits(da.C) != math.Float64bits(db.C) {
			return fmt.Sprintf("fringe point %d: %+v from rank %d vs %+v from rank %d",
				id, da, a.donorRank[id], db, b.donorRank[id])
		}
	}
	return ""
}

// runSolves builds a fresh copy of a system, runs nSolves connectivity
// solves on one world with the grids placed by motion before each, and
// returns every rank's record of every solve. A non-nil faults loses
// messages; a non-nil after runs on each rank once its solve is recorded —
// the tests' handle on the memo.
func runSolves(t *testing.T, build func() *overset.Config, nodes, nSolves int,
	motion func(gi, n int) (geom.Transform, bool), faults par.Injector,
	after func(s *Solver, n int)) ([][]solveRecord, []*Solver) {
	t.Helper()
	cfg := build()
	parts := planParts(t, cfg.Sys, nodes)
	first := make(map[int]int) // grid -> its lowest rank, which moves it
	for r := nodes - 1; r >= 0; r-- {
		first[parts[r].Grid] = r
	}
	out := make([][]solveRecord, nodes)
	solvers := make([]*Solver, nodes)
	w := par.NewWorld(nodes, machine.SP2())
	if faults != nil {
		w.SetFaults(faults)
	}
	w.Run(func(r *par.Rank) {
		s := NewSolver(cfg, parts, r.ID)
		solvers[r.ID] = s
		for n := 0; n < nSolves; n++ {
			gi := parts[r.ID].Grid
			if xf, moves := motion(gi, n); moves && first[gi] == r.ID {
				cfg.Sys.Grids[gi].ApplyTransform(xf)
			}
			r.Barrier()
			s.Solve(r)
			out[r.ID] = append(out[r.ID], record(s, r))
			if after != nil {
				after(s, n)
			}
			r.Barrier()
		}
	})
	return out, solvers
}

func compareRuns(t *testing.T, what string, got, want [][]solveRecord) {
	t.Helper()
	for rank := range want {
		for n := range want[rank] {
			if d := got[rank][n].diff(want[rank][n]); d != "" {
				t.Fatalf("%s: rank %d solve %d: %s", what, rank, n, d)
			}
		}
	}
}

func clearMemo(s *Solver, _ int) { clear(s.memo) }

// oneSlotMemo leaves the solver a one-slot table that the next solve will
// not grow: every remembered walk collides with every other.
func oneSlotMemo(s *Solver, _ int) {
	s.memoReqs = 0
	s.memo = make([]walkSlot, 1)
}

// TestWalkMemoBitIdentical: a world that remembers walks, a world whose
// memo is emptied after every solve and a world whose memo has one slot
// decide the same donors from the same ranks, count the same work and keep
// the same clocks, while one grid moves every solve, one never moves and
// one moves, rests twice and moves again.
func TestWalkMemoBitIdentical(t *testing.T) {
	const nodes, nSolves = 10, 9
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			used := 0
			want, _ := runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, nil, clearMemo)
			got, solvers := runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, nil, func(s *Solver, n int) {
				if g := s.Parts[s.Rank].Grid; (g == 0 || g == 3 || g == 2 && n%3 == 1) && len(s.memo) != 0 {
					t.Errorf("rank %d (grid %d) holds a memo after solve %d, in which it moved or resolved directly", s.Rank, g, n)
				}
			})
			compareRuns(t, "remembered vs emptied memo", got, want)
			forwards, scratch, orphans := 0, 0, 0
			for rank, s := range solvers {
				for i := range s.memo {
					if s.memo[i].req != 0 {
						used++
					}
				}
				for _, rec := range got[rank][1:] {
					forwards += rec.counters[1]
					scratch += rec.counters[4]
					orphans += rec.counters[5]
				}
			}
			if used == 0 || forwards == 0 || scratch == 0 || orphans == 0 {
				t.Errorf("case exercises too little: %d remembered walks; warm solves made %d forwards and %d scratch searches, left %d orphans",
					used, forwards, scratch, orphans)
			}
			got, _ = runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, nil, oneSlotMemo)
			compareRuns(t, "one-slot vs emptied memo", got, want)
		})
	}
}

// TestWalkMemoIsConsulted guards the test above against a memo that is
// never hit: adding a step to every remembered walk must show in the search
// steps of the ranks whose grid stays put.
func TestWalkMemoIsConsulted(t *testing.T) {
	const nodes, nSolves = 10, 6
	want, _ := runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, nil, nil)
	got, solvers := runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, nil, func(s *Solver, _ int) {
		for i := range s.memo {
			s.memo[i].steps++
		}
	})
	for rank, s := range solvers {
		extra := got[rank][nSolves-1].counters[0] - want[rank][nSolves-1].counters[0]
		switch s.Parts[rank].Grid {
		case 1: // never moves
			if extra <= 0 {
				t.Errorf("rank %d (grid near): %d extra steps, remembered walks were not used", rank, extra)
			}
		case 0, 3: // moves every solve; resolves directly
			if extra != 0 {
				t.Errorf("rank %d (grid %d): %d extra steps from a memo it must not have", rank, s.Parts[rank].Grid, extra)
			}
		}
	}
}

// coverSystem: the fringe of a small ring (patch) lies in a large ring
// (wide) and finds donors nowhere else; a box cutter rides a third, moving
// ring (rider) and cuts only wide.
func coverSystem() *overset.Config {
	wide := gridgen.Annulus(0, "wide", 64, 16, 0, 0, 0.5, 4)
	patch := gridgen.Annulus(1, "patch", 32, 8, 2.2, 0, 0.2, 0.6)
	rider := gridgen.Annulus(2, "rider", 16, 6, -2.5, 0, 0.1, 0.3)
	rider.Moving = true
	return &overset.Config{
		Sys: &grid.System{Grids: []*grid.Grid{wide, patch, rider}},
		Cutters: []*overset.BodyCutter{{
			Cutter: overset.NewBoxCutter(geom.Box{
				Min: geom.Vec3{X: -3.4, Y: -0.9, Z: -1}, Max: geom.Vec3{X: -1.6, Y: 0.9, Z: 1}}),
			OwnGrids:   []int{1, 2},
			FollowGrid: 2,
		}},
		Search:      map[int][]int{0: {1, 2}, 1: {0}, 2: {0}},
		FringeDepth: 2,
		HoleMapRes:  16,
	}
}

// TestWalkMemoSurvivesBlankedDonor: the cutter comes to rest on the cells
// of the unmoved ring that donate to the patch, stays for two solves and
// leaves. The patch's fringe points lose their donors and get exactly the
// old ones back — from walks remembered all along, resolved against the
// IBlank of the day — as in a world that remembers nothing.
func TestWalkMemoSurvivesBlankedDonor(t *testing.T) {
	const nodes, nSolves = 6, 6
	motion := func(gi, n int) (geom.Transform, bool) {
		if gi != 2 {
			return geom.Transform{}, false
		}
		xf := geom.IdentityTransform()
		if n == 2 || n == 3 {
			xf.T.X = 4.7 // onto the patch
		}
		return xf, true
	}
	want, _ := runSolves(t, coverSystem, nodes, nSolves, motion, nil, clearMemo)
	got, solvers := runSolves(t, coverSystem, nodes, nSolves, motion, nil, nil)
	compareRuns(t, "remembered vs emptied memo", got, want)
	lostAndFound := 0
	for rank, s := range solvers {
		if s.Parts[rank].Grid != 1 {
			continue
		}
		recs := got[rank]
		for id, d := range recs[1].donors {
			if d.Grid == 0 && recs[2].donors[id].Grid < 0 && recs[3].donors[id].Grid < 0 &&
				recs[4].donors[id] == d && recs[4].igbps[id] == recs[1].igbps[id] {
				lostAndFound++
			}
		}
	}
	if lostAndFound == 0 {
		t.Error("no fringe point of the patch lost its donor under the cutter and got it back")
	}
	for rank, s := range solvers {
		if s.Parts[rank].Grid == 0 && len(s.memo) == 0 {
			t.Errorf("rank %d of the unmoved ring holds no memo", rank)
		}
	}
}

// lossyLinks drops search-request and search-reply attempts by a hash of
// the attempt, often enough that some batches outlast the retry budget.
type lossyLinks struct{}

func (lossyLinks) Drop(from, to, tag int, seq uint64) bool {
	if tag != int(par.TagSearchReq) && tag != int(par.TagSearchRep) {
		return false
	}
	h := (uint64(from)<<40 ^ uint64(to)<<20 ^ uint64(tag)<<56 ^ seq) * 0x9e3779b97f4a7c15
	h = (h ^ h>>29) * 0xbf58476d1ce4e5b9
	return (h^h>>32)%100 < 55
}

// TestLostBatchesReuseBuffers: with request, forward and reply batches lost
// beyond the retry budget, the re-queue and lost-forward paths run on the
// same per-destination buffers as everything else. The solves must end,
// degrade to a bounded number of orphans, leave every interpolation duty
// matched by the donor its origin recorded, and come out the same at any
// GOMAXPROCS.
func TestLostBatchesReuseBuffers(t *testing.T) {
	const nodes, nSolves = 10, 4
	run := func(procs int, faults par.Injector) ([][]solveRecord, []*Solver) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return runSolves(t, fourGridSystem, nodes, nSolves, fourGridMotion, faults, nil)
	}
	clean, _ := run(4, nil)
	got, solvers := run(4, lossyLinks{})
	again, _ := run(1, lossyLinks{})
	compareRuns(t, "lossy run at GOMAXPROCS 4 vs 1", got, again)

	lostSends, lostFwds, lostReplies, igbps, orphans, cleanOrphans := 0, 0, 0, 0, 0, 0
	for rank, s := range solvers {
		lostSends += s.LostSends
		for _, reps := range s.lostFwds { // kept from the latest lost forward batch
			lostFwds += len(reps)
		}
		lostReplies += s.LostReplies
		igbps += len(s.igbps)
		orphans += s.Orphans
		cleanOrphans += clean[rank][nSolves-1].counters[5]
	}
	if lostSends == 0 || lostFwds == 0 || lostReplies == 0 {
		t.Fatalf("plan lost %d request batches (%d forwards in the latest) and %d reply batches for good; want some of each",
			lostSends, lostFwds, lostReplies)
	}
	if orphans < cleanOrphans || orphans > igbps/2 {
		t.Errorf("%d orphans of %d fringe points (clean run: %d)", orphans, igbps, cleanOrphans)
	}
	owed := 0
	for _, s := range solvers {
		for origin, entries := range s.sendList {
			for _, e := range entries {
				o := solvers[origin]
				if o.donorRank[e.id] != s.Rank || o.donors[e.id] != e.donor {
					t.Fatalf("rank %d owes rank %d point %d donor %+v; the origin recorded %+v from rank %d",
						s.Rank, origin, e.id, e.donor, o.donors[e.id], o.donorRank[e.id])
				}
				owed++
			}
		}
	}
	if owed != igbps-orphans {
		t.Errorf("%d interpolation duties for %d resolved fringe points", owed, igbps-orphans)
	}
}

// TestSolveSteadyStateFootprint: once buffers have found their capacity a
// warm solve allocates nothing, and the memo stays within four times the
// walks of a single solve although the set of fringe points of the grids
// that do not move — the keys of the remembered walks — changes every
// solve.
func TestSolveSteadyStateFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nodes, nSolves = 12, 9
	// Nothing is left to allocate: the bounds are gathered as floats into
	// the world's scratch, and every batch is a buffer of its sender's.
	const ceiling = 0

	cfg := fourGridSystem()
	parts := planParts(t, cfg.Sys, nodes)
	var ms runtime.MemStats
	perSolve := make([]uint64, nSolves) // sized up front: growing it would count
	walks := make([][]int, nodes)
	tableLen := make([][]int, nodes)
	fringe := make([][]map[overset.IGBP]bool, nodes)
	par.NewWorld(nodes, machine.SP2()).Run(func(r *par.Rank) {
		s := NewSolver(cfg, parts, r.ID)
		stretchInboxes(r, 3)
		for n := 0; n < nSolves; n++ {
			if r.ID == 0 {
				// The airfoil swings: every solve differs from the one
				// before, and from solve 4 on none is new.
				xf, _ := fourGridMotion(0, []int{0, 1, 2, 1}[n%4])
				cfg.Sys.Grids[0].ApplyTransform(xf)
				runtime.ReadMemStats(&ms)
				perSolve[n] = ms.TotalAlloc
			}
			r.Barrier()
			s.Solve(r)
			r.Barrier()
			if r.ID == 0 {
				runtime.ReadMemStats(&ms)
				perSolve[n] = ms.TotalAlloc - perSolve[n]
			}
			r.Barrier()
			walks[r.ID] = append(walks[r.ID], s.memoReqs)
			tableLen[r.ID] = append(tableLen[r.ID], len(s.memo))
			set := make(map[overset.IGBP]bool, len(s.igbps))
			for _, pt := range s.igbps {
				set[pt] = true
			}
			fringe[r.ID] = append(fringe[r.ID], set)
			r.Barrier()
		}
	})
	t.Logf("bytes allocated per solve: %v", perSolve)
	for n := 5; n <= 8; n++ {
		if perSolve[n] > ceiling {
			t.Errorf("solve %d allocated %d bytes over %d ranks, ceiling %d", n, perSolve[n], nodes, ceiling)
		}
	}
	tables := 0
	for rank := range parts {
		most := 0
		for n := range walks[rank] {
			most = max(most, walks[rank][n])
			if tableLen[rank][n] > 4*most {
				t.Errorf("rank %d solve %d: table of %d slots for at most %d walks a solve", rank, n, tableLen[rank][n], most)
			}
		}
		if tableLen[rank][nSolves-1] > 0 {
			tables++
		}
	}
	if tables == 0 {
		t.Error("no rank built a memo")
	}
	// The hole follows the airfoil: taken over all their ranks, the fringe
	// points of the grids that never move differ from solve to solve.
	for n := 1; n < nSolves; n++ {
		changed := false
		for rank := range parts {
			if g := parts[rank].Grid; (g == 1 || g == 3) && !sameSet(fringe[rank][n], fringe[rank][n-1]) {
				changed = true
			}
		}
		if !changed {
			t.Errorf("solve %d: the unmoved grids kept their fringe points of solve %d", n, n-1)
		}
	}
}

// stretchInboxes has every rank hold perPeer messages from every other rank
// at once, first in its inbox and then in its list of delivered messages
// not yet matched. A round of the donor search has at most three in flight
// from each rank (requests, forwards, a reply), but how many of them are
// queued together is the host scheduler's choice, and without this the
// lists would reach their size in whichever solve it first chose the most.
func stretchInboxes(r *par.Rank, perPeer int) {
	const tag = par.TagUser + 9
	for to := 0; to < r.Size(); to++ {
		for i := 0; to != r.ID && i < perPeer; i++ {
			r.Send(to, tag, nil, 0)
		}
	}
	r.Barrier()
	for {
		if _, ok := r.TryRecv(par.AnyRank, tag); !ok {
			break
		}
	}
	r.Barrier()
}

func sameSet(a, b map[overset.IGBP]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}
