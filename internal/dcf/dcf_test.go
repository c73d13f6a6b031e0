package dcf

import (
	"math"
	"runtime"
	"testing"

	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/overset"
	"overd/internal/par"
)

// testSystem builds a small airfoil-style three-grid system with a static
// plan over the given node count, returning the parts and per-rank blocks.
func testSystem(t *testing.T, nodes int) (*overset.Config, []Part, []*flow.Block) {
	t.Helper()
	af := gridgen.AirfoilOGrid(0, "airfoil", 48, 16, 1.2)
	af.Moving = true
	ring := gridgen.Annulus(1, "ring", 48, 16, 0.5, 0, 0.35, 3.0)
	bg := gridgen.CartesianBox(2, "bg", 24, 24, 1,
		geom.Box{Min: geom.Vec3{X: -6, Y: -6}, Max: geom.Vec3{X: 7, Y: 6}})
	sys := &grid.System{Grids: []*grid.Grid{af, ring, bg}}
	cfg := &overset.Config{
		Sys: sys,
		Cutters: []*overset.BodyCutter{{
			Cutter:     overset.NewAirfoilCutter(0.02),
			OwnGrids:   []int{0},
			FollowGrid: 0,
		}},
		Search:      map[int][]int{0: {1, 2}, 1: {0, 2}, 2: {1, 0}},
		FringeDepth: 2,
		HoleMapRes:  24,
	}
	parts := planParts(t, sys, nodes)
	blocks := make([]*flow.Block, nodes)
	fs := flow.Freestream{Mach: 0.5}
	for gi := range sys.Grids {
		var boxes []grid.IBox
		var ranks []int
		for r, p := range parts {
			if p.Grid == gi {
				boxes = append(boxes, p.Box)
				ranks = append(ranks, r)
			}
		}
		for i, b := range flow.BuildBlocks(sys.Grids[gi], boxes, ranks, fs) {
			blocks[ranks[i]] = b
		}
	}
	return cfg, parts, blocks
}

func TestDistributedSolveMatchesSerialCoverage(t *testing.T) {
	for _, nodes := range []int{3, 6} {
		cfg, parts, _ := testSystem(t, nodes)
		solvers := make([]*Solver, nodes)
		statsAll := make([]Stats, nodes)
		w := par.NewWorld(nodes, machine.SP2())
		w.Run(func(r *par.Rank) {
			solvers[r.ID] = NewSolver(cfg, parts, r.ID)
			statsAll[r.ID] = solvers[r.ID].Solve(r)
		})
		totalIGBPs, totalOrphans, totalRecv := 0, 0, 0
		for _, s := range statsAll {
			totalIGBPs += s.LocalIGBPs
			totalOrphans += s.Orphans
			totalRecv += s.Received
		}
		// Serial reference on identical geometry.
		cfgS, _, _ := testSystem(t, 3)
		conn := cfgS.Assemble()
		if totalIGBPs != len(conn.IGBPs) {
			t.Errorf("nodes=%d: distributed found %d IGBPs, serial %d",
				nodes, totalIGBPs, len(conn.IGBPs))
		}
		if totalOrphans > len(conn.IGBPs)/20+conn.Orphans {
			t.Errorf("nodes=%d: distributed orphans %d vs serial %d",
				nodes, totalOrphans, conn.Orphans)
		}
		if totalRecv < totalIGBPs-totalOrphans {
			t.Errorf("nodes=%d: served %d requests for %d IGBPs", nodes, totalRecv, totalIGBPs)
		}
	}
}

func TestDistributedDonorsReconstructPositions(t *testing.T) {
	nodes := 6
	cfg, parts, _ := testSystem(t, nodes)
	solvers := make([]*Solver, nodes)
	w := par.NewWorld(nodes, machine.SP2())
	w.Run(func(r *par.Rank) {
		solvers[r.ID] = NewSolver(cfg, parts, r.ID)
		solvers[r.ID].Solve(r)
	})
	checked := 0
	for _, s := range solvers {
		for id, d := range s.donors {
			if d.Grid < 0 {
				continue
			}
			pt := s.igbps[id]
			g := cfg.Sys.Grids[d.Grid]
			pos := overset.Interpolate(g, d, func(i, j, k int) [5]float64 {
				n := g.Idx(i, j, k)
				return [5]float64{g.X[n], g.Y[n], g.Z[n], 0, 0}
			})
			rec := geom.Vec3{X: pos[0], Y: pos[1], Z: pos[2]}
			if rec.Dist(pt.Pos) > 1e-6 {
				t.Fatalf("rank %d IGBP %d: donor reconstructs %v, want %v",
					s.Rank, id, rec, pt.Pos)
			}
			// The recorded donor rank really owns the donor cell.
			if dr := s.donorRank[id]; dr >= 0 {
				if parts[dr].Grid != d.Grid || !parts[dr].Box.Contains(d.I, d.J, d.K) {
					t.Fatalf("donor rank %d does not own cell %v of grid %d", dr, [3]int{d.I, d.J, d.K}, d.Grid)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no donors checked")
	}
}

func TestRestartReducesRounds(t *testing.T) {
	nodes := 6
	cfg, parts, _ := testSystem(t, nodes)
	solvers := make([]*Solver, nodes)
	steps1 := make([]int, nodes)
	steps2 := make([]int, nodes)
	w := par.NewWorld(nodes, machine.SP2())
	w.Run(func(r *par.Rank) {
		solvers[r.ID] = NewSolver(cfg, parts, r.ID)
		solvers[r.ID].Solve(r)
		steps1[r.ID] = solvers[r.ID].SearchSteps
	})
	// Move the airfoil slightly and resolve: restart should cut work.
	cfg.Sys.Grids[0].ApplyTransform(geom.Transform{R: geom.RotZ(0.01), T: geom.Vec3{}})
	w2 := par.NewWorld(nodes, machine.SP2())
	w2.Run(func(r *par.Rank) {
		solvers[r.ID].Solve(r)
		steps2[r.ID] = solvers[r.ID].SearchSteps
	})
	t1, t2 := 0, 0
	for i := range steps1 {
		t1 += steps1[i]
		t2 += steps2[i]
	}
	if t2 >= t1 {
		t.Errorf("restart should reduce search work: first %d, second %d", t1, t2)
	}
}

func TestUpdateFringesDeliversInterpolatedData(t *testing.T) {
	nodes := 3
	cfg, parts, blocks := testSystem(t, nodes)
	solvers := make([]*Solver, nodes)
	w := par.NewWorld(nodes, machine.SP2())
	w.Run(func(r *par.Rank) {
		solvers[r.ID] = NewSolver(cfg, parts, r.ID)
		solvers[r.ID].Solve(r)
		blocks[r.ID].RefreshMasks()
		r.Barrier()
		// Tag every block's state with its grid id in the density slot.
		b := blocks[r.ID]
		for n := 0; n < b.NPointsLocal(); n++ {
			b.SetQ(n, [5]float64{float64(parts[r.ID].Grid + 2), 0, 0, 0, 1})
		}
		r.Barrier()
		b.ExchangeHalo(r)
		solvers[r.ID].UpdateFringes(r, b)
	})
	// Fringe points now hold their donor grid's tag, not their own.
	verified := 0
	for rank, s := range solvers {
		b := blocks[rank]
		for id, d := range s.donors {
			if d.Grid < 0 {
				continue
			}
			pt := s.igbps[id]
			q, ok := b.QAtGlobal(pt.I, pt.J, pt.K)
			if !ok {
				continue
			}
			want := float64(d.Grid + 2)
			if math.Abs(q[0]-want) > 1e-12 {
				t.Fatalf("rank %d fringe (%d,%d,%d): rho %v, want donor tag %v",
					rank, pt.I, pt.J, pt.K, q[0], want)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatal("no fringe deliveries verified")
	}
}

// TestUpdateFringesZeroAlloc: every rank's values go out in its own batch
// for the destination, and once two steps have sized the batches (and the
// inboxes have held a message from every rank) a step's exchange allocates
// nothing. One proc: parked goroutines take the runtime's per-P wait
// records, which more procs pass between them, allocating as they go.
func TestUpdateFringesZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const nodes, steps, warm = 6, 6, 2
	cfg, parts, blocks := testSystem(t, nodes)
	perStep := make([]uint64, steps)
	duties := make([]int, nodes)
	var ms runtime.MemStats
	par.NewWorld(nodes, machine.SP2()).Run(func(r *par.Rank) {
		s := NewSolver(cfg, parts, r.ID)
		s.Solve(r)
		b := blocks[r.ID]
		b.RefreshMasks()
		stretchInboxes(r, 1)
		for _, l := range s.sendList {
			duties[r.ID] += len(l)
		}
		for n := 0; n < steps; n++ {
			b.ExchangeHalo(r)
			r.Barrier()
			if r.ID == 0 {
				runtime.ReadMemStats(&ms)
				perStep[n] = ms.TotalAlloc
			}
			r.Barrier()
			s.UpdateFringes(r, b)
			r.Barrier()
			if r.ID == 0 {
				runtime.ReadMemStats(&ms)
				perStep[n] = ms.TotalAlloc - perStep[n]
			}
			r.Barrier()
		}
	})
	t.Logf("bytes allocated per exchange: %v", perStep)
	owed := 0
	for _, d := range duties {
		owed += d
	}
	if owed == 0 {
		t.Fatal("no rank owes fringe values: nothing was exchanged")
	}
	for n := warm; n < steps; n++ {
		if perStep[n] != 0 {
			t.Errorf("exchange %d allocated %d bytes over %d ranks, want 0", n, perStep[n], nodes)
		}
	}
}

func TestInvalidateRestart(t *testing.T) {
	cfg, parts, _ := testSystem(t, 3)
	s := NewSolver(cfg, parts, 0)
	s.restart = map[restartKey]restartHint{packRestartKey(0, 1, 2, 0): {}}
	s.InvalidateRestart()
	if len(s.restart) != 0 {
		t.Error("restart map should be empty")
	}
}

func TestRankOfCell(t *testing.T) {
	_, parts, _ := testSystem(t, 6)
	s := &Solver{Parts: parts, bufs: &bufs{}}
	for _, p := range parts {
		if got := s.rankOfCell(p.Grid, [3]int{p.Box.ILo, p.Box.JLo, p.Box.KLo}); got != p.Rank {
			t.Errorf("rankOfCell(%d, corner of rank %d) = %d", p.Grid, p.Rank, got)
		}
	}
	if s.rankOfCell(99, [3]int{0, 0, 0}) != -1 {
		t.Error("unknown grid should yield -1")
	}
}

func TestSolveChargesConnectPhase(t *testing.T) {
	nodes := 3
	cfg, parts, _ := testSystem(t, nodes)
	w := par.NewWorld(nodes, machine.SP2())
	ranks := w.Run(func(r *par.Rank) {
		s := NewSolver(cfg, parts, r.ID)
		s.Solve(r)
	})
	for _, r := range ranks {
		if r.PhaseTime(par.PhaseConnect) <= 0 {
			t.Errorf("rank %d: no connect-phase time", r.ID)
		}
	}
}

// A solver lent its rank's buffers by an Arenas that served another world
// starts as a new solver does — no fringe points, donors, hints or
// interpolation duties — with the capacities the last one left.
func TestUseArenasStartsEmpty(t *testing.T) {
	cfg, parts, _ := testSystem(t, 6)
	arenas := NewArenas(6)
	solvers := make([]*Solver, 6)
	par.NewWorld(6, machine.SP2()).Run(func(r *par.Rank) {
		solvers[r.ID] = NewSolver(cfg, parts, r.ID)
		solvers[r.ID].UseArenas(arenas)
		solvers[r.ID].Solve(r)
	})
	duties, hints := 0, 0
	for _, s := range solvers {
		hints += len(s.restart)
		for _, l := range s.sendList {
			duties += len(l)
		}
	}
	if duties == 0 || hints == 0 {
		t.Fatalf("the first world left %d duties and %d hints: nothing to forget", duties, hints)
	}
	// A smaller world and back: rank 5's buffers wait out the 3-rank world.
	for _, n := range []int{3, 6} {
		arenas.Resize(n)
		_, parts, _ := testSystem(t, n)
		for rank := 0; rank < n; rank++ {
			s := NewSolver(cfg, parts, rank)
			s.UseArenas(arenas)
			if s.bufs != &arenas.bufs[rank] || cap(s.sendList) != 6 {
				t.Fatalf("%d ranks: rank %d does not work in what its rank's last solver left", n, rank)
			}
			if res, orph := s.DonorCounts(); s.IGBPCount() != 0 || res+orph != 0 || len(s.donorRank) != 0 || len(s.restart) != 0 {
				t.Errorf("%d ranks: rank %d starts with %d fringe points, %d donors, %d hints", n, rank, s.IGBPCount(), res+orph, len(s.restart))
			}
			for dst, l := range s.sendList[:cap(s.sendList)] {
				if len(l) != 0 {
					t.Errorf("%d ranks: rank %d starts owing rank %d %d values", n, rank, dst, len(l))
				}
			}
		}
	}
}
