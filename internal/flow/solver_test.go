package flow

import (
	"math"
	"testing"

	"overd/internal/balance"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/par"
)

// runSerial executes fn on a single-rank world.
func runSerial(t *testing.T, fn func(r *par.Rank)) {
	t.Helper()
	par.NewWorld(1, machine.SP2()).Run(fn)
}

func TestFreestreamPreservationCartesian3D(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 12, 10, 8,
		geom.Box{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}})
	fs := Freestream{Mach: 0.8}
	qf := fs.Conserved()
	runSerial(t, func(r *par.Rank) {
		b := NewBlock(g, g.Full(), fs)
		for step := 0; step < 3; step++ {
			b.FlowStep(r, 0.01)
		}
		maxDiff := 0.0
		b.eachInterior(func(p int) {
			for c := 0; c < 5; c++ {
				d := math.Abs(b.Q[5*p+c] - qf[c])
				if d > maxDiff {
					maxDiff = d
				}
			}
		})
		if maxDiff > 1e-11 {
			t.Errorf("freestream drift %v on Cartesian grid", maxDiff)
		}
	})
}

func TestFreestreamPreservationCurvilinear(t *testing.T) {
	// A curved ring grid: metric errors exist, but freestream subtraction
	// must keep the uniform state exactly stationary.
	g := gridgen.Annulus(0, "ring", 40, 12, 0, 0, 1, 3)
	fs := Freestream{Mach: 0.8}
	qf := fs.Conserved()
	runSerial(t, func(r *par.Rank) {
		b := NewBlock(g, g.Full(), fs)
		// Wire periodic wrap to self.
		b.Nbr[0][0] = Neighbor{Rank: 0, Wrap: true}
		b.Nbr[0][1] = Neighbor{Rank: 0, Wrap: true}
		for step := 0; step < 3; step++ {
			b.FlowStep(r, 0.01)
		}
		maxDiff := 0.0
		b.eachInterior(func(p int) {
			for c := 0; c < 5; c++ {
				if d := math.Abs(b.Q[5*p+c] - qf[c]); d > maxDiff {
					maxDiff = d
				}
			}
		})
		if maxDiff > 1e-11 {
			t.Errorf("freestream drift %v on curvilinear ring", maxDiff)
		}
	})
}

func TestJacobianPositiveOnGeneratedGrids(t *testing.T) {
	grids := []*grid.Grid{
		gridgen.AirfoilOGrid(0, "airfoil", 64, 16, 6),
		gridgen.Annulus(1, "ring", 32, 8, 0.5, 0, 1.2, 3),
		gridgen.CartesianBox(2, "bg", 8, 8, 8, geom.Box{Min: geom.Vec3{X: -1, Y: -1, Z: -1}, Max: geom.Vec3{X: 1, Y: 1, Z: 1}}),
		gridgen.BodyOfRevolutionGrid(3, "store", 20, 10, 14, gridgen.OgiveProfile(4, 0.4), 1.5),
	}
	for _, g := range grids {
		b := NewBlock(g, g.Full(), Freestream{Mach: 0.5})
		bad := 0
		b.eachInterior(func(p int) {
			if b.Jac[p] <= 0 || b.Jac[p] > 1e11 {
				bad++
			}
		})
		if bad > 0 {
			t.Errorf("grid %q has %d degenerate-Jacobian points", g.Name, bad)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	// The pipelined implicit solves must reproduce the serial arithmetic
	// exactly; a decomposed run must match a single-block run to roundoff
	// (paper §2.1: "solution convergence characteristics remain unchanged
	// with different numbers of processors").
	mk := func() *grid.Grid { return gridgen.AirfoilOGrid(0, "airfoil", 48, 14, 5) }
	fs := Freestream{Mach: 0.5, Alpha: 0.05}
	const steps = 3
	const dt = 0.02

	// Serial run.
	gS := mk()
	var qSerial []float64
	runSerial(t, func(r *par.Rank) {
		bs := BuildBlocks(gS, []grid.IBox{gS.Full()}, []int{0}, fs)
		b := bs[0]
		for s := 0; s < steps; s++ {
			b.FlowStep(r, dt)
		}
		qSerial = make([]float64, len(b.Q))
		copy(qSerial, b.Q)
	})
	bS := NewBlock(gS, gS.Full(), fs)

	// Parallel run on 4 ranks (2x2 in i,j).
	gP := mk()
	boxes := balance.Subdivide(gP.Full(), 4)
	if len(boxes) != 4 {
		t.Fatalf("expected 4 boxes, got %d", len(boxes))
	}
	ranks := []int{0, 1, 2, 3}
	blocks := BuildBlocks(gP, boxes, ranks, fs)
	w := par.NewWorld(4, machine.SP2())
	w.Run(func(r *par.Rank) {
		b := blocks[r.ID]
		for s := 0; s < steps; s++ {
			b.FlowStep(r, dt)
			r.Barrier()
		}
	})

	// Compare owned points.
	maxDiff := 0.0
	for bi, box := range boxes {
		b := blocks[bi]
		for k := box.KLo; k <= box.KHi; k++ {
			for j := box.JLo; j <= box.JHi; j++ {
				for i := box.ILo; i <= box.IHi; i++ {
					li, lj, lk := b.Local(i, j, k)
					pPar := b.LIdx(li, lj, lk)
					ls, ms, ns := bS.Local(i, j, k)
					pSer := bS.LIdx(ls, ms, ns)
					for c := 0; c < 5; c++ {
						d := math.Abs(b.Q[5*pPar+c] - qSerial[5*pSer+c])
						if d > maxDiff {
							maxDiff = d
						}
					}
				}
			}
		}
	}
	if maxDiff > 1e-10 {
		t.Errorf("parallel/serial divergence %v", maxDiff)
	}
}

func TestWallSlipCondition(t *testing.T) {
	g := gridgen.AirfoilOGrid(0, "airfoil", 48, 14, 6)
	fs := Freestream{Mach: 0.5}
	runSerial(t, func(r *par.Rank) {
		b := NewBlock(g, g.Full(), fs)
		b.Nbr[0][0] = Neighbor{Rank: 0, Wrap: true}
		b.Nbr[0][1] = Neighbor{Rank: 0, Wrap: true}
		for s := 0; s < 10; s++ {
			b.FlowStep(r, 0.02)
		}
		// Check relative normal velocity at wall points.
		maxVn := 0.0
		b.eachFacePoint(grid.JMin, func(p, in int) {
			_, u, v, w, _ := Primitive(b.QAt(p))
			n := geom.Vec3{X: b.Met[9*p+3], Y: b.Met[9*p+4], Z: b.Met[9*p+5]}.Normalized()
			vn := math.Abs(n.X*u + n.Y*v + n.Z*w)
			if vn > maxVn {
				maxVn = vn
			}
		})
		if maxVn > 1e-10 {
			t.Errorf("wall normal velocity %v, want ~0", maxVn)
		}
	})
}

func TestSolveADIZeroRHSGivesZeroUpdate(t *testing.T) {
	g := gridgen.Annulus(0, "ring", 24, 8, 0, 0, 1, 2)
	fs := Freestream{Mach: 0.6}
	runSerial(t, func(r *par.Rank) {
		b := NewBlock(g, g.Full(), fs)
		b.ensureScratch()
		// Perturb the state so eigenvalues are nontrivial.
		b.eachInterior(func(p int) { b.Q[5*p] *= 1.1 })
		for i := range b.RHS {
			b.RHS[i] = 0
		}
		b.SolveADI(r, 0.05)
		for i, v := range b.DQ {
			if v != 0 {
				t.Fatalf("DQ[%d] = %v for zero RHS", i, v)
			}
		}
	})
}

func TestForcesClosedBodyUniformPressure(t *testing.T) {
	// A uniform pressure field over a closed O-grid body integrates to
	// (nearly) zero net force.
	g := gridgen.AirfoilOGrid(0, "airfoil", 96, 10, 5)
	fs := Freestream{Mach: 0.5}
	b := NewBlock(g, g.Full(), fs)
	// State with p = 2*p∞ everywhere.
	p := 2 * fs.Pressure()
	e := p / (Gamma - 1)
	for n := 0; n < b.NPointsLocal(); n++ {
		b.SetQ(n, [5]float64{1, 0, 0, 0, e})
	}
	force, _, _ := b.Forces(geom.Vec3{})
	// Net force should be small relative to p * surface scale (~chord=1).
	if force.Norm() > 0.02*p {
		t.Errorf("closed body net force %v, want ~0", force)
	}
}

func TestForcesFlatWallDirection(t *testing.T) {
	// Wall at y=0 (JMin), fluid above. Overpressure at the wall must push
	// the body down (-y).
	g := grid.New(0, "plate", 8, 6, 1)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			g.SetBody(i, j, 0, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	g.BCs[grid.JMin] = grid.BCWall
	fs := Freestream{Mach: 0.5}
	b := NewBlock(g, g.Full(), fs)
	p := 3 * fs.Pressure()
	e := p / (Gamma - 1)
	for n := 0; n < b.NPointsLocal(); n++ {
		b.SetQ(n, [5]float64{1, 0, 0, 0, e})
	}
	force, _, _ := b.Forces(geom.Vec3{})
	if force.Y >= 0 {
		t.Errorf("overpressure should push the wall down: Fy = %v", force.Y)
	}
	if math.Abs(force.X) > 1e-9 {
		t.Errorf("flat wall should have no x force: Fx = %v", force.X)
	}
}

func TestMaxDTPositiveAndScales(t *testing.T) {
	fs := Freestream{Mach: 0.8}
	g1 := gridgen.Annulus(0, "ring", 32, 10, 0, 0, 1, 3)
	b1 := NewBlock(g1, g1.Full(), fs)
	dt1 := b1.MaxDTLocal(1)
	if dt1 <= 0 || math.IsInf(dt1, 0) {
		t.Fatalf("dt = %v", dt1)
	}
	// Refined grid must require a smaller timestep.
	g2 := g1.Refine()
	b2 := NewBlock(g2, g2.Full(), fs)
	dt2 := b2.MaxDTLocal(1)
	if dt2 >= dt1 {
		t.Errorf("refined dt %v should be below coarse dt %v", dt2, dt1)
	}
}

func TestInterpolateCellLinearExactness(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 6, 6, 6,
		geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: 5, Y: 5, Z: 5}})
	fs := Freestream{Mach: 0.5}
	b := NewBlock(g, g.Full(), fs)
	// Q = linear function of position.
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				p := b.LIdx(li, lj, lk)
				x, y, z := b.XL[p], b.YL[p], b.ZL[p]
				b.SetQ(p, [5]float64{1 + x, 2*y - z, x + y + z, 0.5 * z, 3})
			}
		}
	}
	q, ok := b.InterpolateCell(2, 3, 1, 0.25, 0.5, 0.75)
	if !ok {
		t.Fatal("interpolation failed")
	}
	x, y, z := 2.25, 3.5, 1.75
	want := [5]float64{1 + x, 2*y - z, x + y + z, 0.5 * z, 3}
	for c := 0; c < 5; c++ {
		if math.Abs(q[c]-want[c]) > 1e-12 {
			t.Errorf("component %d: %v, want %v", c, q[c], want[c])
		}
	}
}

func TestInterpolateCellRejectsHoles(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 5, 5, 5,
		geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: 4, Y: 4, Z: 4}})
	g.IBlank[g.Idx(3, 3, 2)] = grid.IBHole
	b := NewBlock(g, g.Full(), Freestream{Mach: 0.5})
	if _, ok := b.InterpolateCell(2, 2, 1, 0.5, 0.5, 0.5); ok {
		t.Error("donor cell with a hole corner must be rejected")
	}
	if _, ok := b.InterpolateCell(0, 0, 0, 0.5, 0.5, 0.5); !ok {
		t.Error("clean donor cell should interpolate")
	}
}

func TestSetFringeAndQAtGlobal(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 6, 6, 1,
		geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: 5, Y: 5}})
	b := NewBlock(g, g.Full(), Freestream{Mach: 0.5})
	q := [5]float64{2, 0.1, 0.2, 0, 3}
	if !b.SetFringe(3, 4, 0, q) {
		t.Fatal("SetFringe on owned point failed")
	}
	got, ok := b.QAtGlobal(3, 4, 0)
	if !ok {
		t.Fatal("QAtGlobal failed")
	}
	if got != q {
		t.Errorf("QAtGlobal = %v", got)
	}
	if _, ok := b.QAtGlobal(99, 0, 0); ok {
		t.Error("out-of-box query should fail")
	}
}

func TestBaldwinLomaxProducesEddyViscosity(t *testing.T) {
	// Boundary-layer-like profile on a wall grid: mut must be positive in
	// the layer, zero at the wall vicinity handled, and finite everywhere.
	g := gridgen.AirfoilOGrid(0, "airfoil", 32, 20, 4)
	g.Turbulent = true
	fs := Freestream{Mach: 0.5, Re: 1e6}
	b := NewBlock(g, g.Full(), fs)
	// Impose a tangential shear profile: u grows from 0 at wall.
	for lj := 0; lj < b.MJ; lj++ {
		f := float64(lj) / float64(b.MJ-1)
		u := 0.5 * math.Tanh(3*f)
		for lk := 0; lk < b.MK; lk++ {
			for li := 0; li < b.MI; li++ {
				p := b.LIdx(li, lj, lk)
				e := fs.Pressure()/(Gamma-1) + 0.5*u*u
				b.SetQ(p, [5]float64{1, u, 0, 0, e})
			}
		}
	}
	b.ComputeTurbulence()
	maxMut, bad := 0.0, 0
	for _, v := range b.MuT {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			bad++
		}
		if v > maxMut {
			maxMut = v
		}
	}
	if bad > 0 {
		t.Fatalf("%d invalid eddy-viscosity values", bad)
	}
	if maxMut <= 0 {
		t.Error("Baldwin-Lomax produced no eddy viscosity in a shear layer")
	}
}

func TestHaloExchangeTwoRanks(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 12, 6, 1,
		geom.Box{Min: geom.Vec3{}, Max: geom.Vec3{X: 11, Y: 5}})
	boxes := balance.Subdivide(g.Full(), 2)
	blocks := BuildBlocks(g, boxes, []int{0, 1}, Freestream{Mach: 0.5})
	// Tag every owned point with its global index.
	for bi, box := range boxes {
		b := blocks[bi]
		for j := box.JLo; j <= box.JHi; j++ {
			for i := box.ILo; i <= box.IHi; i++ {
				li, lj, lk := b.Local(i, j, 0)
				b.SetQ(b.LIdx(li, lj, lk), [5]float64{float64(g.Idx(i, j, 0)), 0, 0, 0, 1})
			}
		}
	}
	w := par.NewWorld(2, machine.SP2())
	w.Run(func(r *par.Rank) {
		blocks[r.ID].ExchangeHalo(r)
	})
	// Rank 0's +i ghosts must hold rank 1's boundary values.
	b := blocks[0]
	box := boxes[0]
	for j := box.JLo; j <= box.JHi; j++ {
		for gl := 1; gl <= Halo; gl++ {
			i := box.IHi + gl
			li, lj, lk := b.Local(i, j, 0)
			got := b.Q[5*b.LIdx(li, lj, lk)]
			want := float64(g.Idx(i, j, 0))
			if got != want {
				t.Fatalf("ghost (%d,%d): got %v want %v", i, j, got, want)
			}
		}
	}
}

func TestResidualNormAfterStep(t *testing.T) {
	g := gridgen.AirfoilOGrid(0, "airfoil", 32, 10, 5)
	fs := Freestream{Mach: 0.5}
	runSerial(t, func(r *par.Rank) {
		b := NewBlock(g, g.Full(), fs)
		b.Nbr[0][0] = Neighbor{Rank: 0, Wrap: true}
		b.Nbr[0][1] = Neighbor{Rank: 0, Wrap: true}
		b.FlowStep(r, 0.02)
		res := b.ResidualNorm()
		if math.IsNaN(res) || math.IsInf(res, 0) {
			t.Fatalf("residual = %v", res)
		}
		if res == 0 {
			t.Error("impulsive start should produce a nonzero residual")
		}
	})
}

func TestFlowStepChargesVirtualTime(t *testing.T) {
	g := gridgen.Annulus(0, "ring", 24, 10, 0, 0, 1, 2)
	fs := Freestream{Mach: 0.5}
	w := par.NewWorld(1, machine.SP2())
	ranks := w.Run(func(r *par.Rank) {
		r.SetPhase(par.PhaseFlow)
		b := NewBlock(g, g.Full(), fs)
		b.FlowStep(r, 0.01)
	})
	if ranks[0].PhaseTime(par.PhaseFlow) <= 0 {
		t.Error("flow step should consume virtual time")
	}
	if ranks[0].PhaseFlops(par.PhaseFlow) <= 0 {
		t.Error("flow step should record flops")
	}
}

// ResidualNorm returns the RMS of the density-equation residual over owned
// updatable points (a convergence monitor).
func (b *Block) ResidualNorm() float64 {
	b.ensureScratch()
	s := b.scr
	sum, n := 0.0, 0
	b.eachInterior(func(p int) {
		if !s.upd[p] {
			return
		}
		sum += b.RHS[5*p] * b.RHS[5*p]
		n++
	})
	if n == 0 {
		return 0
	}
	return math.Sqrt(sum / float64(n))
}
