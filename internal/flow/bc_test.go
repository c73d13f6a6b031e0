package flow

import (
	"math"
	"testing"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
)

// flatChannel builds a simple 2-D rectangular grid with configurable BCs.
func flatChannel(bcJMin, bcJMax grid.BC) *grid.Grid {
	g := grid.New(0, "chan", 12, 8, 1)
	for j := 0; j < 8; j++ {
		for i := 0; i < 12; i++ {
			g.SetBody(i, j, 0, geom.Vec3{X: float64(i) * 0.5, Y: float64(j) * 0.5})
		}
	}
	g.BCs[grid.JMin] = bcJMin
	g.BCs[grid.JMax] = bcJMax
	return g
}

func TestFarfieldInflowSetsFreestream(t *testing.T) {
	g := flatChannel(grid.BCFarfield, grid.BCFarfield)
	fs := Freestream{Mach: 0.5, Alpha: math.Pi / 2} // flow straight up: +y
	b := NewBlock(g, g.Full(), fs)
	// Perturb the whole field, then apply BCs: the JMin face (inflow,
	// freestream coming up through it) must revert to freestream.
	for n := 0; n < b.NPointsLocal(); n++ {
		q := b.QAt(n)
		q[0] = 1.7
		b.SetQ(n, q)
	}
	b.ApplyBCs()
	qf := fs.Conserved()
	b.eachFacePoint(grid.JMin, func(p, in int) {
		q := b.QAt(p)
		for c := 0; c < 5; c++ {
			if math.Abs(q[c]-qf[c]) > 1e-12 {
				t.Fatalf("inflow point not freestream: %v", q)
			}
		}
	})
	// The JMax face sees outflow: extrapolated from interior (rho = 1.7).
	// Corner columns are excluded: the i-face BCs run first and reset the
	// corner neighborhoods to freestream.
	b.eachFacePoint(grid.JMax, func(p, in int) {
		li := p % b.MI
		if li < Halo+2 || li >= b.MI-Halo-2 {
			return
		}
		if q := b.QAt(p); math.Abs(q[0]-1.7) > 1e-12 {
			t.Fatalf("outflow point should extrapolate: rho = %v", q[0])
		}
	})
}

func TestSymmetryBCRemovesNormalVelocity(t *testing.T) {
	g := flatChannel(grid.BCSymmetry, grid.BCFarfield)
	fs := Freestream{Mach: 0.5}
	b := NewBlock(g, g.Full(), fs)
	// Give the interior a downward velocity component.
	for n := 0; n < b.NPointsLocal(); n++ {
		e := fs.Pressure()/(Gamma-1) + 0.5*(0.5*0.5+0.2*0.2)
		b.SetQ(n, [5]float64{1, 0.5, -0.2, 0, e})
	}
	b.ApplyBCs()
	b.eachFacePoint(grid.JMin, func(p, in int) {
		_, u, v, _, _ := Primitive(b.QAt(p))
		if math.Abs(v) > 1e-12 {
			t.Fatalf("symmetry plane has normal velocity %v", v)
		}
		if math.Abs(u-0.5) > 1e-12 {
			t.Fatalf("tangential velocity should survive: %v", u)
		}
	})
}

func TestViscousWallNoSlip(t *testing.T) {
	g := flatChannel(grid.BCWall, grid.BCFarfield)
	g.Viscous = true
	fs := Freestream{Mach: 0.5, Re: 1e5}
	b := NewBlock(g, g.Full(), fs)
	b.ApplyBCs()
	b.eachFacePoint(grid.JMin, func(p, in int) {
		_, u, v, w, _ := Primitive(b.QAt(p))
		if math.Abs(u)+math.Abs(v)+math.Abs(w) > 1e-12 {
			t.Fatalf("no-slip wall moving: (%v,%v,%v)", u, v, w)
		}
	})
}

func TestMovingWallVelocityMatchesGrid(t *testing.T) {
	g := flatChannel(grid.BCWall, grid.BCFarfield)
	g.Viscous = true
	g.Moving = true
	fs := Freestream{Mach: 0.5, Re: 1e5}
	b := NewBlock(g, g.Full(), fs)
	// Translate the grid and refresh with dt so XT is nonzero.
	g.ApplyTransform(geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 0.1}})
	b.RefreshGeometry(0.05) // wall speed = 2 in +x
	b.ApplyBCs()
	b.eachFacePoint(grid.JMin, func(p, in int) {
		_, u, v, _, _ := Primitive(b.QAt(p))
		if math.Abs(u-2.0) > 1e-9 || math.Abs(v) > 1e-9 {
			t.Fatalf("moving no-slip wall velocity (%v,%v), want (2,0)", u, v)
		}
	})
}

func TestViscousFluxDiffusesShear(t *testing.T) {
	// A shear profile u(y) must experience viscous momentum exchange: the
	// RHS contribution of the viscous terms is nonzero and smooths the
	// profile (positive where u is locally low, negative where high).
	g := flatChannel(grid.BCWall, grid.BCFarfield)
	g.Viscous = true
	fs := Freestream{Mach: 0.5, Re: 1e3}
	b := NewBlock(g, g.Full(), fs)
	b.SetViscousDirs([3]bool{false, true, false})
	b.ensureScratch()
	// u varies with j with a kink at mid-height.
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			u := 0.1 * math.Abs(float64(lj)-float64(b.MJ)/2)
			for li := 0; li < b.MI; li++ {
				p := b.LIdx(li, lj, lk)
				e := fs.Pressure()/(Gamma-1) + 0.5*u*u
				b.SetQ(p, [5]float64{1, u, 0, 0, e})
			}
		}
	}
	for i := range b.RHS {
		b.RHS[i] = 0
	}
	b.refreshPrimitives()
	flops := b.addViscousRHS()
	if flops <= 0 {
		t.Fatal("no viscous work recorded")
	}
	maxMom := 0.0
	b.eachInterior(func(p int) {
		if v := math.Abs(b.RHS[5*p+1]); v > maxMom {
			maxMom = v
		}
	})
	if maxMom == 0 {
		t.Error("viscous terms left a sheared profile untouched")
	}
}

func TestForcesLiftSignOnInclinedPressure(t *testing.T) {
	// Higher pressure below the airfoil than above must give positive lift.
	g := gridgen.AirfoilOGrid(0, "airfoil", 64, 10, 4)
	g.Viscous = false
	fs := Freestream{Mach: 0.5}
	b := NewBlock(g, g.Full(), fs)
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				p := b.LIdx(li, lj, lk)
				pr := fs.Pressure()
				if b.YL[p] < 0 {
					pr *= 1.3 // overpressure below
				}
				b.SetQ(p, [5]float64{1, 0, 0, 0, pr / (Gamma - 1)})
			}
		}
	}
	force, _, _ := b.Forces(geom.Vec3{X: 0.25})
	if force.Y <= 0 {
		t.Errorf("lift should be positive with overpressure below: Fy = %v", force.Y)
	}
}

// refreshPrimitives fills the scratch primitive and pressure caches from Q.
// ComputeRHS fills them fused with the spectral-radius pass; standalone
// callers of addViscousRHS (tests) refresh them here first.
func (b *Block) refreshPrimitives() {
	b.ensureScratch()
	s := b.scr
	n := b.NPointsLocal()
	for p := 0; p < n; p++ {
		rho, u, v, w, pr := Primitive(b.QAt(p))
		pm := s.prim[4*p : 4*p+4 : 4*p+4]
		pm[0], pm[1], pm[2], pm[3] = rho, u, v, w
		s.pr[p] = pr
	}
}
