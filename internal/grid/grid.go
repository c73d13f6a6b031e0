// Package grid provides the structured curvilinear and Cartesian component
// grids of the Chimera overset scheme: index-space geometry, world-frame
// coordinates under rigid-body motion, iblank (hole/fringe) state, and the
// coarsen/refine operations used by the paper's scale-up study.
package grid

import (
	"fmt"

	"overd/internal/geom"
)

// BC identifies the physical boundary condition applied on a grid face.
type BC int

// Boundary condition kinds.
const (
	BCFarfield BC = iota // characteristic freestream
	BCWall               // solid surface (slip if inviscid, no-slip if viscous)
	BCSymmetry           // symmetry plane
	BCOverset            // fringe: values interpolated from overlapping grids
	BCPeriodic           // wrap-around (O-grid closure in i)
	BCExtrap             // zeroth-order extrapolation
)

// String implements fmt.Stringer.
func (b BC) String() string {
	switch b {
	case BCFarfield:
		return "farfield"
	case BCWall:
		return "wall"
	case BCSymmetry:
		return "symmetry"
	case BCOverset:
		return "overset"
	case BCPeriodic:
		return "periodic"
	case BCExtrap:
		return "extrapolate"
	}
	return fmt.Sprintf("bc(%d)", int(b))
}

// Face identifies one of the six logical faces of a structured grid.
type Face int

// Grid faces in index order.
const (
	IMin Face = iota
	IMax
	JMin
	JMax
	KMin
	KMax
)

// String implements fmt.Stringer.
func (f Face) String() string {
	return [...]string{"imin", "imax", "jmin", "jmax", "kmin", "kmax"}[f]
}

// IBlank states, following Chimera convention.
const (
	IBHole   int8 = 0 // blanked: inside a body or excess overlap; not computed
	IBField  int8 = 1 // normal field point, updated by the flow solver
	IBFringe int8 = 2 // intergrid boundary point: receives interpolated data
)

// Grid is one structured component grid of an overset system.
//
// Coordinates are stored twice: the body frame (X0,Y0,Z0), fixed at creation,
// and the world frame (X,Y,Z), updated by ApplyTransform as the component
// moves. Index (i,j,k) maps to slice offset i + NI*(j + NJ*k).
type Grid struct {
	// ID is the grid's index within its overset system.
	ID int
	// Name identifies the grid in reports ("airfoil", "background", ...).
	Name string
	// NI, NJ, NK are the point counts in each index direction. A 2-D grid
	// has NK == 1.
	NI, NJ, NK int

	// X0, Y0, Z0 are body-frame coordinates (immutable after generation).
	X0, Y0, Z0 []float64
	// X, Y, Z are world-frame coordinates.
	X, Y, Z []float64

	// IBlank is the hole/fringe state per point.
	IBlank []int8

	// BCs gives the physical boundary condition on each face.
	BCs [6]BC

	// Viscous enables viscous terms on this grid; Turbulent additionally
	// enables the Baldwin-Lomax model.
	Viscous   bool
	Turbulent bool
	// Cartesian marks uniformly spaced axis-aligned background grids
	// (which need only seven parameters to describe and admit search-free
	// connectivity; see §5 of the paper).
	Cartesian bool
	// Moving marks grids attached to a moving body.
	Moving bool

	// Xform is the current body-to-world placement.
	Xform geom.Transform
}

// New allocates an ni x nj x nk grid with identity placement, all points
// marked as field points, and farfield conditions on all faces.
func New(id int, name string, ni, nj, nk int) *Grid {
	if ni < 1 || nj < 1 || nk < 1 {
		panic(fmt.Sprintf("grid: invalid dims %dx%dx%d", ni, nj, nk))
	}
	n := ni * nj * nk
	g := &Grid{
		ID: id, Name: name, NI: ni, NJ: nj, NK: nk,
		X0: make([]float64, n), Y0: make([]float64, n), Z0: make([]float64, n),
		X: make([]float64, n), Y: make([]float64, n), Z: make([]float64, n),
		IBlank: make([]int8, n),
		Xform:  geom.IdentityTransform(),
	}
	for i := range g.IBlank {
		g.IBlank[i] = IBField
	}
	return g
}

// Idx returns the slice offset of point (i,j,k).
func (g *Grid) Idx(i, j, k int) int { return i + g.NI*(j+g.NJ*k) }

// NPoints returns the total number of points.
func (g *Grid) NPoints() int { return g.NI * g.NJ * g.NK }

// Is2D reports whether the grid is planar (NK == 1).
func (g *Grid) Is2D() bool { return g.NK == 1 }

// SetBody sets the body-frame coordinates of point (i,j,k) and initializes
// the world frame to the same position.
func (g *Grid) SetBody(i, j, k int, p geom.Vec3) {
	n := g.Idx(i, j, k)
	g.X0[n], g.Y0[n], g.Z0[n] = p.X, p.Y, p.Z
	g.X[n], g.Y[n], g.Z[n] = p.X, p.Y, p.Z
}

// At returns the world-frame position of point (i,j,k).
func (g *Grid) At(i, j, k int) geom.Vec3 {
	n := g.Idx(i, j, k)
	return geom.Vec3{X: g.X[n], Y: g.Y[n], Z: g.Z[n]}
}

// AtBody returns the body-frame position of point (i,j,k).
func (g *Grid) AtBody(i, j, k int) geom.Vec3 {
	n := g.Idx(i, j, k)
	return geom.Vec3{X: g.X0[n], Y: g.Y0[n], Z: g.Z0[n]}
}

// ApplyTransform places the grid in the world frame: world = t(body).
// Non-moving grids keep their identity placement throughout a run.
func (g *Grid) ApplyTransform(t geom.Transform) {
	g.Xform = t
	g.ApplyTransformBox(t, g.Full())
}

// ApplyTransformBox writes the world-frame coordinates of the points in
// index box ib under placement t, leaving Xform alone: ranks sharing a
// moving grid each transform their own subdomain, and one of them records
// the placement.
func (g *Grid) ApplyTransformBox(t geom.Transform, ib IBox) {
	for k := ib.KLo; k <= ib.KHi; k++ {
		for j := ib.JLo; j <= ib.JHi; j++ {
			row := g.NI * (j + g.NJ*k)
			for n := row + ib.ILo; n <= row+ib.IHi; n++ {
				p := t.Apply(geom.Vec3{X: g.X0[n], Y: g.Y0[n], Z: g.Z0[n]})
				g.X[n], g.Y[n], g.Z[n] = p.X, p.Y, p.Z
			}
		}
	}
}

// Bounds returns the world-frame bounding box of all points.
func (g *Grid) Bounds() geom.Box {
	b := geom.EmptyBox()
	b.Min.X, b.Max.X = extendRange(b.Min.X, b.Max.X, g.X)
	b.Min.Y, b.Max.Y = extendRange(b.Min.Y, b.Max.Y, g.Y)
	b.Min.Z, b.Max.Z = extendRange(b.Min.Z, b.Max.Z, g.Z)
	return b
}

// BoundsOf returns the world-frame bounding box of the points in index box ib.
func (g *Grid) BoundsOf(ib IBox) geom.Box {
	b := geom.EmptyBox()
	for k := ib.KLo; k <= ib.KHi; k++ {
		for j := ib.JLo; j <= ib.JHi; j++ {
			row := g.NI * (j + g.NJ*k)
			lo, hi := row+ib.ILo, row+ib.IHi+1
			if lo >= hi {
				continue
			}
			b.Min.X, b.Max.X = extendRange(b.Min.X, b.Max.X, g.X[lo:hi])
			b.Min.Y, b.Max.Y = extendRange(b.Min.Y, b.Max.Y, g.Y[lo:hi])
			b.Min.Z, b.Max.Z = extendRange(b.Min.Z, b.Max.Z, g.Z[lo:hi])
		}
	}
	return b
}

// extendRange widens [lo, hi] to cover every value of s. The min and max
// builtins order signed zeros and propagate NaN as math.Min and math.Max
// do, so the result matches geom.Box.Extend applied point by point (they
// part ways only where a NaN meets an infinity, which math.Min and
// math.Max resolve to the infinity).
func extendRange(lo, hi float64, s []float64) (float64, float64) {
	for _, v := range s {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	return lo, hi
}

// Full returns the index box covering the whole grid.
func (g *Grid) Full() IBox { return FullBox(g.NI, g.NJ, g.NK) }

// PeriodicI reports whether the i direction wraps (O-grid closure).
func (g *Grid) PeriodicI() bool { return g.BCs[IMin] == BCPeriodic && g.BCs[IMax] == BCPeriodic }

// Coarsen returns a new grid with every other point removed in each
// direction (the paper's scale-up study reduces gridpoints "by a factor of
// four" in 2-D this way). Endpoint parity: the first point of each pair is
// kept, and the last point is always retained so boundaries survive.
func (g *Grid) Coarsen() *Grid {
	ci := coarseIndices(g.NI)
	cj := coarseIndices(g.NJ)
	ck := coarseIndices(g.NK)
	ng := New(g.ID, g.Name+"-coarse", len(ci), len(cj), len(ck))
	ng.BCs = g.BCs
	ng.Viscous, ng.Turbulent, ng.Cartesian, ng.Moving = g.Viscous, g.Turbulent, g.Cartesian, g.Moving
	for k, sk := range ck {
		for j, sj := range cj {
			for i, si := range ci {
				ng.SetBody(i, j, k, g.AtBody(si, sj, sk))
			}
		}
	}
	return ng
}

func coarseIndices(n int) []int {
	if n == 1 {
		return []int{0}
	}
	var out []int
	for i := 0; i < n; i += 2 {
		out = append(out, i)
	}
	if out[len(out)-1] != n-1 {
		out = append(out, n-1)
	}
	return out
}

// Refine returns a new grid with a midpoint inserted between each pair of
// adjacent points in every direction ("adding a gridpoint between the
// others"), quadrupling the 2-D point count as in the paper's refined case.
func (g *Grid) Refine() *Grid {
	rni := refinedCount(g.NI)
	rnj := refinedCount(g.NJ)
	rnk := refinedCount(g.NK)
	ng := New(g.ID, g.Name+"-fine", rni, rnj, rnk)
	ng.BCs = g.BCs
	ng.Viscous, ng.Turbulent, ng.Cartesian, ng.Moving = g.Viscous, g.Turbulent, g.Cartesian, g.Moving
	for k := 0; k < rnk; k++ {
		for j := 0; j < rnj; j++ {
			for i := 0; i < rni; i++ {
				ng.SetBody(i, j, k, g.interpBody(i, j, k))
			}
		}
	}
	return ng
}

func refinedCount(n int) int {
	if n == 1 {
		return 1
	}
	return 2*n - 1
}

// interpBody evaluates the body-frame position at refined index (i,j,k) by
// multilinear interpolation of the parent grid.
func (g *Grid) interpBody(i, j, k int) geom.Vec3 {
	i0, fi := i/2, float64(i%2)*0.5
	j0, fj := j/2, float64(j%2)*0.5
	k0, fk := k/2, float64(k%2)*0.5
	i1, j1, k1 := min(i0+1, g.NI-1), min(j0+1, g.NJ-1), min(k0+1, g.NK-1)
	var p geom.Vec3
	for dk := 0; dk <= 1; dk++ {
		wk := fk
		kk := k1
		if dk == 0 {
			wk = 1 - fk
			kk = k0
		}
		if g.NK == 1 {
			if dk == 1 {
				continue
			}
			wk = 1
		}
		for dj := 0; dj <= 1; dj++ {
			wj := fj
			jj := j1
			if dj == 0 {
				wj = 1 - fj
				jj = j0
			}
			for di := 0; di <= 1; di++ {
				wi := fi
				ii := i1
				if di == 0 {
					wi = 1 - fi
					ii = i0
				}
				w := wi * wj * wk
				if w == 0 {
					continue
				}
				p = p.Add(g.AtBody(ii, jj, kk).Scale(w))
			}
		}
	}
	return p
}

// CountIBlank returns how many points currently hold the given iblank state.
func (g *Grid) CountIBlank(state int8) int {
	c := 0
	for _, v := range g.IBlank {
		if v == state {
			c++
		}
	}
	return c
}

// ResetIBlank marks every point as a field point.
func (g *Grid) ResetIBlank() {
	for i := range g.IBlank {
		g.IBlank[i] = IBField
	}
}

// System is an ordered collection of component grids forming one overset
// ("Chimera") decomposition of the flow domain.
type System struct {
	Grids []*Grid
}

// NPoints returns the composite gridpoint total over all components.
func (s *System) NPoints() int {
	n := 0
	for _, g := range s.Grids {
		n += g.NPoints()
	}
	return n
}

// NFringe returns the composite count of fringe (intergrid boundary) points.
func (s *System) NFringe() int {
	n := 0
	for _, g := range s.Grids {
		n += g.CountIBlank(IBFringe)
	}
	return n
}

// IGBPRatio returns the intergrid-boundary-point to gridpoint ratio that the
// paper reports per case (44e-3, 33e-3, 66e-3 for its three problems).
func (s *System) IGBPRatio() float64 {
	np := s.NPoints()
	if np == 0 {
		return 0
	}
	return float64(s.NFringe()) / float64(np)
}
