// Package cases constructs the paper's three evaluation problems — the 2-D
// oscillating NACA 0012 airfoil, the descending delta wing, and the
// wing/pylon/finned-store separation — as programmatic grid systems that
// match the published statistics: component counts, composite gridpoint
// totals (64K / ~1M / 0.81M), and intergrid-boundary-point densities
// (44e-3 / 33e-3 / 66e-3). A scale parameter shrinks every dimension for
// fast tests; scale 1 reproduces the paper sizes.
package cases

import (
	"math"

	"overd/internal/flow"
	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/overset"
	"overd/internal/sixdof"
)

// Case bundles everything OVERFLOW-D1 needs to run one problem.
type Case struct {
	Name string
	Sys  *grid.System
	// Overset holds cutters and the donor-search hierarchy.
	Overset *overset.Config
	// Motions gives each grid's prescribed motion (nil entries are static).
	Motions []sixdof.Motion
	// FreeBody optionally couples one grid set to 6-DOF dynamics: loads
	// integrated over BodyGrids drive Body, which overrides Motions for
	// those grids.
	FreeBody  *sixdof.Body
	BodyGrids []int
	// FS is the freestream condition.
	FS flow.Freestream
	// DT is the fixed timestep (chosen so donor cells move at most about
	// one receiver cell per step, as the paper notes).
	DT float64
	// ViscousAll activates viscous terms in all index directions (the
	// delta-wing case); otherwise viscous grids use wall-normal thin layer.
	ViscousAll bool
	// ForceRef is the moment reference point.
	ForceRef geom.Vec3
}

// Placement is where a case's moving parts are: every grid's absolute
// placement and the force-coupled body's state. A run moves its case; this
// is what puts it back, for the next run to start where the last one did.
type Placement struct {
	xforms []geom.Transform
	body   *sixdof.State // nil if no body is force-coupled
}

// Placement records where c's moving parts are now.
func (c *Case) Placement() Placement {
	p := Placement{xforms: make([]geom.Transform, len(c.Sys.Grids))}
	for gi, g := range c.Sys.Grids {
		p.xforms[gi] = g.Xform
	}
	if c.FreeBody != nil {
		s := c.FreeBody.State
		p.body = &s
	}
	return p
}

// Restore puts c, the case p was taken from, back where p found it.
func (p Placement) Restore(c *Case) {
	for gi, g := range c.Sys.Grids {
		g.ApplyTransform(p.xforms[gi])
	}
	if c.FreeBody != nil && p.body != nil {
		c.FreeBody.State = *p.body
	}
}

// GridSizes returns the per-component gridpoint counts (Algorithm 1 input).
func (c *Case) GridSizes() []int {
	sizes := make([]int, len(c.Sys.Grids))
	for i, g := range c.Sys.Grids {
		sizes[i] = g.NPoints()
	}
	return sizes
}

// GridDims returns per-component index dimensions for subdivision.
func (c *Case) GridDims() [][3]int {
	dims := make([][3]int, len(c.Sys.Grids))
	for i, g := range c.Sys.Grids {
		dims[i] = [3]int{g.NI, g.NJ, g.NK}
	}
	return dims
}

func scaled(n int, scale float64, min int) int {
	v := int(math.Round(float64(n) * scale))
	if v < min {
		v = min
	}
	return v
}

// OscAirfoil builds the 2-D oscillating-airfoil case (paper §4.1): three
// grids — a near-field O-grid on the airfoil, an intermediate annulus, and
// a square Cartesian background — with a composite total of ~64K points at
// scale 1 and an IGBP ratio near 44e-3. The airfoil pitches sinusoidally,
// α(t) = 5°·sin(πt/2), at freestream Mach 0.8, Re 1e6.
func OscAirfoil(scale float64) *Case {
	lin := math.Sqrt(scale)
	// Minimum dimensions keep enough overset overlap for valid donors at
	// small test scales (coarse fringe bands must not swallow the cells
	// that neighbor-grid fringes land in).
	afNI, afNJ := scaled(448, lin, 32), scaled(47, lin, 15)
	rgNI, rgNJ := scaled(448, lin, 32), scaled(47, lin, 15)
	bgN := scaled(146, lin, 16)

	af := gridgen.AirfoilOGrid(0, "airfoil", afNI, afNJ, 1.2)
	af.Moving = true
	af.Turbulent = true
	ring := gridgen.Annulus(1, "intermediate", rgNI, rgNJ, 0.5, 0, 0.35, 3.0)
	bg := gridgen.CartesianBox(2, "background", bgN, bgN, 1,
		geom.Box{Min: geom.Vec3{X: -6.5, Y: -7}, Max: geom.Vec3{X: 7.5, Y: 7}})
	sys := &grid.System{Grids: []*grid.Grid{af, ring, bg}}

	ov := &overset.Config{
		Sys: sys,
		Cutters: []*overset.BodyCutter{{
			Cutter:     overset.NewAirfoilCutter(0.02),
			OwnGrids:   []int{0},
			FollowGrid: 0,
		}},
		Search: map[int][]int{
			0: {1, 2},
			1: {0, 2},
			2: {1, 0},
		},
		FringeDepth: 2,
		HoleMapRes:  32,
	}

	return &Case{
		Name:    "osc-airfoil",
		Sys:     sys,
		Overset: ov,
		Motions: []sixdof.Motion{
			sixdof.PitchMotion{
				Alpha0: 5 * math.Pi / 180,
				Omega:  math.Pi / 2,
				Pivot:  geom.Vec3{X: 0.25},
			},
			nil, nil,
		},
		FS:       flow.Freestream{Mach: 0.8, Re: 1e6},
		DT:       0.02,
		ForceRef: geom.Vec3{X: 0.25},
	}
}

// DeltaWing builds the descending delta-wing case (paper §4.2): four grids
// — a flattened-ellipsoid wing analog, two pipe-jet bodies of revolution,
// and a Cartesian background — a composite ~1M points at scale 1 with an
// IGBP ratio near 33e-3. The three curvilinear grids descend at M = 0.064;
// viscous terms are active in all directions and no turbulence model is
// used.
func DeltaWing(scale float64) *Case {
	lin := math.Cbrt(scale)
	// Component sizes are chosen so Algorithm 1 balances well at the
	// paper's node counts (7/12/26/55): ~260K + 2x150K + 440K = ~1M.
	wing := gridgen.EllipsoidGrid(0, "wing", scaled(112, lin, 20), scaled(30, lin, 12),
		scaled(78, lin, 14), 2.4, 0.22, 1.5, 3.0)
	wing.Moving = true
	jetProfile := gridgen.Profile{Length: 2.2, Radius: func(float64) float64 { return 0.18 }}
	jet1 := gridgen.BodyOfRevolutionGrid(1, "jet1", scaled(64, lin, 14), scaled(30, lin, 10),
		scaled(78, lin, 12), jetProfile, 0.9)
	jet1.Moving = true
	jet2 := gridgen.BodyOfRevolutionGrid(2, "jet2", scaled(64, lin, 14), scaled(30, lin, 10),
		scaled(78, lin, 12), jetProfile, 0.9)
	jet2.Moving = true
	// Place the jets under the wing (body frame).
	shift1 := geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: -1.4, Y: -0.7, Z: -0.9}}
	shift2 := geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: -1.4, Y: -0.7, Z: 0.9}}
	offsetBody(jet1, shift1)
	offsetBody(jet2, shift2)
	bgN := scaled(76, lin, 14)
	bg := gridgen.CartesianBox(3, "background", bgN, bgN, bgN,
		geom.Box{Min: geom.Vec3{X: -10, Y: -10, Z: -10}, Max: geom.Vec3{X: 10, Y: 10, Z: 10}})
	// "The viscous terms are active in all directions on all four grids."
	bg.Viscous = true
	sys := &grid.System{Grids: []*grid.Grid{wing, jet1, jet2, bg}}

	ov := &overset.Config{
		Sys: sys,
		Cutters: []*overset.BodyCutter{
			{
				Cutter:     overset.NewEllipsoidCutter(2.4, 0.22, 1.5, 0.05),
				OwnGrids:   []int{0},
				FollowGrid: 0,
			},
			{
				Cutter:     newShiftedRevolvedCutter(jetProfile, 0.04, shift1),
				OwnGrids:   []int{1},
				FollowGrid: 1,
			},
			{
				Cutter:     newShiftedRevolvedCutter(jetProfile, 0.04, shift2),
				OwnGrids:   []int{2},
				FollowGrid: 2,
			},
		},
		Search: map[int][]int{
			0: {3, 1, 2},
			1: {0, 3, 2},
			2: {0, 3, 1},
			3: {0, 1, 2},
		},
		FringeDepth: 2,
		HoleMapRes:  24,
	}

	descent := sixdof.TranslationMotion{Velocity: geom.Vec3{Y: -0.064}}
	return &Case{
		Name:    "delta-wing",
		Sys:     sys,
		Overset: ov,
		Motions: []sixdof.Motion{descent, descent, descent, nil},
		FS:      flow.Freestream{Mach: 0.3, Re: 5e5},
		// All grids viscous in all directions, no turbulence model.
		ViscousAll: true,
		DT:         0.05,
		ForceRef:   geom.Vec3{},
	}
}

// offsetBody bakes a placement into a grid's body frame (used to position
// sub-components relative to their parent before any motion).
func offsetBody(g *grid.Grid, t geom.Transform) {
	for n := range g.X0 {
		p := t.Apply(geom.Vec3{X: g.X0[n], Y: g.Y0[n], Z: g.Z0[n]})
		g.X0[n], g.Y0[n], g.Z0[n] = p.X, p.Y, p.Z
		g.X[n], g.Y[n], g.Z[n] = p.X, p.Y, p.Z
	}
}

// shiftedRevolvedCutter wraps a RevolvedCutter whose body frame is offset
// from its grid's frame (the jet pipes are placed relative to the wing).
type shiftedRevolvedCutter struct {
	inner *overset.RevolvedCutter
	shift geom.Transform
}

func newShiftedRevolvedCutter(p gridgen.Profile, margin float64, shift geom.Transform) overset.Cutter {
	return &shiftedRevolvedCutter{inner: overset.NewRevolvedCutter(p, margin), shift: shift}
}

func (c *shiftedRevolvedCutter) Inside(p geom.Vec3) bool { return c.inner.Inside(p) }
func (c *shiftedRevolvedCutter) Bounds() geom.Box        { return c.inner.Bounds() }
func (c *shiftedRevolvedCutter) SetTransform(t geom.Transform) {
	c.inner.SetTransform(t.Compose(c.shift))
}

// StoreSep builds the wing/pylon/finned-store separation case (paper §4.3):
// sixteen grids — ten defining the finned store (body, nose, tail, four
// fins, three collars), three for the wing/pylon, and three Cartesian
// background boxes — a composite ~0.81M points at scale 1 with an IGBP
// ratio near 66e-3, at Mach 1.6 with Baldwin-Lomax on the curvilinear
// grids. The store's separation trajectory is prescribed.
func StoreSep(scale float64) *Case {
	lin := math.Cbrt(scale)
	storeLen := 4.0
	prof := gridgen.OgiveProfile(storeLen, 0.35)
	mk := func(id int, name string, ni, nj, nk int, p gridgen.Profile, outer float64) *grid.Grid {
		g := gridgen.BodyOfRevolutionGrid(id, name,
			scaled(ni, lin, 12), scaled(nj, lin, 10), scaled(nk, lin, 8), p, outer)
		g.Moving = true
		g.Turbulent = true
		return g
	}

	// Store component grids (ids 0-9), body frame: store axis +x from 0.
	body := mk(0, "store-body", 68, 32, 56, prof, 1.1)
	noseP := gridgen.Profile{Length: 1.2, Radius: func(t float64) float64 { return prof.Radius(t * 0.28) }}
	nose := mk(1, "store-nose", 48, 26, 32, noseP, 0.9)
	tailP := gridgen.Profile{Length: 1.0, Radius: func(t float64) float64 { return prof.Radius(0.76 + t*0.24) }}
	tail := mk(2, "store-tail", 48, 26, 28, tailP, 0.9)
	offsetBody(tail, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: storeLen - 1.0}})

	fins := make([]*grid.Grid, 4)
	for f := 0; f < 4; f++ {
		fin := gridgen.FinGrid(3+f, finName(f), scaled(36, lin, 8), scaled(20, lin, 6),
			scaled(16, lin, 6), 0.5, 0.55, 0.05, 4)
		fin.Moving = true
		fin.Turbulent = true
		ang := float64(f) * math.Pi / 2
		place := geom.Transform{
			R: geom.RotX(ang),
			T: geom.Vec3{X: storeLen - 0.65},
		}
		// Fin extends radially (body z before rotation).
		offsetBody(fin, place.Compose(geom.Transform{R: geom.Identity3(), T: geom.Vec3{Z: 0.3}}))
		fins[f] = fin
	}

	collarP := gridgen.Profile{Length: 0.8, Radius: func(float64) float64 { return 0.37 }}
	collar1 := mk(7, "store-collar1", 44, 22, 18, collarP, 0.8)
	offsetBody(collar1, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 0.9}})
	collar2 := mk(8, "store-collar2", 44, 22, 18, collarP, 0.8)
	offsetBody(collar2, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 2.2}})
	collar3 := mk(9, "store-collar3", 44, 22, 18, collarP, 0.8)
	offsetBody(collar3, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 3.0}})

	// Wing/pylon grids (ids 10-12), static, above the store (y > 0).
	// The largest component is held near 2x the 16-node mean load, the
	// imbalance the paper's Table 4 implies at its smallest partition.
	wing := gridgen.EllipsoidGrid(10, "wing", scaled(88, lin, 16), scaled(26, lin, 10),
		scaled(44, lin, 10), 3.0, 0.25, 2.0, 3.2)
	wing.Turbulent = true
	offsetBody(wing, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 2, Y: 2.2}})
	pylonP := gridgen.Profile{Length: 1.4, Radius: func(float64) float64 { return 0.16 }}
	pylon := gridgen.BodyOfRevolutionGrid(11, "pylon", scaled(48, lin, 10), scaled(26, lin, 8),
		scaled(28, lin, 8), pylonP, 0.7)
	pylon.Turbulent = true
	offsetBody(pylon, geom.Transform{R: geom.RotZ(-math.Pi / 2), T: geom.Vec3{X: 1.8, Y: 1.9}})
	flap := gridgen.EllipsoidGrid(12, "wing-flap", scaled(68, lin, 12), scaled(24, lin, 8),
		scaled(36, lin, 8), 1.2, 0.12, 1.0, 3.0)
	flap.Turbulent = true
	offsetBody(flap, geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 5.2, Y: 2.1}})

	// Cartesian backgrounds (ids 13-15), inviscid, nested around the store.
	bgNear := gridgen.CartesianBox(13, "bg-near", scaled(60, lin, 10), scaled(46, lin, 8), scaled(44, lin, 8),
		geom.Box{Min: geom.Vec3{X: -1.5, Y: -3.5, Z: -2.5}, Max: geom.Vec3{X: 6, Y: 3.2, Z: 2.5}})
	bgMid := gridgen.CartesianBox(14, "bg-mid", scaled(56, lin, 8), scaled(48, lin, 8), scaled(44, lin, 8),
		geom.Box{Min: geom.Vec3{X: -5, Y: -8, Z: -5.5}, Max: geom.Vec3{X: 10, Y: 6, Z: 5.5}})
	bgFar := gridgen.CartesianBox(15, "bg-far", scaled(50, lin, 8), scaled(44, lin, 8), scaled(44, lin, 8),
		geom.Box{Min: geom.Vec3{X: -14, Y: -16, Z: -12}, Max: geom.Vec3{X: 20, Y: 12, Z: 12}})

	grids := []*grid.Grid{body, nose, tail, fins[0], fins[1], fins[2], fins[3],
		collar1, collar2, collar3, wing, pylon, flap, bgNear, bgMid, bgFar}
	sys := &grid.System{Grids: grids}

	storeIDs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	ov := &overset.Config{
		Sys: sys,
		Cutters: []*overset.BodyCutter{
			{
				Cutter:     overset.NewRevolvedCutter(prof, 0.05),
				OwnGrids:   storeIDs,
				FollowGrid: 0,
			},
			{
				Cutter: newShiftedEllipsoidCutter(3.0, 0.25, 2.0, 0.05,
					geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 2, Y: 2.2}}),
				OwnGrids:   []int{10, 11, 12},
				FollowGrid: -1,
			},
		},
		Search:      storeSearchOrder(len(grids)),
		FringeDepth: 2,
		HoleMapRes:  24,
	}

	release := sixdof.StoreReleaseMotion{
		Drop:      0.02,
		Decel:     0.004,
		PitchRate: 0.01,
		Pivot:     geom.Vec3{X: storeLen / 2},
	}
	motions := make([]sixdof.Motion, len(grids))
	for _, id := range storeIDs {
		motions[id] = release
	}

	return &Case{
		Name:     "store-separation",
		Sys:      sys,
		Overset:  ov,
		Motions:  motions,
		FS:       flow.Freestream{Mach: 1.6, Re: 2e6},
		DT:       0.02,
		ForceRef: geom.Vec3{X: storeLen / 2},
	}
}

// StoreSepFree is StoreSep with the store's motion computed from the
// integrated aerodynamic loads through the six-degree-of-freedom model
// instead of prescribed — the paper notes "the free motion can be computed
// with negligible change in the parallel performance of the code."
func StoreSepFree(scale float64) *Case {
	c := StoreSep(scale)
	c.Name = "store-separation-free"
	storeLen := 4.0
	body := sixdof.NewBody(
		40.0,                          // mass (nondimensional)
		geom.Vec3{X: 4, Y: 30, Z: 30}, // principal inertia
		geom.Vec3{X: storeLen / 2},    // CG at mid-body
	)
	body.Gravity = geom.Vec3{Y: -0.02}
	c.FreeBody = body
	c.BodyGrids = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	for _, gi := range c.BodyGrids {
		c.Motions[gi] = nil
	}
	return c
}

func finName(f int) string {
	return [...]string{"fin-north", "fin-east", "fin-south", "fin-west"}[f]
}

// storeSearchOrder builds the donor hierarchy: store components search the
// store body, then the near background, then outward; wing components
// search the wing then backgrounds; backgrounds search finer neighbors
// first then curvilinear grids.
func storeSearchOrder(n int) map[int][]int {
	order := make(map[int][]int, n)
	storeFirst := []int{0, 13, 14, 15}
	for _, id := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9} {
		order[id] = storeFirst
	}
	order[0] = []int{13, 14, 15}
	order[10] = []int{13, 14, 15}
	order[11] = []int{10, 13, 14, 15}
	order[12] = []int{10, 13, 14, 15}
	order[13] = []int{0, 10, 14, 15}
	order[14] = []int{13, 15, 0, 10}
	order[15] = []int{14, 13}
	return order
}

type shiftedEllipsoidCutter struct {
	inner *overset.EllipsoidCutter
	shift geom.Transform
}

func newShiftedEllipsoidCutter(a, b, c, margin float64, shift geom.Transform) overset.Cutter {
	ec := overset.NewEllipsoidCutter(a, b, c, margin)
	ec.SetTransform(shift)
	return &shiftedEllipsoidCutter{inner: ec, shift: shift}
}

func (c *shiftedEllipsoidCutter) Inside(p geom.Vec3) bool { return c.inner.Inside(p) }
func (c *shiftedEllipsoidCutter) Bounds() geom.Box        { return c.inner.Bounds() }
func (c *shiftedEllipsoidCutter) SetTransform(t geom.Transform) {
	c.inner.SetTransform(t.Compose(c.shift))
}
