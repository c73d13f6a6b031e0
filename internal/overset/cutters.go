// Package overset implements the Chimera domain-connectivity machinery of
// DCF3D: analytic hole cutting with Cartesian hole-map acceleration, fringe
// (intergrid boundary point) identification, stencil-walking donor searches
// with trilinear Newton inversion, nth-level restart, and interpolation-
// coefficient computation. Package dcf layers the distributed protocol on
// top of these primitives.
package overset

import (
	"math"

	"overd/internal/geom"
	"overd/internal/gridgen"
)

// Cutter is a solid body that blanks ("cuts holes in") grid points of
// overlapping component grids, in world-frame coordinates.
type Cutter interface {
	// Inside reports whether the world-frame point is inside the body
	// (including the hole margin).
	Inside(p geom.Vec3) bool
	// Bounds returns a world-frame bounding box of the cut region.
	Bounds() geom.Box
	// SetTransform places the body in the world frame (bodies attached to
	// moving grids follow them).
	SetTransform(t geom.Transform)
}

// AirfoilCutter cuts the interior of a NACA 0012 airfoil section (2-D).
type AirfoilCutter struct {
	// Margin inflates the cut region so fringe points sit off the surface.
	Margin float64
	xf     geom.Transform
	inv    geom.Transform
}

// NewAirfoilCutter returns an airfoil cutter with the given hole margin.
func NewAirfoilCutter(margin float64) *AirfoilCutter {
	return &AirfoilCutter{Margin: margin, xf: geom.IdentityTransform(), inv: geom.IdentityTransform()}
}

// SetTransform implements Cutter.
func (c *AirfoilCutter) SetTransform(t geom.Transform) {
	c.xf = t
	c.inv = t.Inverse()
}

// Inside implements Cutter.
func (c *AirfoilCutter) Inside(p geom.Vec3) bool {
	b := c.inv.Apply(p)
	if b.X < -c.Margin || b.X > 1+c.Margin {
		return false
	}
	return math.Abs(b.Y) <= gridgen.NACA0012Thickness(b.X)+c.Margin
}

// Bounds implements Cutter.
func (c *AirfoilCutter) Bounds() geom.Box {
	body := geom.Box{
		Min: geom.Vec3{X: -c.Margin, Y: -0.08 - c.Margin, Z: -1},
		Max: geom.Vec3{X: 1 + c.Margin, Y: 0.08 + c.Margin, Z: 1},
	}
	return c.xf.ApplyBox(body)
}

// RevolvedCutter cuts the interior of an axisymmetric body (store, jet
// pipe) whose body frame has the axis along +x from the origin.
type RevolvedCutter struct {
	Profile gridgen.Profile
	Margin  float64
	// rmax is the largest sampled profile radius plus the margin; Profile
	// and Margin do not change after NewRevolvedCutter.
	rmax float64
	xf   geom.Transform
	inv  geom.Transform
}

// NewRevolvedCutter returns a cutter for the given body of revolution.
func NewRevolvedCutter(p gridgen.Profile, margin float64) *RevolvedCutter {
	rmax := 0.0
	for i := 0; i <= 20; i++ {
		if r := p.Radius(float64(i) / 20); r > rmax {
			rmax = r
		}
	}
	return &RevolvedCutter{Profile: p, Margin: margin, rmax: rmax + margin,
		xf: geom.IdentityTransform(), inv: geom.IdentityTransform()}
}

// SetTransform implements Cutter.
func (c *RevolvedCutter) SetTransform(t geom.Transform) {
	c.xf = t
	c.inv = t.Inverse()
}

// Inside implements Cutter.
func (c *RevolvedCutter) Inside(p geom.Vec3) bool {
	b := c.inv.Apply(p)
	if b.X < -c.Margin || b.X > c.Profile.Length+c.Margin {
		return false
	}
	t := b.X / c.Profile.Length
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	r := math.Hypot(b.Y, b.Z)
	return r <= c.Profile.Radius(t)+c.Margin
}

// Bounds implements Cutter.
func (c *RevolvedCutter) Bounds() geom.Box {
	body := geom.Box{
		Min: geom.Vec3{X: -c.Margin, Y: -c.rmax, Z: -c.rmax},
		Max: geom.Vec3{X: c.Profile.Length + c.Margin, Y: c.rmax, Z: c.rmax},
	}
	return c.xf.ApplyBox(body)
}

// EllipsoidCutter cuts the interior of an ellipsoid with semi-axes A, B, C
// centered at the body-frame origin (the wing analog).
type EllipsoidCutter struct {
	A, B, C float64
	Margin  float64
	xf      geom.Transform
	inv     geom.Transform
}

// NewEllipsoidCutter returns a cutter for the given ellipsoid.
func NewEllipsoidCutter(a, b, c, margin float64) *EllipsoidCutter {
	return &EllipsoidCutter{A: a, B: b, C: c, Margin: margin,
		xf: geom.IdentityTransform(), inv: geom.IdentityTransform()}
}

// SetTransform implements Cutter.
func (c *EllipsoidCutter) SetTransform(t geom.Transform) {
	c.xf = t
	c.inv = t.Inverse()
}

// Inside implements Cutter.
func (c *EllipsoidCutter) Inside(p geom.Vec3) bool {
	b := c.inv.Apply(p)
	ea, eb, ec := c.A+c.Margin, c.B+c.Margin, c.C+c.Margin
	v := b.X*b.X/(ea*ea) + b.Y*b.Y/(eb*eb) + b.Z*b.Z/(ec*ec)
	return v <= 1
}

// Bounds implements Cutter.
func (c *EllipsoidCutter) Bounds() geom.Box {
	body := geom.Box{
		Min: geom.Vec3{X: -(c.A + c.Margin), Y: -(c.B + c.Margin), Z: -(c.C + c.Margin)},
		Max: geom.Vec3{X: c.A + c.Margin, Y: c.B + c.Margin, Z: c.C + c.Margin},
	}
	return c.xf.ApplyBox(body)
}

// BoxCutter cuts an axis-aligned body-frame box (fin and pylon analog).
type BoxCutter struct {
	Box geom.Box
	xf  geom.Transform
	inv geom.Transform
}

// NewBoxCutter returns a cutter for the given body-frame box.
func NewBoxCutter(b geom.Box) *BoxCutter {
	return &BoxCutter{Box: b, xf: geom.IdentityTransform(), inv: geom.IdentityTransform()}
}

// SetTransform implements Cutter.
func (c *BoxCutter) SetTransform(t geom.Transform) {
	c.xf = t
	c.inv = t.Inverse()
}

// Inside implements Cutter.
func (c *BoxCutter) Inside(p geom.Vec3) bool { return c.Box.Contains(c.inv.Apply(p)) }

// Bounds implements Cutter.
func (c *BoxCutter) Bounds() geom.Box { return c.xf.ApplyBox(c.Box) }
