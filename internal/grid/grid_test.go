package grid

import (
	"math"
	"testing"
	"testing/quick"

	"overd/internal/geom"
)

func TestIdxRoundTrip(t *testing.T) {
	g := New(0, "t", 4, 5, 6)
	seen := make(map[int]bool)
	for k := 0; k < 6; k++ {
		for j := 0; j < 5; j++ {
			for i := 0; i < 4; i++ {
				n := g.Idx(i, j, k)
				if n < 0 || n >= g.NPoints() {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range", i, j, k, n)
				}
				if seen[n] {
					t.Fatalf("Idx collision at (%d,%d,%d)", i, j, k)
				}
				seen[n] = true
			}
		}
	}
	if len(seen) != 120 {
		t.Errorf("covered %d offsets, want 120", len(seen))
	}
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with zero dim should panic")
		}
	}()
	New(0, "bad", 0, 3, 3)
}

func TestSetBodyAndTransform(t *testing.T) {
	g := New(0, "t", 3, 3, 1)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			g.SetBody(i, j, 0, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	tr := geom.Transform{R: geom.RotZ(math.Pi / 2), T: geom.Vec3{X: 10}}
	g.ApplyTransform(tr)
	got := g.At(1, 0, 0)
	want := geom.Vec3{X: 10, Y: 1}
	if got.Dist(want) > 1e-12 {
		t.Errorf("transformed point = %v, want %v", got, want)
	}
	// Body frame untouched.
	if g.AtBody(1, 0, 0) != (geom.Vec3{X: 1}) {
		t.Error("body frame mutated by transform")
	}
	// Identity restores.
	g.ApplyTransform(geom.IdentityTransform())
	if g.At(1, 0, 0).Dist(geom.Vec3{X: 1}) > 1e-12 {
		t.Error("identity transform should restore body positions")
	}
}

func TestBounds(t *testing.T) {
	g := New(0, "t", 2, 2, 2)
	g.SetBody(0, 0, 0, geom.Vec3{X: -1, Y: -2, Z: -3})
	g.SetBody(1, 1, 1, geom.Vec3{X: 4, Y: 5, Z: 6})
	b := g.Bounds()
	if !b.Contains(geom.Vec3{X: -1, Y: -2, Z: -3}) || !b.Contains(geom.Vec3{X: 4, Y: 5, Z: 6}) {
		t.Errorf("bounds %v misses corners", b)
	}
}

func TestCoarsenRefineCounts(t *testing.T) {
	g := New(0, "t", 9, 5, 1)
	for j := 0; j < 5; j++ {
		for i := 0; i < 9; i++ {
			g.SetBody(i, j, 0, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	c := g.Coarsen()
	if c.NI != 5 || c.NJ != 3 || c.NK != 1 {
		t.Errorf("coarsened dims %dx%dx%d, want 5x3x1", c.NI, c.NJ, c.NK)
	}
	r := g.Refine()
	if r.NI != 17 || r.NJ != 9 || r.NK != 1 {
		t.Errorf("refined dims %dx%dx%d, want 17x9x1", r.NI, r.NJ, r.NK)
	}
	// Refined midpoints interpolate.
	mid := r.AtBody(1, 0, 0)
	if mid.Dist(geom.Vec3{X: 0.5}) > 1e-12 {
		t.Errorf("refined midpoint = %v, want (0.5,0,0)", mid)
	}
	// Corners preserved by both.
	if c.AtBody(4, 2, 0) != (geom.Vec3{X: 8, Y: 4}) {
		t.Errorf("coarse corner = %v", c.AtBody(4, 2, 0))
	}
	if r.AtBody(16, 8, 0) != (geom.Vec3{X: 8, Y: 4}) {
		t.Errorf("refined corner = %v", r.AtBody(16, 8, 0))
	}
}

func TestCoarsenQuartersPointCount2D(t *testing.T) {
	// The paper's scale-up study changes point counts by ~4x in 2-D.
	g := New(0, "t", 101, 81, 1)
	c := g.Coarsen()
	ratio := float64(g.NPoints()) / float64(c.NPoints())
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("coarsen ratio = %v, want ~4", ratio)
	}
	r := g.Refine()
	ratio = float64(r.NPoints()) / float64(g.NPoints())
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("refine ratio = %v, want ~4", ratio)
	}
}

func TestIBlankCountsAndSystem(t *testing.T) {
	g1 := New(0, "a", 4, 4, 1)
	g2 := New(1, "b", 3, 3, 1)
	g1.IBlank[0] = IBHole
	g1.IBlank[1] = IBFringe
	g1.IBlank[2] = IBFringe
	s := &System{Grids: []*Grid{g1, g2}}
	if s.NPoints() != 25 {
		t.Errorf("NPoints = %d", s.NPoints())
	}
	if s.NFringe() != 2 {
		t.Errorf("NFringe = %d", s.NFringe())
	}
	if got := s.IGBPRatio(); math.Abs(got-2.0/25) > 1e-15 {
		t.Errorf("IGBPRatio = %v", got)
	}
	g1.ResetIBlank()
	if g1.CountIBlank(IBField) != 16 {
		t.Error("ResetIBlank failed")
	}
}

func TestIBoxSplitDimCoversExactly(t *testing.T) {
	b := FullBox(17, 9, 5)
	for dim := 0; dim < 3; dim++ {
		for parts := 1; parts <= 6; parts++ {
			pieces := b.SplitDim(dim, parts)
			total := 0
			for _, p := range pieces {
				if !p.Valid() {
					t.Fatalf("invalid piece %v", p)
				}
				total += p.Count()
			}
			if total != b.Count() {
				t.Errorf("dim %d parts %d: pieces cover %d, want %d", dim, parts, total, b.Count())
			}
		}
	}
}

func TestIBoxSplitBalance_Property(t *testing.T) {
	f := func(n uint8, parts uint8) bool {
		ni := int(n%60) + 2
		p := int(parts%8) + 1
		pieces := FullBox(ni, 3, 3).SplitDim(0, p)
		lo, hi := 1<<30, 0
		for _, pc := range pieces {
			if pc.NI() < lo {
				lo = pc.NI()
			}
			if pc.NI() > hi {
				hi = pc.NI()
			}
		}
		return hi-lo <= 1 // pieces differ by at most one point
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIBoxBasics(t *testing.T) {
	b := IBox{2, 5, 1, 3, 0, 0}
	if b.Count() != 4*3*1 {
		t.Errorf("Count = %d", b.Count())
	}
	if !b.Contains(2, 1, 0) || !b.Contains(5, 3, 0) || b.Contains(6, 1, 0) {
		t.Error("Contains wrong")
	}
	iv := b.Intersect(IBox{4, 9, 2, 9, 0, 5})
	if iv != (IBox{4, 5, 2, 3, 0, 0}) {
		t.Errorf("Intersect = %v", iv)
	}
	empty := b.Intersect(IBox{9, 12, 0, 0, 0, 0})
	if empty.Valid() || empty.Count() != 0 {
		t.Error("disjoint intersect should be invalid with zero count")
	}
	if b.LargestDim() != 0 {
		t.Errorf("LargestDim = %d", b.LargestDim())
	}
	if (IBox{0, 1, 0, 8, 0, 2}).LargestDim() != 1 {
		t.Error("LargestDim should be j")
	}
}

func TestSurfacePoints(t *testing.T) {
	b := FullBox(4, 4, 4)
	// 64 total, 8 interior.
	if got := b.SurfacePoints(); got != 56 {
		t.Errorf("SurfacePoints = %d, want 56", got)
	}
	flat := FullBox(5, 5, 1)
	if got := flat.SurfacePoints(); got != 25 {
		t.Errorf("2-D slab surface = %d, want all 25", got)
	}
}

func TestBoundsOfSubbox(t *testing.T) {
	g := New(0, "t", 4, 4, 1)
	for j := 0; j < 4; j++ {
		for i := 0; i < 4; i++ {
			g.SetBody(i, j, 0, geom.Vec3{X: float64(i), Y: float64(j)})
		}
	}
	b := g.BoundsOf(IBox{1, 2, 1, 2, 0, 0})
	if b.Min != (geom.Vec3{X: 1, Y: 1}) || b.Max != (geom.Vec3{X: 2, Y: 2}) {
		t.Errorf("BoundsOf = %+v", b)
	}
}

func TestFaceAndBCStrings(t *testing.T) {
	if IMin.String() != "imin" || KMax.String() != "kmax" {
		t.Error("Face strings wrong")
	}
	if BCWall.String() != "wall" || BCOverset.String() != "overset" {
		t.Error("BC strings wrong")
	}
}

func TestPeriodicI(t *testing.T) {
	g := New(0, "t", 4, 4, 1)
	if g.PeriodicI() {
		t.Error("default grid should not be periodic")
	}
	g.BCs[IMin] = BCPeriodic
	g.BCs[IMax] = BCPeriodic
	if !g.PeriodicI() {
		t.Error("PeriodicI should be true")
	}
}

// scrambled fills a grid's body frame with values that exercise the
// min/max corner cases: both zeros, repeats and large magnitudes.
func scrambled(ni, nj, nk int) *Grid {
	g := New(0, "t", ni, nj, nk)
	vals := []float64{0, math.Copysign(0, -1), 1.5, -1.5, 1e300, -1e-300, 3, 3}
	for n := range g.X0 {
		g.X0[n] = vals[(n*7+1)%len(vals)]
		g.Y0[n] = vals[(n*5+2)%len(vals)]
		g.Z0[n] = vals[(n*3)%len(vals)]
	}
	copy(g.X, g.X0)
	copy(g.Y, g.Y0)
	copy(g.Z, g.Z0)
	return g
}

// sameBits compares coordinates bit for bit (so -0 differs from +0); NaNs
// match each other whatever their payload.
func sameBits(a, b geom.Vec3) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(a.X, b.X) && eq(a.Y, b.Y) && eq(a.Z, b.Z)
}

// TestBoundsMatchExtendReference holds the row-wise min/max loops of Bounds
// and BoundsOf to the point-by-point Box.Extend form they replaced, bit for
// bit, signed zeros and a NaN included.
func TestBoundsMatchExtendReference(t *testing.T) {
	g := scrambled(5, 4, 3)
	ref := func(ib IBox) geom.Box {
		b := geom.EmptyBox()
		for k := ib.KLo; k <= ib.KHi; k++ {
			for j := ib.JLo; j <= ib.JHi; j++ {
				for i := ib.ILo; i <= ib.IHi; i++ {
					b = b.Extend(g.At(i, j, k))
				}
			}
		}
		return b
	}
	check := func(name string, got, want geom.Box) {
		t.Helper()
		if !sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) {
			t.Errorf("%s = %+v, Extend reference %+v", name, got, want)
		}
	}
	boxes := []IBox{
		g.Full(),
		{1, 3, 1, 2, 0, 1},
		{2, 2, 3, 3, 1, 1}, // one point
		{0, 0, 0, 0, 0, 0}, // the point holding -0
		{3, 2, 0, 3, 0, 2}, // empty in i
		{0, 4, 2, 1, 0, 2}, // empty in j
	}
	for _, ib := range boxes {
		check("BoundsOf("+ib.String()+")", g.BoundsOf(ib), ref(ib))
	}
	check("Bounds", g.Bounds(), ref(g.Full()))
	if !g.BoundsOf(IBox{3, 2, 0, 3, 0, 2}).IsEmpty() {
		t.Error("BoundsOf an empty box is not empty")
	}
	g.Y[g.Idx(2, 1, 1)] = math.NaN()
	check("Bounds with NaN", g.Bounds(), ref(g.Full()))
	check("BoundsOf with NaN", g.BoundsOf(IBox{1, 3, 1, 2, 0, 1}), ref(IBox{1, 3, 1, 2, 0, 1}))
}

// TestApplyTransformBoxCoverEqualsWhole moves a grid subdomain by subdomain
// over disjoint covers and requires the coordinates ApplyTransform writes.
func TestApplyTransformBoxCoverEqualsWhole(t *testing.T) {
	xf := geom.Transform{R: geom.RotZ(0.3).Mul(geom.RotX(-0.7)), T: geom.Vec3{X: 0.25, Y: -3, Z: 1e-3}}
	whole := scrambled(7, 5, 4)
	whole.ApplyTransform(xf)
	for dim := 0; dim < 3; dim++ {
		g := scrambled(7, 5, 4)
		for _, half := range g.Full().SplitDim(dim, 2) {
			for _, part := range half.SplitDim((dim+1)%3, 3) {
				g.ApplyTransformBox(xf, part)
			}
		}
		if g.Xform != geom.IdentityTransform() {
			t.Fatal("ApplyTransformBox changed Xform")
		}
		for n := range whole.X {
			if !sameBits(geom.Vec3{X: g.X[n], Y: g.Y[n], Z: g.Z[n]},
				geom.Vec3{X: whole.X[n], Y: whole.Y[n], Z: whole.Z[n]}) {
				t.Fatalf("split along %d: point %d differs from ApplyTransform", dim, n)
			}
		}
	}
}
