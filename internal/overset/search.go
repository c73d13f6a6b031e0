package overset

import (
	"math"

	"overd/internal/geom"
	"overd/internal/grid"
)

// Donor identifies an interpolation source: the cell whose lowest-index
// corner is (I,J,K) in component grid Grid, with trilinear coordinates
// (A,B,C) in [0,1]³ locating the receiver point inside the cell.
type Donor struct {
	Grid    int
	I, J, K int
	A, B, C float64
}

// SearchResult reports one donor search.
type SearchResult struct {
	Donor Donor
	// Steps counts stencil-walk cell moves plus Newton iterations — the
	// work measure that feeds the connectivity cost model.
	Steps int
	OK    bool
}

// maxWalkSteps bounds a single stencil walk.
const maxWalkSteps = 400

// newtonIters per cell containment test.
const newtonIters = 4

// FindDonor walks the donor grid's cells from the start guess toward the
// world-frame point x, inverting the trilinear (bilinear in 2-D) cell
// mapping with Newton's method at each visited cell and stepping to the
// neighbor indicated by out-of-range local coordinates. The walk handles
// periodic wrap in i. Valid donors require all cell corners to be field
// points. Cartesian grids resolve directly without walking.
func FindDonor(g *grid.Grid, gi int, x geom.Vec3, start [3]int) SearchResult {
	if ResolvesDirectly(g) {
		return cartesianLocate(g, gi, x)
	}
	twoD := g.NK == 1
	ni, nj, nk := g.NI, g.NJ, g.NK
	// Cell index bounds (cell (i,j,k) spans points i..i+1 etc.).
	maxI := ni - 2
	if g.PeriodicI() {
		maxI = ni - 1 // the seam cell wraps to point 0
	}
	i, j, k := clampCell(start[0], 0, maxI), clampCell(start[1], 0, nj-2), 0
	if !twoD {
		k = clampCell(start[2], 0, nk-2)
	}

	// A walk pinned against an index boundary can mean the linearized
	// direction points through a topological hole (the center of an
	// annular grid, where no cells exist). Restart a few times from
	// azimuthally shifted cells before giving up.
	retries := 0
	const maxRetries = 3

	steps := 0
	for steps < maxWalkSteps {
		a, b, c, conv := invertCell(g, i, j, k, x)
		steps += newtonIters
		const tol = 1e-8
		if conv && a >= -tol && a <= 1+tol && b >= -tol && b <= 1+tol &&
			(twoD || c >= -tol && c <= 1+tol) {
			// Containment: validate corners.
			if cellIsField(g, i, j, k) {
				return SearchResult{
					Donor: Donor{Grid: gi, I: i, J: j, K: k,
						A: clamp01(a), B: clamp01(b), C: clamp01(c)},
					Steps: steps, OK: true,
				}
			}
			return SearchResult{Steps: steps} // inside a blanked cell
		}
		// Step toward the point. Move by the integer excess, clamped to a
		// modest jump so a bad Newton solution cannot fling the walk.
		di := walkStep(a)
		dj := walkStep(b)
		dk := 0
		if !twoD {
			dk = walkStep(c)
		}
		stuck := !conv || (di == 0 && dj == 0 && dk == 0)
		if !stuck {
			// Clamp to the valid cell range, sliding along boundaries so
			// the walk can travel around O-grids and along edges.
			niNew := i + di
			if g.PeriodicI() {
				niNew = ((niNew % ni) + ni) % ni
			} else {
				niNew = clampCell(niNew, 0, maxI)
			}
			njNew := clampCell(j+dj, 0, nj-2)
			nkNew := k
			if !twoD {
				nkNew = clampCell(k+dk, 0, nk-2)
			}
			if niNew == i && njNew == j && nkNew == k {
				stuck = true // pinned against the boundary
			} else {
				i, j, k = niNew, njNew, nkNew
				steps++
			}
		}
		if stuck {
			if retries >= maxRetries {
				return SearchResult{Steps: steps}
			}
			retries++
			i = ((i + (ni/(maxRetries+1))*retries) % (maxI + 1))
			j = (nj - 1) / 2
			if !twoD {
				k = (nk - 1) / 2
			}
			steps++
		}
	}
	return SearchResult{Steps: steps}
}

func walkStep(a float64) int {
	switch {
	case a < 0:
		d := int(a)
		if d == 0 {
			d = -1
		}
		if d < -8 {
			d = -8
		}
		return d
	case a > 1:
		d := int(a)
		if d < 1 {
			d = 1
		}
		if d > 8 {
			d = 8
		}
		return d
	}
	return 0
}

func clampCell(v, lo, hi int) int {
	if hi < lo {
		hi = lo
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// cornerPoint returns grid point (i,j,k) with periodic wrap in i.
func cornerPoint(g *grid.Grid, i, j, k int) geom.Vec3 {
	if g.PeriodicI() {
		i = ((i % g.NI) + g.NI) % g.NI
	}
	return g.At(i, j, k)
}

// cellIsField reports whether every corner of cell (i,j,k) carries valid
// data: field points preferred, fringe corners tolerated (their values are
// one-level-stale interpolated data — the standard relaxation when two
// grids' fringe halos overlap), holes rejected. The wrapped i-columns and
// the row index are hoisted out of the corner loop.
func cellIsField(g *grid.Grid, i, j, k int) bool {
	kmax := 1
	if g.NK == 1 {
		kmax = 0
	}
	i0, i1 := i, i+1
	if g.PeriodicI() {
		i0 = ((i0 % g.NI) + g.NI) % g.NI
		i1 = ((i1 % g.NI) + g.NI) % g.NI
	}
	ib := g.IBlank
	for dk := 0; dk <= kmax; dk++ {
		for dj := 0; dj <= 1; dj++ {
			row := g.NI * (j + dj + g.NJ*(k+dk))
			if ib[row+i0] == grid.IBHole || ib[row+i1] == grid.IBHole {
				return false
			}
		}
	}
	return true
}

// invertCell solves the trilinear mapping of cell (i,j,k) for the local
// coordinates of x via Newton iteration. Returns the (possibly out of
// range) coordinates and whether the iteration stayed finite.
func invertCell(g *grid.Grid, i, j, k int, x geom.Vec3) (a, b, c float64, ok bool) {
	twoD := g.NK == 1
	// Gather corners (periodic wrap hoisted; the two i-columns repeat
	// across the j/k corner pairs).
	var p [8]geom.Vec3
	kmax := 1
	if twoD {
		kmax = 0
	}
	i0, i1 := i, i+1
	if g.PeriodicI() {
		i0 = ((i0 % g.NI) + g.NI) % g.NI
		i1 = ((i1 % g.NI) + g.NI) % g.NI
	}
	gx, gy, gz := g.X, g.Y, g.Z
	for dk := 0; dk <= kmax; dk++ {
		for dj := 0; dj <= 1; dj++ {
			row := g.NI * (j + dj + g.NJ*(k+dk))
			n0, n1 := row+i0, row+i1
			m := 2*dj + 4*dk
			p[m] = geom.Vec3{X: gx[n0], Y: gy[n0], Z: gz[n0]}
			p[m+1] = geom.Vec3{X: gx[n1], Y: gy[n1], Z: gz[n1]}
		}
	}
	if twoD {
		for m := 0; m < 4; m++ {
			p[m+4] = p[m].Add(geom.Vec3{Z: 1})
		}
	}
	a, b, c = 0.5, 0.5, 0.5
	if twoD {
		c = 0
	}
	for iter := 0; iter < newtonIters; iter++ {
		// Position and partials of the trilinear map at (a,b,c).
		pos, ra, rb, rc := trilinearKernel(&p, a, b, c)
		res := x.Sub(pos)
		m := geom.Mat3{
			{ra.X, rb.X, rc.X},
			{ra.Y, rb.Y, rc.Y},
			{ra.Z, rb.Z, rc.Z},
		}
		inv, invOK := m.Inverse()
		if !invOK {
			return a, b, c, false
		}
		d := inv.MulVec(res)
		a += d.X
		b += d.Y
		c += d.Z
		if twoD {
			c = 0
		}
		// Keep the iterate from exploding; the walk uses the overshoot
		// direction, so a moderate clamp preserves that signal.
		a = clampF(a, -20, 21)
		b = clampF(b, -20, 21)
		c = clampF(c, -20, 21)
	}
	if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
		return 0.5, 0.5, 0.5, false
	}
	return a, b, c, true
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func trilerp(p [8]geom.Vec3, a, b, c float64) geom.Vec3 {
	var out geom.Vec3
	for m := 0; m < 8; m++ {
		w := lw(a, m&1) * lw(b, (m>>1)&1) * lw(c, (m>>2)&1)
		if w == 0 {
			continue
		}
		out = out.Add(p[m].Scale(w))
	}
	return out
}

// trilinearKernel evaluates the trilinear map and its three directional
// differences at (a,b,c) in one pass over the corners, bit-identical to the
// seven trilerp evaluations it replaces: pos = T(a,b,c),
// ra = T(1,b,c)−T(0,b,c), rb = T(a,1,c)−T(a,0,c), rc = T(a,b,1)−T(a,b,0).
// Each partial sum keeps trilerp's ascending-m accumulation order, its
// left-associated weight products (substituting 1·x = x and dropping the
// ±0-weight terms trilerp skips), and its skip-on-zero-weight semantics —
// the weights can be negative for out-of-cell iterates, so a ±0 product
// must be skipped, not accumulated.
func trilinearKernel(p *[8]geom.Vec3, a, b, c float64) (pos, ra, rb, rc geom.Vec3) {
	wa := [2]float64{1 - a, a}
	wb := [2]float64{1 - b, b}
	wc := [2]float64{1 - c, c}
	var raHi, raLo, rbHi, rbLo, rcHi, rcLo geom.Vec3
	for m := 0; m < 8; m++ {
		i, j, k := m&1, (m>>1)&1, (m>>2)&1
		pm := p[m]
		wab := wa[i] * wb[j]
		if w := wab * wc[k]; w != 0 {
			pos = pos.Add(pm.Scale(w))
		}
		if w := wb[j] * wc[k]; w != 0 { // T(1,b,c) / T(0,b,c): lw(a,·) → 1
			if i == 1 {
				raHi = raHi.Add(pm.Scale(w))
			} else {
				raLo = raLo.Add(pm.Scale(w))
			}
		}
		if w := wa[i] * wc[k]; w != 0 { // T(a,1,c) / T(a,0,c): lw(b,·) → 1
			if j == 1 {
				rbHi = rbHi.Add(pm.Scale(w))
			} else {
				rbLo = rbLo.Add(pm.Scale(w))
			}
		}
		if wab != 0 { // T(a,b,1) / T(a,b,0): lw(c,·) → 1
			if k == 1 {
				rcHi = rcHi.Add(pm.Scale(wab))
			} else {
				rcLo = rcLo.Add(pm.Scale(wab))
			}
		}
	}
	return pos, raHi.Sub(raLo), rbHi.Sub(rbLo), rcHi.Sub(rcLo)
}

func lw(f float64, d int) float64 {
	if d == 1 {
		return f
	}
	return 1 - f
}

// cartesianLocate resolves a donor directly on a uniform Cartesian grid —
// the §5 observation that "costly donor searches are avoided" when donors
// live in Cartesian components.
func cartesianLocate(g *grid.Grid, gi int, x geom.Vec3) SearchResult {
	o := g.At(0, 0, 0)
	var dx, dy, dz float64
	if g.NI > 1 {
		dx = g.At(1, 0, 0).X - o.X
	}
	if g.NJ > 1 {
		dy = g.At(0, 1, 0).Y - o.Y
	}
	if g.NK > 1 {
		dz = g.At(0, 0, 1).Z - o.Z
	}
	twoD := g.NK == 1
	fi := posToCell(x.X-o.X, dx, g.NI)
	fj := posToCell(x.Y-o.Y, dy, g.NJ)
	fk := 0.0
	if !twoD {
		fk = posToCell(x.Z-o.Z, dz, g.NK)
	}
	if fi < 0 || fj < 0 || fk < 0 {
		return SearchResult{Steps: 1}
	}
	i, a := splitCell(fi, g.NI)
	j, b := splitCell(fj, g.NJ)
	k, c := 0, 0.0
	if !twoD {
		k, c = splitCell(fk, g.NK)
	}
	if !cellIsField(g, i, j, k) {
		return SearchResult{Steps: 1}
	}
	return SearchResult{
		Donor: Donor{Grid: gi, I: i, J: j, K: k, A: a, B: b, C: c},
		Steps: 1, OK: true,
	}
}

// posToCell returns the fractional cell coordinate, or -1 if outside.
func posToCell(d, delta float64, n int) float64 {
	if n == 1 {
		return 0
	}
	if delta == 0 {
		return -1
	}
	f := d / delta
	if f < 0 || f > float64(n-1) {
		return -1
	}
	return f
}

func splitCell(f float64, n int) (int, float64) {
	i := int(f)
	if i > n-2 {
		i = n - 2
	}
	return i, f - float64(i)
}
