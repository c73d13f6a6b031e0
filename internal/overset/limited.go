package overset

import (
	"overd/internal/geom"
	"overd/internal/grid"
)

// LimitedResult extends SearchResult with the forwarding information of the
// distributed donor search: when a walk leaves the serving processor's
// subdomain but remains inside the component grid, the request must be
// forwarded to the neighboring processor ("if the search happens to hit a
// processor boundary, the search request is forwarded").
type LimitedResult struct {
	SearchResult
	// Exited reports that the walk left `box` while still inside the grid;
	// ExitCell is the first out-of-box cell visited, the forward hint.
	Exited   bool
	ExitCell [3]int
	// Restarts is the number of stuck-walk restarts consumed.
	Restarts int
}

// LimitedWalk is everything a limited donor search decides from coordinates
// alone: it is a pure function of the grid's world coordinates, the point,
// the start, the box and the budget, so it stays valid for as long as the
// grid does not move. Only Resolve reads IBlank.
type LimitedWalk struct {
	// Contained reports that the walk ended in the cell holding the point;
	// Donor is then that cell, a donor if Resolve finds it unblanked.
	Contained bool
	Donor     Donor
	Steps     int
	// Exited, ExitCell and Restarts are as in LimitedResult.
	Exited   bool
	ExitCell [3]int
	Restarts int
}

// ResolvesDirectly reports whether donors in g are located without a walk
// (cartesianLocate, which reads IBlank itself and has no coordinate part to
// remember).
func ResolvesDirectly(g *grid.Grid) bool { return g.Cartesian && !g.Moving }

// FindDonorLimited is FindDonor restricted to donor cells whose base point
// lies in box (one processor's subdomain). Cartesian grids resolve directly
// and report an exit if the located cell is off-box. restartBudget bounds
// the stuck-walk azimuthal restarts available to the whole forwarding chain
// (each restart that leaves the box consumes one at the next server); the
// Restarts field of the result reports how many were used locally.
func FindDonorLimited(g *grid.Grid, gi int, x geom.Vec3, start [3]int, box grid.IBox, restartBudget int) LimitedResult {
	if ResolvesDirectly(g) {
		res := cartesianLocate(g, gi, x)
		if res.OK && !box.Contains(res.Donor.I, res.Donor.J, res.Donor.K) {
			return LimitedResult{
				SearchResult: SearchResult{Steps: res.Steps},
				Exited:       true,
				ExitCell:     [3]int{res.Donor.I, res.Donor.J, res.Donor.K},
			}
		}
		return LimitedResult{SearchResult: res}
	}
	return WalkLimited(g, gi, x, start, box, restartBudget).Resolve(g)
}

// Resolve applies the grid's current IBlank to a walk: a containing cell
// with a hole corner is no donor (the walk's restarts are not reported for
// a contained point, found or blanked).
func (w LimitedWalk) Resolve(g *grid.Grid) LimitedResult {
	res := LimitedResult{SearchResult: SearchResult{Steps: w.Steps}}
	if w.Contained {
		if cellIsField(g, w.Donor.I, w.Donor.J, w.Donor.K) {
			res.Donor, res.OK = w.Donor, true
		}
		return res
	}
	res.Exited, res.ExitCell, res.Restarts = w.Exited, w.ExitCell, w.Restarts
	return res
}

// WalkLimited is the coordinate part of FindDonorLimited on a grid that does
// not resolve directly: the stencil walk from start, confined to box.
func WalkLimited(g *grid.Grid, gi int, x geom.Vec3, start [3]int, box grid.IBox, restartBudget int) LimitedWalk {
	twoD := g.NK == 1
	ni, nj, nk := g.NI, g.NJ, g.NK
	maxI := ni - 2
	if g.PeriodicI() {
		maxI = ni - 1
	}
	i := clampCell(start[0], 0, maxI)
	j := clampCell(start[1], 0, nj-2)
	k := 0
	if !twoD {
		k = clampCell(start[2], 0, nk-2)
	}
	// Pull the start into the box (requests are routed to the processor
	// whose subdomain the hint or bounding box indicated).
	i = clampCell(i, box.ILo, min(box.IHi, maxI))
	j = clampCell(j, box.JLo, min(box.JHi, nj-2))
	if !twoD {
		k = clampCell(k, box.KLo, min(box.KHi, nk-2))
	}

	// A pinned walk (the linearized direction points through a topological
	// hole, as at the center of an annular grid) restarts from azimuthally
	// shifted cells; a restart landing outside the subdomain becomes a
	// forwarded request. The budget is shared across the forwarding chain
	// so a point that is simply not in this grid cannot bounce among
	// subdomains indefinitely.
	retries := 0
	stuckAt := func(steps int) LimitedWalk {
		if retries >= restartBudget {
			return LimitedWalk{Steps: steps, Restarts: retries}
		}
		retries++
		denom := restartBudget + 1
		if denom < 2 {
			denom = 2
		}
		jump := [3]int{
			(i + (ni/denom)*retries) % (maxI + 1),
			(nj - 1) / 2,
			0,
		}
		if !twoD {
			jump[2] = (nk - 1) / 2
		}
		if !box.Contains(jump[0], jump[1], jump[2]) {
			return LimitedWalk{Steps: steps, Exited: true, ExitCell: jump, Restarts: retries}
		}
		i, j, k = jump[0], jump[1], jump[2]
		return LimitedWalk{Steps: -1} // sentinel: continue
	}

	// A walk that keeps pressing against the grid's radial or axial extent
	// while drifting azimuthally is chasing a point outside the component's
	// shell; cap those boundary slides so it fails fast instead of crawling
	// across every subdomain of the grid.
	slides := 0
	const maxSlides = 6

	steps := 0
	for steps < maxWalkSteps {
		a, b, c, conv := invertCell(g, i, j, k, x)
		steps += newtonIters
		const tol = 1e-8
		if conv && a >= -tol && a <= 1+tol && b >= -tol && b <= 1+tol &&
			(twoD || c >= -tol && c <= 1+tol) {
			return LimitedWalk{
				Contained: true,
				Donor: Donor{Grid: gi, I: i, J: j, K: k,
					A: clamp01(a), B: clamp01(b), C: clamp01(c)},
				Steps: steps,
			}
		}
		di := walkStep(a)
		dj := walkStep(b)
		dk := 0
		if !twoD {
			dk = walkStep(c)
		}
		stuck := !conv || (di == 0 && dj == 0 && dk == 0)
		if !stuck {
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
			// Grid-boundary clamping in the overshoot direction: a slide.
			if (dj != 0 && njNew == j) || (!twoD && dk != 0 && nkNew == k) ||
				(!g.PeriodicI() && di != 0 && niNew == i) {
				slides++
			}
			if niNew == i && njNew == j && nkNew == k {
				stuck = true
			} else if slides > maxSlides {
				stuck = true
			} else {
				i, j, k = niNew, njNew, nkNew
				steps++
				if !box.Contains(i, j, k) {
					return LimitedWalk{Steps: steps, Exited: true, ExitCell: [3]int{i, j, k}, Restarts: retries}
				}
				continue
			}
		}
		if stuck {
			res := stuckAt(steps)
			if res.Steps >= 0 {
				return res
			}
			slides = 0
		}
	}
	return LimitedWalk{Steps: steps, Restarts: retries}
}
