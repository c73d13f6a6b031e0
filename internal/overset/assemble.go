package overset

import (
	"overd/internal/geom"
	"overd/internal/grid"
)

// BodyCutter pairs a cutter with the component grids that belong to the
// same body (which it must not cut) and the grid whose motion it follows.
type BodyCutter struct {
	Cutter Cutter
	// OwnGrids are exempt from this cutter (the body's own grids).
	OwnGrids []int
	// FollowGrid is the moving grid whose transform the cutter tracks
	// (-1 for static bodies).
	FollowGrid int
	// holeMap accelerates queries; rebuilt when the transform changes.
	holeMap *HoleMap
	// mapXf is the followed grid's placement the hole map was last rebuilt
	// for (the zero Transform for a static body).
	mapXf geom.Transform
}

// Owns reports whether grid gi belongs to this cutter's own body (and is
// therefore exempt from its hole cutting).
func (bc *BodyCutter) Owns(gi int) bool {
	for _, g := range bc.OwnGrids {
		if g == gi {
			return true
		}
	}
	return false
}

// HoleMap returns the acceleration map, if built.
func (bc *BodyCutter) HoleMap() *HoleMap { return bc.holeMap }

// IGBP is one intergrid boundary point: a fringe point needing donor data.
type IGBP struct {
	Grid    int
	I, J, K int
	Pos     geom.Vec3
}

// Connectivity is the result of one domain-connectivity solution.
type Connectivity struct {
	IGBPs []IGBP
	// Donors is parallel to IGBPs; Donors[i].Grid < 0 marks an orphan
	// (no valid donor found; the receiver keeps its previous data).
	Donors []Donor
	// Steps is the total donor-search work (walk steps + Newton iterations).
	Steps int
	// Orphans counts IGBPs with no donor.
	Orphans int
}

// Config describes one overset system's connectivity problem.
type Config struct {
	Sys     *grid.System
	Cutters []*BodyCutter
	// Search gives, per receiver grid, the donor grids in hierarchy order
	// ("the grids are listed in hierarchical manner with the corresponding
	// grids searched in the order they are listed").
	Search map[int][]int
	// FringeDepth is the number of fringe layers at overset boundaries and
	// around holes (2 supports the second-order stencils).
	FringeDepth int
	// HoleMapRes enables hole-map acceleration at the given lattice
	// resolution (0 queries cutters directly).
	HoleMapRes int
	// restart holds the previous solution's donors for nth-level restart.
	restart map[igbpKey]Donor
	// DisableRestart forces every search to start from scratch (ablation).
	DisableRestart bool

	// bounds caches per-grid world bounding boxes for the current geometry.
	bounds []geom.Box
}

// RebuildHoleMaps refreshes every cutter's hole-map acceleration for the
// current transforms (no-op when HoleMapRes is 0).
func (c *Config) RebuildHoleMaps() {
	for _, bc := range c.Cutters {
		c.refreshHoleMap(bc)
	}
}

// refreshHoleMap brings bc's hole map in line with HoleMapRes and the
// cutter's placement. A cutter moves only by following its grid, so a map
// whose grid has not moved since the last rebuild (or that follows none)
// keeps the classifications it has memoised.
func (c *Config) refreshHoleMap(bc *BodyCutter) {
	if c.HoleMapRes <= 0 {
		bc.holeMap = nil
		return
	}
	var xf geom.Transform
	if bc.FollowGrid >= 0 {
		xf = c.Sys.Grids[bc.FollowGrid].Xform
	}
	switch {
	case bc.holeMap == nil:
		bc.holeMap = NewHoleMap(bc.Cutter, c.HoleMapRes)
	case bc.holeMap.nx != c.HoleMapRes || xf != bc.mapXf:
		bc.holeMap.Rebuild(c.HoleMapRes)
	}
	bc.mapXf = xf
}

// RefreshBounds recomputes the cached per-grid bounding boxes. Call after
// any grid moves and before search queries.
func (c *Config) RefreshBounds() {
	if cap(c.bounds) < len(c.Sys.Grids) {
		c.bounds = make([]geom.Box, len(c.Sys.Grids))
	}
	c.bounds = c.bounds[:len(c.Sys.Grids)]
	for i, g := range c.Sys.Grids {
		c.bounds[i] = g.Bounds()
	}
}

// igbpKey is an IGBP identity (grid, i, j, k) packed into one word so the
// restart cache hashes 8 bytes instead of a 4-word struct. 16 bits per
// field is far beyond any component grid dimension here.
type igbpKey uint64

func packIGBPKey(grid, i, j, k int) igbpKey {
	return igbpKey(uint64(grid)<<48 | uint64(i)<<32 | uint64(j)<<16 | uint64(k))
}

// CutHoles recomputes the iblank field of every grid: points inside a
// foreign body become holes; everything else returns to field state.
// Fringe marking happens in MarkFringes. Returns the number of points
// tested (the hole-cutting work measure).
func (c *Config) CutHoles() int {
	tested := 0
	for _, bc := range c.Cutters {
		if bc.FollowGrid >= 0 {
			bc.Cutter.SetTransform(c.Sys.Grids[bc.FollowGrid].Xform)
		}
		c.refreshHoleMap(bc)
	}
	c.RefreshBounds()
	for gi, g := range c.Sys.Grids {
		g.ResetIBlank()
		for _, bc := range c.Cutters {
			if bc.Owns(gi) {
				continue
			}
			cb := bc.Cutter.Bounds()
			if !cb.Overlaps(c.bounds[gi]) {
				continue
			}
			inside := bc.Cutter.Inside
			if bc.holeMap != nil {
				inside = bc.holeMap.Inside
			}
			for k := 0; k < g.NK; k++ {
				for j := 0; j < g.NJ; j++ {
					for i := 0; i < g.NI; i++ {
						n := g.Idx(i, j, k)
						if g.IBlank[n] == grid.IBHole {
							continue
						}
						p := geom.Vec3{X: g.X[n], Y: g.Y[n], Z: g.Z[n]}
						if !cb.Contains(p) {
							continue
						}
						tested++
						if inside(p) {
							g.IBlank[n] = grid.IBHole
						}
					}
				}
			}
		}
	}
	return tested
}

// MarkFringes marks fringe layers: FringeDepth layers of field points
// adjacent to holes, and FringeDepth layers at every overset boundary face.
func (c *Config) MarkFringes() {
	depth := c.FringeDepth
	if depth < 1 {
		depth = 2
	}
	var marks []int
	for _, g := range c.Sys.Grids {
		// Hole fringes, layer by layer.
		for layer := 0; layer < depth; layer++ {
			marks = AppendFringeLayer(marks[:0], g, g.Full(), layer)
			for _, n := range marks {
				g.IBlank[n] = grid.IBFringe
			}
		}
		// Overset boundary fringes.
		for f := grid.IMin; f <= grid.KMax; f++ {
			if g.BCs[f] != grid.BCOverset {
				continue
			}
			c.markFaceFringe(g, f, depth)
		}
	}
}

// AppendFringeLayer appends to marks the IBlank offsets of the field points
// in box that neighbor a hole (layer 0) or a fringe (later layers) across
// the six index directions, and returns the extended slice. It only reads
// IBlank: the caller writes the marks once every reader of the layer is
// done. The i direction wraps on a periodic O-grid.
func AppendFringeLayer(marks []int, g *grid.Grid, box grid.IBox, layer int) []int {
	want := grid.IBHole
	if layer > 0 {
		want = grid.IBFringe
	}
	ni, nj, nk := g.NI, g.NJ, g.NK
	sj, sk := ni, ni*nj
	ib := g.IBlank
	// A neighbor that does not exist is replaced by the tested point itself:
	// that point is a field point, so it never equals want. This turns every
	// edge case into a choice of row or column made outside the i loop.
	iminNbr, imaxNbr := 0, ni-1
	if g.PeriodicI() {
		iminNbr, imaxNbr = ni-1, 0
	}
	for k := box.KLo; k <= box.KHi; k++ {
		for j := box.JLo; j <= box.JHi; j++ {
			row := sj*j + sk*k
			c := ib[row : row+ni]
			jm, jp, km, kp := c, c, c, c
			if j > 0 {
				jm = ib[row-sj : row-sj+ni]
			}
			if j < nj-1 {
				jp = ib[row+sj : row+sj+ni]
			}
			if k > 0 {
				km = ib[row-sk : row-sk+ni]
			}
			if k < nk-1 {
				kp = ib[row+sk : row+sk+ni]
			}
			rows := fringeRows{c, jm, jp, km, kp}
			lo, hi := box.ILo, box.IHi
			if lo == 0 && hi >= 0 {
				if c[0] == grid.IBField && rows.near(want, 0, iminNbr, min(1, ni-1)) {
					marks = append(marks, row)
				}
				lo = 1
			}
			last := hi == ni-1 && ni > 1
			if last {
				hi = ni - 2
			}
			for i := lo; i <= hi; i++ {
				if c[i] == grid.IBField && rows.near(want, i, i-1, i+1) {
					marks = append(marks, row+i)
				}
			}
			if last && c[ni-1] == grid.IBField && rows.near(want, ni-1, ni-2, imaxNbr) {
				marks = append(marks, row+ni-1)
			}
		}
	}
	return marks
}

// fringeRows holds the IBlank row of the points under test and the four
// rows holding their j and k neighbors.
type fringeRows struct{ c, jm, jp, km, kp []int8 }

// near reports whether any of point i's six neighbors holds want; il and ir
// index its i neighbors in the point's own row.
func (r *fringeRows) near(want int8, i, il, ir int) bool {
	return r.c[il] == want || r.c[ir] == want || r.jm[i] == want ||
		r.jp[i] == want || r.km[i] == want || r.kp[i] == want
}

// markFaceFringe marks `depth` point layers at grid face f as fringes.
func (c *Config) markFaceFringe(g *grid.Grid, f grid.Face, depth int) {
	MarkFaceFringeBox(g, f, depth, g.Full())
}

// MarkFaceFringeBox marks `depth` point layers at grid face f as fringes,
// restricted to points inside `box` (one rank's subdomain).
func MarkFaceFringeBox(g *grid.Grid, f grid.Face, depth int, box grid.IBox) {
	for layer := 0; layer < depth; layer++ {
		var ilo, ihi, jlo, jhi, klo, khi int
		ilo, ihi, jlo, jhi, klo, khi = 0, g.NI-1, 0, g.NJ-1, 0, g.NK-1
		switch f {
		case grid.IMin:
			ilo, ihi = layer, layer
		case grid.IMax:
			ilo, ihi = g.NI-1-layer, g.NI-1-layer
		case grid.JMin:
			jlo, jhi = layer, layer
		case grid.JMax:
			jlo, jhi = g.NJ-1-layer, g.NJ-1-layer
		case grid.KMin:
			klo, khi = layer, layer
		case grid.KMax:
			klo, khi = g.NK-1-layer, g.NK-1-layer
		}
		for k := klo; k <= khi; k++ {
			for j := jlo; j <= jhi; j++ {
				for i := ilo; i <= ihi; i++ {
					if !box.Contains(i, j, k) {
						continue
					}
					n := g.Idx(i, j, k)
					if g.IBlank[n] == grid.IBField {
						g.IBlank[n] = grid.IBFringe
					}
				}
			}
		}
	}
}

// CollectIGBPs lists every fringe point of every grid.
func (c *Config) CollectIGBPs() []IGBP {
	var out []IGBP
	for gi, g := range c.Sys.Grids {
		for k := 0; k < g.NK; k++ {
			for j := 0; j < g.NJ; j++ {
				for i := 0; i < g.NI; i++ {
					n := g.Idx(i, j, k)
					if g.IBlank[n] == grid.IBFringe {
						out = append(out, IGBP{
							Grid: gi, I: i, J: j, K: k,
							Pos: geom.Vec3{X: g.X[n], Y: g.Y[n], Z: g.Z[n]},
						})
					}
				}
			}
		}
	}
	return out
}

// Assemble runs the complete serial connectivity solution: hole cutting,
// fringe marking, and donor searches with nth-level restart. It mirrors
// what the distributed implementation computes collectively and serves as
// its correctness reference.
func (c *Config) Assemble() *Connectivity {
	c.CutHoles()
	c.MarkFringes()
	igbps := c.CollectIGBPs()
	conn := &Connectivity{IGBPs: igbps, Donors: make([]Donor, len(igbps))}
	newRestart := make(map[igbpKey]Donor, len(igbps))
	for n, pt := range igbps {
		res := c.SearchIGBP(pt)
		conn.Steps += res.Steps
		if res.OK {
			conn.Donors[n] = res.Donor
			newRestart[packIGBPKey(pt.Grid, pt.I, pt.J, pt.K)] = res.Donor
		} else {
			conn.Donors[n] = Donor{Grid: -1}
			conn.Orphans++
		}
	}
	c.restart = newRestart
	return conn
}

// SearchIGBP performs the hierarchical donor search for one IGBP, using the
// previous donor as the starting guess when available (nth-level restart).
func (c *Config) SearchIGBP(pt IGBP) SearchResult {
	key := packIGBPKey(pt.Grid, pt.I, pt.J, pt.K)
	var prev *Donor
	if !c.DisableRestart && c.restart != nil {
		if d, ok := c.restart[key]; ok {
			prev = &d
		}
	}
	total := 0
	order := c.Search[pt.Grid]
	// Restart: try the previous donor grid first.
	if prev != nil {
		g := c.Sys.Grids[prev.Grid]
		res := FindDonor(g, prev.Grid, pt.Pos, [3]int{prev.I, prev.J, prev.K})
		total += res.Steps
		if res.OK {
			res.Steps = total
			return res
		}
	}
	for _, dgi := range order {
		if dgi == pt.Grid {
			continue
		}
		g := c.Sys.Grids[dgi]
		if c.bounds == nil || len(c.bounds) <= dgi {
			c.RefreshBounds()
		}
		if !c.bounds[dgi].Inflate(1e-9).Contains(pt.Pos) {
			total++
			continue
		}
		start := searchStart(g, pt.Pos)
		res := FindDonor(g, dgi, pt.Pos, start)
		total += res.Steps
		if res.OK {
			res.Steps = total
			return res
		}
	}
	return SearchResult{Steps: total}
}

// searchStart picks a from-scratch starting cell: the nearest of a coarse
// sample of cells (the first-timestep situation where "nothing is known
// about the possible donor location").
func searchStart(g *grid.Grid, x geom.Vec3) [3]int {
	best := [3]int{g.NI / 2, g.NJ / 2, g.NK / 2}
	bestD := x.Sub(g.At(best[0], best[1], best[2])).Norm2()
	const samples = 4
	for sk := 0; sk <= samples; sk++ {
		k := (g.NK - 1) * sk / samples
		for sj := 0; sj <= samples; sj++ {
			j := (g.NJ - 1) * sj / samples
			for si := 0; si <= samples; si++ {
				i := (g.NI - 1) * si / samples
				d := x.Sub(g.At(i, j, k)).Norm2()
				if d < bestD {
					bestD = d
					best = [3]int{i, j, k}
				}
			}
		}
	}
	return best
}

// Interpolate evaluates the donor interpolation for the given donor from
// the full (serial) grid data accessor. qAt returns the conserved state at
// a grid point.
func Interpolate(g *grid.Grid, d Donor, qAt func(i, j, k int) [5]float64) [5]float64 {
	var out [5]float64
	kmax := 1
	if g.NK == 1 {
		kmax = 0
	}
	for dk := 0; dk <= kmax; dk++ {
		wk := lw(d.C, dk)
		if g.NK == 1 {
			wk = 1
		}
		for dj := 0; dj <= 1; dj++ {
			for di := 0; di <= 1; di++ {
				w := lw(d.A, di) * lw(d.B, dj) * wk
				if w == 0 {
					continue
				}
				ii := d.I + di
				if g.PeriodicI() {
					ii = ((ii % g.NI) + g.NI) % g.NI
				}
				q := qAt(ii, d.J+dj, d.K+dk)
				for c := 0; c < 5; c++ {
					out[c] += w * q[c]
				}
			}
		}
	}
	return out
}
