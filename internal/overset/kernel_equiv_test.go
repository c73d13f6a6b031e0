package overset

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
)

// This file keeps naive copies of the fused connectivity kernels and
// asserts bit-for-bit agreement: the single-pass trilinear position+partials
// kernel against four independent trilerp evaluations (the old Newton inner
// step), the on-demand hole-map classification against the old
// nine-probes-per-cell form, and the fringe-marking row kernel against the
// old per-point neighbor test, and the limited donor search split into its
// coordinate and IBlank parts against the one-piece search.

func cmpVec(t *testing.T, name string, got, want geom.Vec3) {
	t.Helper()
	if math.Float64bits(got.X) != math.Float64bits(want.X) ||
		math.Float64bits(got.Y) != math.Float64bits(want.Y) ||
		math.Float64bits(got.Z) != math.Float64bits(want.Z) {
		t.Fatalf("%s: fused %+v != reference %+v", name, got, want)
	}
}

// TestTrilinearKernelEquivalence drives the fused kernel over randomized
// hexahedra (including degenerate and inverted cells) and out-of-range
// local coordinates — everything the clamped Newton iterates can produce.
func TestTrilinearKernelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		var p [8]geom.Vec3
		for m := 0; m < 8; m++ {
			p[m] = geom.Vec3{
				X: float64(m&1) + 0.6*(rng.Float64()-0.5),
				Y: float64(m>>1&1) + 0.6*(rng.Float64()-0.5),
				Z: float64(m>>2&1) + 0.6*(rng.Float64()-0.5),
			}
		}
		// Cover the Newton clamp range, exact 0/1 weights, and interior.
		var a, b, c float64
		switch trial % 4 {
		case 0:
			a, b, c = rng.Float64(), rng.Float64(), rng.Float64()
		case 1:
			a, b, c = 41*rng.Float64()-20, 41*rng.Float64()-20, 41*rng.Float64()-20
		case 2:
			a, b, c = float64(rng.Intn(2)), float64(rng.Intn(2)), rng.Float64()
		default:
			a, b, c = 0.5, 0.5, 0 // the 2-D planar start
		}

		pos, ra, rb, rc := trilinearKernel(&p, a, b, c)
		cmpVec(t, fmt.Sprintf("trial %d pos", trial), pos, trilerp(p, a, b, c))
		cmpVec(t, fmt.Sprintf("trial %d ra", trial), ra,
			trilerp(p, 1, b, c).Sub(trilerp(p, 0, b, c)))
		cmpVec(t, fmt.Sprintf("trial %d rb", trial), rb,
			trilerp(p, a, 1, c).Sub(trilerp(p, a, 0, c)))
		cmpVec(t, fmt.Sprintf("trial %d rc", trial), rc,
			trilerp(p, a, b, 1).Sub(trilerp(p, a, b, 0)))
	}
}

// refRebuildStates is the oldest HoleMap.Rebuild: nine probes per cell, no
// corner sharing. Returns the state lattice (0 outside, 1 inside, 2 mixed)
// for the map's current placement.
func refRebuildStates(hm *HoleMap, res int) []uint8 {
	state := make([]uint8, res*res*res)
	for k := 0; k < res; k++ {
		for j := 0; j < res; j++ {
			for i := 0; i < res; i++ {
				inside, outside := 0, 0
				for _, f := range [][3]float64{
					{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {1, 1, 0},
					{0, 0, 1}, {1, 0, 1}, {0, 1, 1}, {1, 1, 1},
					{0.5, 0.5, 0.5},
				} {
					p := geom.Vec3{
						X: hm.origin.X + (float64(i)+f[0])*hm.delta.X,
						Y: hm.origin.Y + (float64(j)+f[1])*hm.delta.Y,
						Z: hm.origin.Z + (float64(k)+f[2])*hm.delta.Z,
					}
					if hm.cutter.Inside(p) {
						inside++
					} else {
						outside++
					}
				}
				st := uint8(2)
				if outside == 0 {
					st = 1
				} else if inside == 0 {
					st = 0
				}
				state[i+res*(j+res*k)] = st
			}
		}
	}
	return state
}

// countingCutter counts analytic probes reaching the wrapped cutter.
type countingCutter struct {
	Cutter
	probes atomic.Int64
}

func (c *countingCutter) Inside(p geom.Vec3) bool {
	c.probes.Add(1)
	return c.Cutter.Inside(p)
}

// checkHoleMapAgainstRef queries the center of every cell, in a different
// shuffled order from each of 8 goroutines racing on first touch, and
// requires the answer the eager classification implies: a uniform cell
// answers from the map, a mixed cell falls back to the cutter.
func checkHoleMapAgainstRef(t *testing.T, hm *HoleMap, res int) {
	t.Helper()
	want := refRebuildStates(hm, res)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for _, n := range rand.New(rand.NewSource(seed)).Perm(len(want)) {
				i, j, k := n%res, n/res%res, n/(res*res)
				p := geom.Vec3{
					X: hm.origin.X + (float64(i)+0.5)*hm.delta.X,
					Y: hm.origin.Y + (float64(j)+0.5)*hm.delta.Y,
					Z: hm.origin.Z + (float64(k)+0.5)*hm.delta.Z,
				}
				inside, fellBack := hm.lookup(p)
				wantIn, wantFell := want[n] == 1, want[n] == 2
				if wantFell {
					wantIn = hm.cutter.Inside(p)
				}
				if inside != wantIn || fellBack != wantFell {
					t.Errorf("cell (%d,%d,%d): lookup = (%v, fallback %v), reference state %d wants (%v, fallback %v)",
						i, j, k, inside, fellBack, want[n], wantIn, wantFell)
					return
				}
				if hm.InsideQuiet(p) != wantIn {
					t.Errorf("cell (%d,%d,%d): InsideQuiet != %v", i, j, k, wantIn)
					return
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}

// TestHoleMapRebuildEquivalence compares the on-demand classification
// against the naive probe-per-cell form for every cutter type and several
// resolutions: freshly built, rebuilt after a transform (the moving-body
// path, into the reused memo), and rebuilt again at the same placement.
func TestHoleMapRebuildEquivalence(t *testing.T) {
	cutters := []struct {
		name string
		c    Cutter
	}{
		{"airfoil", NewAirfoilCutter(0.02)},
		{"revolved", NewRevolvedCutter(gridgen.OgiveProfile(3, 0.25), 0.05)},
		{"ellipsoid", NewEllipsoidCutter(1, 0.4, 0.25, 0.03)},
		{"box", NewBoxCutter(geom.Box{
			Min: geom.Vec3{X: -0.5, Y: -0.2, Z: -0.1},
			Max: geom.Vec3{X: 0.5, Y: 0.3, Z: 0.4}})},
	}
	for _, tc := range cutters {
		for _, res := range []int{2, 7, 24} {
			t.Run(fmt.Sprintf("%s/res%d", tc.name, res), func(t *testing.T) {
				hm := NewHoleMap(tc.c, res)
				checkHoleMapAgainstRef(t, hm, res)
				tc.c.SetTransform(geom.Transform{
					R: geom.RotZ(0.2),
					T: geom.Vec3{X: 0.3, Y: -0.1, Z: 0.05},
				})
				hm.Rebuild(res)
				checkHoleMapAgainstRef(t, hm, res)
				hm.Rebuild(res)
				checkHoleMapAgainstRef(t, hm, res)
				tc.c.SetTransform(geom.IdentityTransform())
			})
		}
	}
}

// TestHoleMapProbesOnDemand pins the cost model: one query probes at most
// its cell's nine samples, the whole lattice costs exactly the eager
// rebuild's probes (each corner and each center once), and a classified
// cell costs nothing but the mixed-cell fallback.
func TestHoleMapProbesOnDemand(t *testing.T) {
	const res = 12
	cc := &countingCutter{Cutter: NewEllipsoidCutter(1, 0.4, 0.25, 0.03)}
	hm := NewHoleMap(cc, res)
	if n := cc.probes.Load(); n != 0 {
		t.Fatalf("building the map probed the cutter %d times, want 0", n)
	}
	hm.Inside(hm.Bounds().Center())
	if n := cc.probes.Load(); n > 9+1 {
		t.Fatalf("first query probed the cutter %d times, want at most 9 and a fallback", n)
	}
	sweep := func() {
		for k := 0; k < res; k++ {
			for j := 0; j < res; j++ {
				for i := 0; i < res; i++ {
					hm.Inside(geom.Vec3{
						X: hm.origin.X + (float64(i)+0.5)*hm.delta.X,
						Y: hm.origin.Y + (float64(j)+0.5)*hm.delta.Y,
						Z: hm.origin.Z + (float64(k)+0.5)*hm.delta.Z,
					})
				}
			}
		}
	}
	hm.Rebuild(res)
	hm.Queries, hm.Fallbacks = 0, 0
	cc.probes.Store(0)
	sweep()
	eager := int64(res*res*res + (res+1)*(res+1)*(res+1))
	if hm.Queries != res*res*res || hm.Fallbacks == 0 {
		t.Fatalf("Queries = %d, Fallbacks = %d after one sweep", hm.Queries, hm.Fallbacks)
	}
	if got := cc.probes.Load() - int64(hm.Fallbacks); got != eager {
		t.Fatalf("classifying every cell took %d probes, eager rebuild takes %d", got, eager)
	}
	cc.probes.Store(0)
	fallbacks := hm.Fallbacks
	sweep()
	if got, want := cc.probes.Load(), int64(hm.Fallbacks-fallbacks); got != want {
		t.Fatalf("second sweep probed %d times, want only its %d fallbacks", got, want)
	}
}

// TestHoleMapMemoFollowsPlacement checks when Config drops a map's memo: a
// static body's map and a moving body's map whose grid stayed put keep
// theirs, a moved grid's map is re-placed and reclassified.
func TestHoleMapMemoFollowsPlacement(t *testing.T) {
	g := gridgen.CartesianBox(0, "bg", 20, 20, 1,
		geom.Box{Min: geom.Vec3{X: -2, Y: -2}, Max: geom.Vec3{X: 2, Y: 2}})
	body := gridgen.Annulus(1, "body", 16, 4, 0, 0, 0.5, 1)
	still := &countingCutter{Cutter: NewBoxCutter(geom.Box{
		Min: geom.Vec3{X: -1.5, Y: -1.5, Z: -1}, Max: geom.Vec3{X: -1, Y: -1, Z: 1}})}
	mover := &countingCutter{Cutter: NewEllipsoidCutter(0.5, 0.5, 1, 0)}
	cfg := &Config{
		Sys: &grid.System{Grids: []*grid.Grid{g, body}},
		Cutters: []*BodyCutter{
			{Cutter: still, FollowGrid: -1},
			{Cutter: mover, OwnGrids: []int{1}, FollowGrid: 1},
		},
		Search: map[int][]int{}, FringeDepth: 1, HoleMapRes: 8,
	}
	cut := func() (holes int, stillProbes, moverProbes int64) {
		still.probes.Store(0)
		mover.probes.Store(0)
		for _, bc := range cfg.Cutters {
			if hm := bc.HoleMap(); hm != nil {
				hm.Fallbacks = 0
			}
		}
		cfg.CutHoles()
		// Mixed-cell fallbacks are per query, not memoised.
		return g.CountIBlank(grid.IBHole),
			still.probes.Load() - int64(cfg.Cutters[0].HoleMap().Fallbacks),
			mover.probes.Load() - int64(cfg.Cutters[1].HoleMap().Fallbacks)
	}
	holes0, s0, m0 := cut()
	if holes0 == 0 || s0 == 0 || m0 == 0 {
		t.Fatalf("first cut: %d holes, %d and %d classification probes", holes0, s0, m0)
	}
	holes1, s1, m1 := cut()
	if holes1 != holes0 || s1 != 0 || m1 != 0 {
		t.Fatalf("unmoved recut: %d holes (was %d), %d and %d classification probes, want 0",
			holes1, holes0, s1, m1)
	}
	body.ApplyTransform(geom.Transform{R: geom.Identity3(), T: geom.Vec3{X: 0.7}})
	_, s2, m2 := cut()
	if s2 != 0 || m2 == 0 {
		t.Fatalf("after the body moved: %d static and %d moving classification probes", s2, m2)
	}
	direct := &Config{Sys: cfg.Sys, Cutters: []*BodyCutter{
		{Cutter: still.Cutter, FollowGrid: -1},
		{Cutter: mover.Cutter, OwnGrids: []int{1}, FollowGrid: 1},
	}, Search: map[int][]int{}}
	mapped := append([]int8(nil), g.IBlank...)
	direct.CutHoles()
	for n := range mapped {
		if mapped[n] != g.IBlank[n] {
			t.Fatalf("point %d: mapped cut %d != direct cut %d after the move", n, mapped[n], g.IBlank[n])
		}
	}
}

// refAdjacentToNonField is the per-point fringe test AppendFringeLayer
// replaced: (i,j,k) neighbors a hole (layer 0) or a fringe (later layers)
// across the six index directions.
func refAdjacentToNonField(g *grid.Grid, i, j, k, layer int) bool {
	var want int8 = grid.IBHole
	if layer > 0 {
		want = grid.IBFringe
	}
	check := func(ii, jj, kk int) bool {
		if g.PeriodicI() {
			ii = ((ii % g.NI) + g.NI) % g.NI
		}
		if ii < 0 || ii >= g.NI || jj < 0 || jj >= g.NJ || kk < 0 || kk >= g.NK {
			return false
		}
		return g.IBlank[g.Idx(ii, jj, kk)] == want
	}
	if check(i-1, j, k) || check(i+1, j, k) || check(i, j-1, k) || check(i, j+1, k) {
		return true
	}
	if g.NK > 1 && (check(i, j, k-1) || check(i, j, k+1)) {
		return true
	}
	return false
}

// TestFringeLayerKernelEquivalence compares the row kernel with the
// per-point reference over random iblank fields on a periodic O-grid, a
// 2-D grid, 3-D grids (periodic and not) and one-point-wide grids, for the
// whole grid, an interior box, slabs touching each of the six faces and
// one-point boxes, layers 0 and 1.
func TestFringeLayerKernelEquivalence(t *testing.T) {
	unit := geom.Box{Max: geom.Vec3{X: 1, Y: 1, Z: 1}}
	grids := []*grid.Grid{
		gridgen.Annulus(0, "ogrid", 24, 7, 0, 0, 1, 3),
		gridgen.CartesianBox(1, "2d", 9, 8, 1, unit),
		gridgen.CartesianBox(2, "3d", 7, 6, 5, unit),
		gridgen.BodyOfRevolutionGrid(3, "3d-periodic", 8, 5, 6, gridgen.OgiveProfile(3, 0.25), 2),
		grid.New(4, "column", 1, 4, 3),
		grid.New(5, "pair", 2, 1, 1),
	}
	grids[5].BCs[grid.IMin], grids[5].BCs[grid.IMax] = grid.BCPeriodic, grid.BCPeriodic
	rng := rand.New(rand.NewSource(11))
	for _, g := range grids {
		full := g.Full()
		boxes := []grid.IBox{full,
			{ILo: 0, IHi: 0, JLo: 0, JHi: 0, KLo: 0, KHi: 0},
			{ILo: g.NI - 1, IHi: g.NI - 1, JLo: g.NJ - 1, JHi: g.NJ - 1, KLo: g.NK - 1, KHi: g.NK - 1},
			full.Intersect(grid.IBox{ILo: 1, IHi: g.NI - 2, JLo: 1, JHi: g.NJ - 2, KLo: 1, KHi: g.NK - 2}),
		}
		for f := grid.IMin; f <= grid.KMax; f++ {
			slab := full
			switch f {
			case grid.IMin:
				slab.IHi = min(1, g.NI-1)
			case grid.IMax:
				slab.ILo = max(g.NI-2, 0)
			case grid.JMin:
				slab.JHi = min(1, g.NJ-1)
			case grid.JMax:
				slab.JLo = max(g.NJ-2, 0)
			case grid.KMin:
				slab.KHi = min(1, g.NK-1)
			case grid.KMax:
				slab.KLo = max(g.NK-2, 0)
			}
			boxes = append(boxes, slab)
		}
		for trial := 0; trial < 20; trial++ {
			for n := range g.IBlank {
				g.IBlank[n] = []int8{grid.IBHole, grid.IBField, grid.IBField, grid.IBFringe}[rng.Intn(4)]
			}
			for _, box := range boxes {
				for layer := 0; layer <= 1; layer++ {
					var want []int
					for k := box.KLo; k <= box.KHi; k++ {
						for j := box.JLo; j <= box.JHi; j++ {
							for i := box.ILo; i <= box.IHi; i++ {
								if g.IBlank[g.Idx(i, j, k)] == grid.IBField && refAdjacentToNonField(g, i, j, k, layer) {
									want = append(want, g.Idx(i, j, k))
								}
							}
						}
					}
					got := AppendFringeLayer(nil, g, box, layer)
					if !slices.Equal(got, want) {
						t.Fatalf("%s box %v layer %d: row kernel marks %v, reference %v",
							g.Name, box, layer, got, want)
					}
				}
			}
		}
	}
}

// TestInvertCellMatchesTrilerp closes the loop on real grid cells: the
// coordinates invertCell finds must reproduce the probe position through
// the retained naive trilerp.
func TestInvertCellMatchesTrilerp(t *testing.T) {
	g := gridgen.Annulus(0, "ring", 64, 16, 0, 0, 1, 3)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		ang := 2 * math.Pi * rng.Float64()
		rad := 1.05 + 1.9*rng.Float64()
		probe := geom.Vec3{X: rad * math.Cos(ang), Y: rad * math.Sin(ang)}
		res := FindDonor(g, 0, probe, [3]int{0, 0, 0})
		if !res.OK {
			continue
		}
		d := res.Donor
		var p [8]geom.Vec3
		for dk := 0; dk <= 0; dk++ {
			for dj := 0; dj <= 1; dj++ {
				for di := 0; di <= 1; di++ {
					p[di+2*dj+4*dk] = cornerPoint(g, d.I+di, d.J+dj, d.K+dk)
				}
			}
		}
		for m := 0; m < 4; m++ {
			p[m+4] = p[m].Add(geom.Vec3{Z: 1})
		}
		pos := trilerp(p, d.A, d.B, d.C)
		if pos.Sub(probe).Norm() > 1e-8 {
			t.Fatalf("trial %d: donor cell (%d,%d,%d) at (%g,%g,%g) maps to %+v, probe %+v",
				trial, d.I, d.J, d.K, d.A, d.B, d.C, pos, probe)
		}
	}
}

// refFindDonorLimited is the one-piece limited donor search that WalkLimited
// and Resolve replaced: the same walk with the IBlank test of the containing
// cell in the middle of it.
func refFindDonorLimited(g *grid.Grid, gi int, x geom.Vec3, start [3]int, box grid.IBox, restartBudget int) LimitedResult {
	if g.Cartesian && !g.Moving {
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
	stuckAt := func(steps int) LimitedResult {
		if retries >= restartBudget {
			return LimitedResult{SearchResult: SearchResult{Steps: steps}, Restarts: retries}
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
			return LimitedResult{
				SearchResult: SearchResult{Steps: steps},
				Exited:       true,
				ExitCell:     jump,
				Restarts:     retries,
			}
		}
		i, j, k = jump[0], jump[1], jump[2]
		return LimitedResult{SearchResult: SearchResult{Steps: -1}} // sentinel: continue
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
			if cellIsField(g, i, j, k) {
				return LimitedResult{SearchResult: SearchResult{
					Donor: Donor{Grid: gi, I: i, J: j, K: k,
						A: clamp01(a), B: clamp01(b), C: clamp01(c)},
					Steps: steps, OK: true,
				}}
			}
			return LimitedResult{SearchResult: SearchResult{Steps: steps}}
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
					return LimitedResult{
						SearchResult: SearchResult{Steps: steps},
						Exited:       true,
						ExitCell:     [3]int{i, j, k},
						Restarts:     retries,
					}
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
	return LimitedResult{SearchResult: SearchResult{Steps: steps}, Restarts: retries}
}

// TestWalkLimitedResolveMatchesReference: the coordinate part of the limited
// search followed by the IBlank part is the old search, field for field and
// bit for bit — over random points, starts, boxes and restart budgets on a
// periodic O-grid, a 3-D body-of-revolution grid, a non-periodic 2-D grid
// that walks and a Cartesian grid that resolves directly; and a walk taken
// under one IBlank field resolves under another as the old search run
// against that other field (the walk never read IBlank).
func TestWalkLimitedResolveMatchesReference(t *testing.T) {
	plate := gridgen.CartesianBox(0, "plate", 28, 22, 1,
		geom.Box{Min: geom.Vec3{X: -2, Y: -1}, Max: geom.Vec3{X: 3, Y: 2}})
	plate.Moving = true
	plate.ApplyTransform(geom.Transform{R: geom.RotZ(0.3), T: geom.Vec3{X: 0.2, Y: -0.1}})
	grids := map[string]*grid.Grid{
		"ring":  gridgen.Annulus(0, "ring", 64, 16, 0.1, -0.2, 0.8, 4),
		"store": gridgen.BodyOfRevolutionGrid(0, "store", 24, 12, 20, gridgen.OgiveProfile(4, 0.4), 2.5),
		"plate": plate,
		"bg": gridgen.CartesianBox(0, "bg", 18, 14, 10,
			geom.Box{Min: geom.Vec3{X: -3, Y: -3, Z: -3}, Max: geom.Vec3{X: 5, Y: 3, Z: 3}}),
	}
	same := func(a, b LimitedResult) bool {
		return a.OK == b.OK && a.Steps == b.Steps && a.Exited == b.Exited &&
			a.ExitCell == b.ExitCell && a.Restarts == b.Restarts &&
			a.Donor.Grid == b.Donor.Grid && a.Donor.I == b.Donor.I && a.Donor.J == b.Donor.J && a.Donor.K == b.Donor.K &&
			math.Float64bits(a.Donor.A) == math.Float64bits(b.Donor.A) &&
			math.Float64bits(a.Donor.B) == math.Float64bits(b.Donor.B) &&
			math.Float64bits(a.Donor.C) == math.Float64bits(b.Donor.C)
	}
	for name, g := range grids {
		rng := rand.New(rand.NewSource(int64(len(name)) * 7919))
		blank := func(frac float64) {
			for n := range g.IBlank {
				g.IBlank[n] = grid.IBField
				if rng.Float64() < frac {
					g.IBlank[n] = grid.IBHole
				}
			}
		}
		bounds := g.Bounds()
		size := bounds.Size()
		// A subdomain holds at least one cell base: its low point index is
		// never the grid's last.
		span := func(n int) (lo, hi int) {
			lo, hi = rng.Intn(n), rng.Intn(n)
			return min(lo, hi, max(n-2, 0)), max(lo, hi)
		}
		outcomes := map[string]int{}
		for trial := 0; trial < 3000; trial++ {
			// Points inside and a little outside the grid's bounds.
			x := geom.Vec3{
				X: bounds.Min.X + size.X*(1.2*rng.Float64()-0.1),
				Y: bounds.Min.Y + size.Y*(1.2*rng.Float64()-0.1),
				Z: bounds.Min.Z + size.Z*(1.2*rng.Float64()-0.1),
			}
			box := g.Full()
			if trial%3 != 0 {
				box.ILo, box.IHi = span(g.NI)
				box.JLo, box.JHi = span(g.NJ)
				box.KLo, box.KHi = span(g.NK)
			}
			// Starts in and out of range: the search clamps them.
			start := [3]int{rng.Intn(g.NI+4) - 2, rng.Intn(g.NJ+4) - 2, rng.Intn(g.NK+4) - 2}
			budget := rng.Intn(5) - 1
			gi := rng.Intn(5)

			blank(0.02)
			want := refFindDonorLimited(g, gi, x, start, box, budget)
			got := FindDonorLimited(g, gi, x, start, box, budget)
			if !same(got, want) {
				t.Fatalf("%s trial %d: FindDonorLimited %+v, reference %+v", name, trial, got, want)
			}
			switch {
			case want.OK:
				outcomes["donor"]++
			case want.Exited:
				outcomes["exit"]++
			default:
				outcomes["fail"]++
			}
			if ResolvesDirectly(g) {
				continue
			}
			w := WalkLimited(g, gi, x, start, box, budget)
			blank(0.3)
			want = refFindDonorLimited(g, gi, x, start, box, budget)
			if got := w.Resolve(g); !same(got, want) {
				t.Fatalf("%s trial %d: walk resolved under a later IBlank %+v, reference %+v", name, trial, got, want)
			}
			if w.Contained && !want.OK {
				outcomes["blanked"]++
			}
		}
		for _, o := range []string{"donor", "exit", "fail", "blanked"} {
			if outcomes[o] == 0 && !(o == "blanked" && ResolvesDirectly(g)) {
				t.Errorf("%s: no trial ended in %q (%v)", name, o, outcomes)
			}
		}
	}
}
