package flow

import (
	"fmt"

	"overd/internal/geom"
	"overd/internal/grid"
)

// Halo is the ghost-layer width required by the second-order central
// differences plus fourth-order dissipation stencils.
const Halo = 2

// Neighbor links one face of a block to the adjacent rank of the same
// component grid.
type Neighbor struct {
	// Rank owning the adjacent subdomain, or -1 for none.
	Rank int
	// Wrap marks the periodic seam (O-grid closure): indices wrap modulo
	// the grid extent across this face.
	Wrap bool
}

// Block is the rank-local piece of one component grid: the owned index box
// plus ghost layers, with all solver state. Array index (li,lj,lk) covers
// [0,MI) x [0,MJ) x [0,MK) where li = i - Own.ILo + Halo.
type Block struct {
	// G is the parent component grid (read-only shared geometry source).
	G *grid.Grid
	// Own is the owned point range in the parent's index space.
	Own grid.IBox
	// FS is the freestream condition.
	FS Freestream

	// MI, MJ, MK are local array dims including ghosts.
	MI, MJ, MK int

	// Q holds conserved variables, 5 per point, interleaved.
	Q []float64
	// DQ is the implicit update workspace (5 per point): ΔQ from SolveADI
	// until ApplyUpdate, scratch for ComputeRHS otherwise.
	DQ []float64
	// RHS is the residual workspace (5 per point).
	RHS []float64

	// XL, YL, ZL are local world-frame coordinates with ghosts.
	XL, YL, ZL []float64
	// XT, YT, ZT are grid-point velocities (zero for static grids).
	XT, YT, ZT []float64
	// Met holds 9 metric components per point, scaled by 1/J:
	// [ξx ξy ξz ηx ηy ηz ζx ζy ζz]/J, and Jac holds J (points/volume).
	Met []float64
	Jac []float64
	// IBl is the local iblank state with ghosts (ghosts outside the grid
	// are marked hole so stencil logic treats them as invalid).
	IBl []int8

	// MuT is the Baldwin-Lomax eddy viscosity (allocated when Turbulent).
	MuT []float64

	// Nbr gives the neighboring rank across each local face
	// ([dim][0]=low side, [dim][1]=high side).
	Nbr [3][2]Neighbor

	// TwoD marks planar blocks (parent NK == 1): the ζ direction is
	// inactive and w ≡ 0.
	TwoD bool

	// viscDirs selects which directions carry viscous terms (set by the
	// driver; defaults to wall-normal η for viscous grids).
	viscDirs [3]bool

	// ar, when non-nil, holds the world-shared per-rank envelope arenas and
	// spares (see UseArenas); rank is the block's index in them, -1 for a
	// block built outside any decomposition.
	ar   *Arenas
	rank int

	// store is the part of the memory the block was built in (see StoreLen)
	// not yet carved into arrays: the scratch, until ensureScratch takes it.
	store []float64

	scr *scratch
}

// Floats per local point that a block carves from its store: the solver
// state taken at construction (Q, DQ, RHS, XL…ZT, Met, Jac; MuT on turbulent
// grids adds one) and the scratch taken at first use (fw, pr, prim, sig,
// rhs0, cpAll).
const (
	stateFloats   = 5 + 5 + 5 + 6 + 9 + 1
	scratchFloats = 5 + 1 + 4 + 3 + 5 + 5
)

// localDims returns the local array dims, ghosts included, of the block
// over box own of grid g.
func localDims(g *grid.Grid, own grid.IBox) (mi, mj, mk int) {
	mi = own.NI() + 2*Halo
	mj = own.NJ() + 2*Halo
	mk = own.NK() + 2*Halo
	if g.NK == 1 {
		mk = 1
	}
	return mi, mj, mk
}

// StoreLen returns the size in float64 values of the store a block over box
// own of grid g is built in — the solver state it carves at construction
// plus the scratch it carves at first use — so a caller can lay out one
// piece of memory for many blocks before any is built. An invalid box, which
// no block can be built over, takes nothing.
func StoreLen(g *grid.Grid, own grid.IBox) int {
	if !own.Valid() {
		return 0
	}
	mi, mj, mk := localDims(g, own)
	per := stateFloats + scratchFloats
	if g.Turbulent {
		per++
	}
	return per * mi * mj * mk
}

// NewBlock allocates the solver state for the given owned box of grid g, in
// a store of its own.
func NewBlock(g *grid.Grid, own grid.IBox, fs Freestream) *Block {
	return newBlock(g, own, fs, make([]float64, StoreLen(g, own)))
}

// newBlock builds the block inside store, which must hold exactly
// StoreLen(g, own) zeros and which the block keeps.
func newBlock(g *grid.Grid, own grid.IBox, fs Freestream, store []float64) *Block {
	if !own.Valid() {
		panic(fmt.Sprintf("flow: invalid owned box %v", own))
	}
	b := &Block{G: g, Own: own, FS: fs, TwoD: g.NK == 1, rank: -1}
	b.MI, b.MJ, b.MK = localDims(g, own)
	n := b.MI * b.MJ * b.MK
	if want := StoreLen(g, own); len(store) != want {
		panic(fmt.Sprintf("flow: store of %d values for a block that takes %d", len(store), want))
	}
	b.store = store[:len(store):len(store)]
	b.Q = b.take(5 * n)
	b.DQ = b.take(5 * n)
	b.RHS = b.take(5 * n)
	b.XL = b.take(n)
	b.YL = b.take(n)
	b.ZL = b.take(n)
	b.XT = b.take(n)
	b.YT = b.take(n)
	b.ZT = b.take(n)
	b.Met = b.take(9 * n)
	b.Jac = b.take(n)
	b.IBl = make([]int8, n)
	if g.Turbulent {
		b.MuT = b.take(n)
	}
	for d := 0; d < 3; d++ {
		b.Nbr[d][0].Rank = -1
		b.Nbr[d][1].Rank = -1
	}
	b.RefreshGeometry(0)
	b.InitFreestream()
	return b
}

// take carves the next n values off the block's store; taking more than
// StoreLen in all panics.
func (b *Block) take(n int) []float64 {
	v := b.store[:n:n]
	b.store = b.store[n:]
	return v
}

// NPointsLocal returns the local array size including ghosts.
func (b *Block) NPointsLocal() int { return b.MI * b.MJ * b.MK }

// NOwned returns the number of owned (non-ghost) points.
func (b *Block) NOwned() int { return b.Own.Count() }

// LIdx maps local indices to the flat offset.
func (b *Block) LIdx(li, lj, lk int) int { return li + b.MI*(lj+b.MJ*lk) }

// Local converts parent-grid indices to local indices.
func (b *Block) Local(i, j, k int) (li, lj, lk int) {
	if b.TwoD {
		return i - b.Own.ILo + Halo, j - b.Own.JLo + Halo, 0
	}
	return i - b.Own.ILo + Halo, j - b.Own.JLo + Halo, k - b.Own.KLo + Halo
}

// GlobalFromLocal converts local indices to parent-grid indices (possibly
// outside the grid for ghosts).
func (b *Block) GlobalFromLocal(li, lj, lk int) (i, j, k int) {
	if b.TwoD {
		return li - Halo + b.Own.ILo, lj - Halo + b.Own.JLo, 0
	}
	return li - Halo + b.Own.ILo, lj - Halo + b.Own.JLo, lk - Halo + b.Own.KLo
}

// kLo and kHi give the local loop bounds of owned points in k.
func (b *Block) kBounds() (lo, hi int) {
	if b.TwoD {
		return 0, 0
	}
	return Halo, Halo + b.Own.NK() - 1
}

// InitFreestream fills Q with the freestream state everywhere.
func (b *Block) InitFreestream() {
	qf := b.FS.Conserved()
	n := b.NPointsLocal()
	for p := 0; p < n; p++ {
		for c := 0; c < 5; c++ {
			b.Q[5*p+c] = qf[c]
		}
	}
}

// RefreshGeometry recomputes local coordinates, grid velocities and metrics
// from the parent grid's current (world-frame) coordinates. dt > 0 computes
// grid-point velocities by backward difference against the previous local
// coordinates; dt == 0 (initialization) leaves velocities zero.
func (b *Block) RefreshGeometry(dt float64) {
	g := b.G
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				i, j, k := b.GlobalFromLocal(li, lj, lk)
				p := b.clampedPoint(i, j, k)
				n := b.LIdx(li, lj, lk)
				if dt > 0 && g.Moving {
					b.XT[n] = (p.X - b.XL[n]) / dt
					b.YT[n] = (p.Y - b.YL[n]) / dt
					b.ZT[n] = (p.Z - b.ZL[n]) / dt
				}
				b.XL[n], b.YL[n], b.ZL[n] = p.X, p.Y, p.Z
			}
		}
	}
	b.computeMetrics()
	b.refreshIBlank()
}

// clampedPoint returns the world position of grid point (i,j,k), handling
// periodic wrap in i and linear extrapolation outside physical boundaries
// (ghost coordinates only feed metric stencils).
func (b *Block) clampedPoint(i, j, k int) geom.Vec3 {
	g := b.G
	if g.PeriodicI() {
		i = ((i % g.NI) + g.NI) % g.NI
	}
	ci := clampInt(i, 0, g.NI-1)
	cj := clampInt(j, 0, g.NJ-1)
	ck := clampInt(k, 0, g.NK-1)
	p := g.At(ci, cj, ck)
	// Linear extrapolation for out-of-range indices.
	if ci != i {
		d := g.At(ci, cj, ck).Sub(g.At(clampInt(2*ci-i, 0, g.NI-1), cj, ck))
		p = p.Add(d)
	}
	if cj != j {
		d := g.At(ci, cj, ck).Sub(g.At(ci, clampInt(2*cj-j, 0, g.NJ-1), ck))
		p = p.Add(d)
	}
	if ck != k {
		d := g.At(ci, cj, ck).Sub(g.At(ci, cj, clampInt(2*ck-k, 0, g.NK-1)))
		p = p.Add(d)
	}
	return p
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// refreshIBlank copies the parent grid's iblank state into the local array;
// ghost points outside the physical grid are marked as holes.
func (b *Block) refreshIBlank() {
	g := b.G
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				i, j, k := b.GlobalFromLocal(li, lj, lk)
				if g.PeriodicI() {
					i = ((i % g.NI) + g.NI) % g.NI
				}
				n := b.LIdx(li, lj, lk)
				if i < 0 || i >= g.NI || j < 0 || j >= g.NJ || k < 0 || k >= g.NK {
					b.IBl[n] = grid.IBHole
					continue
				}
				b.IBl[n] = g.IBlank[g.Idx(i, j, k)]
			}
		}
	}
}

// computeMetrics evaluates the inverse-Jacobian-scaled metrics by central
// differences of the local coordinates. 2-D blocks use a unit ζ direction.
// Interior points (the vast majority) take an inlined central-difference
// fast path; edges fall back to the general one-sided stencil in diff.
func (b *Block) computeMetrics() {
	xl, yl, zl := b.XL, b.YL, b.ZL
	strJ := b.MI
	strK := b.MI * b.MJ
	twoD := b.TwoD
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				n := b.LIdx(li, lj, lk)
				var m geom.Mat3 // rows: d(x,y,z)/dξ, /dη, /dζ as columns... see below
				if li > 0 && li < b.MI-1 {
					im, ip := n-1, n+1
					m[0][0] = (xl[ip] - xl[im]) * 0.5
					m[1][0] = (yl[ip] - yl[im]) * 0.5
					m[2][0] = (zl[ip] - zl[im]) * 0.5
				} else {
					m[0][0], m[1][0], m[2][0] = b.diff(li, lj, lk, 0)
				}
				if lj > 0 && lj < b.MJ-1 {
					im, ip := n-strJ, n+strJ
					m[0][1] = (xl[ip] - xl[im]) * 0.5
					m[1][1] = (yl[ip] - yl[im]) * 0.5
					m[2][1] = (zl[ip] - zl[im]) * 0.5
				} else {
					m[0][1], m[1][1], m[2][1] = b.diff(li, lj, lk, 1)
				}
				if twoD {
					m[0][2], m[1][2], m[2][2] = 0, 0, 1
				} else if lk > 0 && lk < b.MK-1 {
					im, ip := n-strK, n+strK
					m[0][2] = (xl[ip] - xl[im]) * 0.5
					m[1][2] = (yl[ip] - yl[im]) * 0.5
					m[2][2] = (zl[ip] - zl[im]) * 0.5
				} else {
					m[0][2], m[1][2], m[2][2] = b.diff(li, lj, lk, 2)
				}
				// m columns are x_ξ, x_η, x_ζ; rows x,y,z. Its inverse has
				// rows (ξx ξy ξz), (ηx ηy ηz), (ζx ζy ζz).
				// Inverse returns the identity for a singular m.
				inv, det, _ := m.InverseDet()
				if det < 1e-12 {
					det = 1e-12 // degenerate cell; metrics stay bounded
				}
				jac := 1 / det
				b.Jac[n] = jac
				// Store metrics divided by J: (1/J)∇ξ = det * inv rows.
				mp := b.Met[9*n : 9*n+9 : 9*n+9]
				mp[0] = inv[0][0] / jac
				mp[1] = inv[0][1] / jac
				mp[2] = inv[0][2] / jac
				mp[3] = inv[1][0] / jac
				mp[4] = inv[1][1] / jac
				mp[5] = inv[1][2] / jac
				mp[6] = inv[2][0] / jac
				mp[7] = inv[2][1] / jac
				mp[8] = inv[2][2] / jac
			}
		}
	}
}

// diff returns the one-sided/central difference of (x,y,z) along local
// direction d at the given local point.
func (b *Block) diff(li, lj, lk, d int) (dx, dy, dz float64) {
	var im, ip int
	switch d {
	case 0:
		lo, hi := 0, b.MI-1
		a, c := li-1, li+1
		h := 0.5
		if a < lo {
			a, h = li, 1
		}
		if c > hi {
			c, h = li, 1
		}
		if a == c {
			return 1, 0, 0
		}
		im, ip = b.LIdx(a, lj, lk), b.LIdx(c, lj, lk)
		return (b.XL[ip] - b.XL[im]) * h, (b.YL[ip] - b.YL[im]) * h, (b.ZL[ip] - b.ZL[im]) * h
	case 1:
		lo, hi := 0, b.MJ-1
		a, c := lj-1, lj+1
		h := 0.5
		if a < lo {
			a, h = lj, 1
		}
		if c > hi {
			c, h = lj, 1
		}
		if a == c {
			return 0, 1, 0
		}
		im, ip = b.LIdx(li, a, lk), b.LIdx(li, c, lk)
		return (b.XL[ip] - b.XL[im]) * h, (b.YL[ip] - b.YL[im]) * h, (b.ZL[ip] - b.ZL[im]) * h
	default:
		lo, hi := 0, b.MK-1
		a, c := lk-1, lk+1
		h := 0.5
		if a < lo {
			a, h = lk, 1
		}
		if c > hi {
			c, h = lk, 1
		}
		if a == c {
			return 0, 0, 1
		}
		im, ip = b.LIdx(li, lj, a), b.LIdx(li, lj, c)
		return (b.XL[ip] - b.XL[im]) * h, (b.YL[ip] - b.YL[im]) * h, (b.ZL[ip] - b.ZL[im]) * h
	}
}

// QAt returns the conserved state at a local point.
func (b *Block) QAt(n int) [5]float64 {
	return [5]float64{b.Q[5*n], b.Q[5*n+1], b.Q[5*n+2], b.Q[5*n+3], b.Q[5*n+4]}
}

// SetQ stores a conserved state at a local point.
func (b *Block) SetQ(n int, q [5]float64) {
	copy(b.Q[5*n:5*n+5], q[:])
}

// WorkingSetBytes estimates the block's resident solver state for the cache
// model: Q, DQ, RHS, metrics, coordinates and velocities.
func (b *Block) WorkingSetBytes() float64 {
	return float64(b.NPointsLocal()) * (5*3 + 9 + 1 + 6 + 1) * 8
}
