package flow

import (
	"math"

	"overd/internal/grid"
	"overd/internal/par"
)

// DefaultCFL is the implicit-scheme timestep factor used when a case does
// not specify its own. The paper notes the timestep is "most often governed
// by stability conditions of the flow solver" and chosen so donor cells
// move at most one receiver cell per step.
const DefaultCFL = 5.0

// MaxDTLocal returns the largest stable local timestep of this block,
// CFL / max(σξ+ση+σζ), with the Jacobian-scaled spectral radii. The caller
// reduces this across ranks (AllReduce) for the global timestep.
func (b *Block) MaxDTLocal(cfl float64) float64 {
	b.ensureScratch()
	s := b.scr
	minDT := math.Inf(1)
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	b.eachInterior(func(p int) {
		if !s.upd[p] {
			return
		}
		sum := 0.0
		q := b.QAt(p)
		for d := 0; d < ndir; d++ {
			kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
			kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
			sum += SpectralRadius(q, kx, ky, kz, kt)
		}
		sum *= b.Jac[p] // convert to inverse time: σ per index unit × J
		if sum > 0 {
			if dt := cfl / sum; dt < minDT {
				minDT = dt
			}
		}
	})
	return minDT
}

// FlowStep advances the block one implicit timestep. It performs, in order:
// halo exchange of Q, physical boundary conditions, the Baldwin-Lomax eddy
// viscosity (turbulent grids), the explicit residual, the diagonalized ADI
// factorization with pipelined line solves, the conserved update, and a
// final boundary-condition pass. All compute is charged to the rank's
// virtual clock; communication is charged by the messaging layer.
func (b *Block) FlowStep(r *par.Rank, dt float64) {
	r.SetWorkingSet(b.WorkingSetBytes())
	b.ExchangeHalo(r)
	r.Compute(b.ApplyBCs())
	r.Compute(b.ComputeTurbulence())
	r.Compute(b.ComputeRHS(dt))
	r.Compute(b.SolveADI(r, dt))
	r.Compute(b.ApplyUpdate())
	r.Compute(b.ApplyBCs())
	sweeps := 3
	if b.TwoD {
		sweeps = 2
	}
	publishFlowStepMetrics(r, sweeps)
}

// SetFringe stores interpolated conserved data at a fringe point given in
// parent-grid indices. Used by the connectivity module.
func (b *Block) SetFringe(i, j, k int, q [5]float64) bool {
	li, lj, lk := b.Local(i, j, k)
	if li < Halo || li >= b.MI-Halo || lj < Halo || lj >= b.MJ-Halo {
		return false
	}
	if !b.TwoD && (lk < Halo || lk >= b.MK-Halo) {
		return false
	}
	b.SetQ(b.LIdx(li, lj, lk), q)
	return true
}

// QAtGlobal returns the conserved state at parent-grid indices, and whether
// the point is owned by this block.
func (b *Block) QAtGlobal(i, j, k int) ([5]float64, bool) {
	if !b.Own.Contains(i, j, clampK(b, k)) {
		return [5]float64{}, false
	}
	li, lj, lk := b.Local(i, j, k)
	return b.QAt(b.LIdx(li, lj, lk)), true
}

func clampK(b *Block, k int) int {
	if b.TwoD {
		return 0
	}
	return k
}

// InterpolateCell evaluates the trilinear interpolation of Q within the
// donor cell whose lowest corner is parent-grid point (i,j,k), at local
// cell coordinates (a,b,c) in [0,1]^3 (c ignored on 2-D blocks). All eight
// (four in 2-D) corner points must be owned or lie in the halo.
func (b *Block) InterpolateCell(i, j, k int, a, bb, c float64) ([5]float64, bool) {
	var out [5]float64
	corners := 8
	if b.TwoD {
		corners = 4
		c = 0
	}
	for m := 0; m < corners; m++ {
		di, dj, dk := m&1, (m>>1)&1, (m>>2)&1
		w := wgt(a, di) * wgt(bb, dj) * wgt(c, dk)
		if w == 0 {
			continue
		}
		ii, jj, kk := i+di, j+dj, k+dk
		li, lj, lk := b.Local(ii, jj, kk)
		if b.G.PeriodicI() && (li < 0 || li >= b.MI) {
			// Donor cells spanning the periodic seam: the wrapped image
			// of the corner may live in this block or its halo.
			for _, alt := range [2]int{ii - b.G.NI, ii + b.G.NI} {
				if l := alt - b.Own.ILo + Halo; l >= 0 && l < b.MI {
					li = l
					break
				}
			}
		}
		if li < 0 || li >= b.MI || lj < 0 || lj >= b.MJ {
			return out, false
		}
		if !b.TwoD && (lk < 0 || lk >= b.MK) {
			return out, false
		}
		p := b.LIdx(li, lj, lk)
		if b.IBl[p] == grid.IBHole {
			return out, false
		}
		for cq := 0; cq < 5; cq++ {
			out[cq] += w * b.Q[5*p+cq]
		}
	}
	return out, true
}

func wgt(f float64, d int) float64 {
	if d == 1 {
		return f
	}
	return 1 - f
}
