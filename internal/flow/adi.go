package flow

import (
	"fmt"
	"math"

	"overd/internal/par"
)

// The diagonalized approximate-factorization implicit scheme: the update
// ΔQ solves
//
//	(I + Δt·J·δξ·Âξ)(I + Δt·J·δη·Âη)(I + Δt·J·δζ·Âζ) ΔQ = RHS
//
// with each Jacobian replaced by T Λ T⁻¹, so a factor becomes a pointwise
// multiply by T⁻¹, five scalar tridiagonal line solves (first-order upwind
// implicit operator plus implicit smoothing), and a pointwise multiply by
// T. Lines crossing subdomain boundaries are solved with a pipelined Thomas
// algorithm: forward elimination flows down the rank chain, back
// substitution flows back, in line batches so successive batches overlap —
// implicitness is maintained across subdomains and convergence is
// independent of the partitioning (paper §2.1). Non-updatable points (holes,
// fringes, explicit boundaries) contribute identity rows, which decouples
// line segments exactly as Dirichlet conditions.

// implicit smoothing coefficient added to the scalar operators.
const implicitEps = 0.12

// pipeBatches is the number of line batches per boundary message used to
// overlap the pipelined sweeps.
const pipeBatches = 4

// SolveADI factors and applies the implicit operator in place: on entry
// b.RHS holds Δt·J·R; on return b.DQ holds ΔQ. Returns flops performed
// locally (communication time is charged through r directly). Between two
// directions' line solves T(d) and T⁻¹(d+1) are applied in one pointwise
// pass, so a 3-D sweep makes four passes, not six; each still charges the
// full eigensystem flop constant twice per direction — the accounting is
// per point, not per host instruction.
func (b *Block) SolveADI(r *par.Rank, dt float64) float64 {
	b.ensureScratch()
	copy(b.DQ, b.RHS)
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	lam := b.scr.fw // reuse flux workspace: 5 eigenvalues per point
	flops := float64(2*ndir*b.NOwned()) * (flopsEigenBuild + flopsEigenApply)
	b.eigenPass(-1, 0, dt, lam)
	for d := 0; d < ndir; d++ {
		flops += b.lineSolves(r, d, dt, lam)
		next := d + 1
		if next == ndir {
			next = -1
		}
		b.eigenPass(d, next, dt, lam)
	}
	return flops
}

// lineGeom describes the transverse point set of direction d without a
// closure (which would heap-allocate per sweep): line idx starts at
// base0 + (idx%nu)*strideU + (idx/nu)*strideV and holds count owned points
// stride apart. The enumeration order is identical to the old per-index
// (lj,lk) arithmetic.
type lineGeom struct {
	nLines, nu       int
	base0            int
	strideU, strideV int
	stride, count    int
}

// lineBase returns the first point of line idx.
func (lg *lineGeom) lineBase(idx int) int {
	return lg.base0 + (idx%lg.nu)*lg.strideU + (idx/lg.nu)*lg.strideV
}

func (b *Block) lineSet(d int) lineGeom {
	klo, khi := b.kBounds()
	nk := khi - klo + 1
	switch d {
	case 0:
		nj := b.MJ - 2*Halo
		return lineGeom{
			nLines: nj * nk, nu: nj,
			base0:   b.LIdx(Halo, Halo, klo),
			strideU: b.MI, strideV: b.MI * b.MJ,
			stride: 1, count: b.Own.NI(),
		}
	case 1:
		ni := b.MI - 2*Halo
		return lineGeom{
			nLines: ni * nk, nu: ni,
			base0:   b.LIdx(Halo, Halo, klo),
			strideU: 1, strideV: b.MI * b.MJ,
			stride: b.MI, count: b.Own.NJ(),
		}
	default:
		ni := b.MI - 2*Halo
		nj := b.MJ - 2*Halo
		return lineGeom{
			nLines: ni * nj, nu: ni,
			base0:   b.LIdx(Halo, Halo, Halo),
			strideU: 1, strideV: b.MI,
			stride: b.MI * b.MJ, count: b.Own.NK(),
		}
	}
}

// pipeMsg carries the Thomas recurrence state across a rank boundary for a
// batch of lines: forward messages hold (c', d') per line per component;
// backward messages hold the solved x per line per component. Envelopes are
// recycled (see par.Arena): the receiver copies Vals out and puts the
// envelope away, so steady-state sweeps allocate nothing per batch.
type pipeMsg struct {
	Dir   int
	Batch int
	Vals  []float64
}

// eigenPass is the pointwise half of the factorization: at every owned point
// it applies T(dT) to DQ (after dT's line solves) and then T⁻¹(dTi) (before
// dTi's), stashing dTi's Δt·J-scaled eigenvalues in lam (5 per point); a
// negative direction skips that half. The two halves share one load of DQ,
// the metrics and ρ, u, v, w, a, φ². Rows are the expressions of Eigen.Set
// (eigen_test.go), formed as scalars and accumulated as MulT/MulTi do
// (0 + t0·x0 + t1·x1 …).
// The opening pass (dT < 0) evaluates Primitive into the scratch cache, so a
// Q changed since ComputeRHS is seen; later passes read the cache.
func (b *Block) eigenPass(dT, dTi int, dt float64, lam []float64) {
	prim, prS := b.scr.prim, b.scr.pr
	met, dqs, jac := b.Met, b.DQ, b.Jac
	xt, yt, zt := b.XT, b.YT, b.ZT
	const g1 = Gamma - 1
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				pm := prim[4*p : 4*p+4 : 4*p+4]
				if dT < 0 {
					pm[0], pm[1], pm[2], pm[3], prS[p] = Primitive(b.QAt(p))
				}
				rho, u, v, w := pm[0], pm[1], pm[2], pm[3]
				a := SoundSpeed(rho, prS[p])
				aa := a * a
				phi2 := 0.5 * g1 * (u*u + v*v + w*w)
				dq := dqs[5*p : 5*p+5 : 5*p+5]
				x0, x1, x2, x3, x4 := dq[0], dq[1], dq[2], dq[3], dq[4]
				if dT >= 0 {
					mp := met[9*p+3*dT : 9*p+3*dT+3 : 9*p+3*dT+3]
					_, nx, ny, nz := unitNormal(mp[0], mp[1], mp[2])
					thN := nx*u + ny*v + nz*w
					alpha := rho / (math.Sqrt2 * a)
					h := (phi2 + aa) / g1
					y0 := 0.0 + nx*x0 + ny*x1 + nz*x2 + alpha*x3 + alpha*x4
					y1 := 0.0 + nx*u*x0 + (ny*u-nz*rho)*x1 + (nz*u+ny*rho)*x2 + alpha*(u+nx*a)*x3 + alpha*(u-nx*a)*x4
					y2 := 0.0 + (nx*v+nz*rho)*x0 + ny*v*x1 + (nz*v-nx*rho)*x2 + alpha*(v+ny*a)*x3 + alpha*(v-ny*a)*x4
					y3 := 0.0 + (nx*w-ny*rho)*x0 + (ny*w+nx*rho)*x1 + nz*w*x2 + alpha*(w+nz*a)*x3 + alpha*(w-nz*a)*x4
					y4 := 0.0 + (nx*phi2/g1+rho*(nz*v-ny*w))*x0 + (ny*phi2/g1+rho*(nx*w-nz*u))*x1 +
						(nz*phi2/g1+rho*(ny*u-nx*v))*x2 + alpha*(h+a*thN)*x3 + alpha*(h-a*thN)*x4
					x0, x1, x2, x3, x4 = y0, y1, y2, y3, y4
				}
				if dTi >= 0 {
					mp := met[9*p+3*dTi : 9*p+3*dTi+3 : 9*p+3*dTi+3]
					kx, ky, kz := mp[0], mp[1], mp[2]
					kt := -(kx*xt[p] + ky*yt[p] + kz*zt[p])
					gm, nx, ny, nz := unitNormal(kx, ky, kz)
					theta := kx*u + ky*v + kz*w + kt
					thN := nx*u + ny*v + nz*w
					beta := 1 / (math.Sqrt2 * rho * a)
					c0 := 1 - phi2/aa
					y0 := 0.0 + (nx*c0-(nz*v-ny*w)/rho)*x0 + nx*g1*u/aa*x1 + (nx*g1*v/aa+nz/rho)*x2 + (nx*g1*w/aa-ny/rho)*x3 + (-nx*g1/aa)*x4
					y1 := 0.0 + (ny*c0-(nx*w-nz*u)/rho)*x0 + (ny*g1*u/aa-nz/rho)*x1 + ny*g1*v/aa*x2 + (ny*g1*w/aa+nx/rho)*x3 + (-ny*g1/aa)*x4
					y2 := 0.0 + (nz*c0-(ny*u-nx*v)/rho)*x0 + (nz*g1*u/aa+ny/rho)*x1 + (nz*g1*v/aa-nx/rho)*x2 + nz*g1*w/aa*x3 + (-nz*g1/aa)*x4
					y3 := 0.0 + beta*(phi2-a*thN)*x0 + beta*(nx*a-g1*u)*x1 + beta*(ny*a-g1*v)*x2 + beta*(nz*a-g1*w)*x3 + beta*g1*x4
					y4 := 0.0 + beta*(phi2+a*thN)*x0 + beta*(-nx*a-g1*u)*x1 + beta*(-ny*a-g1*v)*x2 + beta*(-nz*a-g1*w)*x3 + beta*g1*x4
					x0, x1, x2, x3, x4 = y0, y1, y2, y3, y4
					jdt := jac[p] * dt
					lp := lam[5*p : 5*p+5 : 5*p+5]
					lp[0], lp[1], lp[2] = theta*jdt, theta*jdt, theta*jdt
					lp[3], lp[4] = (theta+a*gm)*jdt, (theta-a*gm)*jdt
				}
				dq[0], dq[1], dq[2], dq[3], dq[4] = x0, x1, x2, x3, x4
			}
		}
	}
}

// thomasRow advances one characteristic field's forward elimination across
// one row with sub-, main- and super-diagonal (am, bm, cm), right-hand side
// rm and the previous row's (c', d').
func thomasRow(am, bm, cm, rm, cPrev, dPrev float64) (c, d float64) {
	den := bm - am*cPrev
	if den == 0 {
		den = 1e-30
	}
	return cm / den, (rm - am*dPrev) / den
}

// upwindRow is thomasRow at an updatable point: first-order upwind implicit
// operator for scaled eigenvalue l plus implicit smoothing eps. The row is
// written out rather than passed to thomasRow so that the function stays
// within the inliner's budget — a call per field per row spills the five
// chains' locals.
func upwindRow(l, eps, rm, cPrev, dPrev float64) (c, d float64) {
	al := abs(l)
	lp, lm := 0.5*(l+al), 0.5*(l-al)
	am := -lp - eps
	den := 1 + (lp - lm) + 2*eps - am*cPrev
	if den == 0 {
		den = 1e-30
	}
	return (lm - eps) / den, (rm - am*dPrev) / den
}

// recvPipe receives the boundary state of batch bi of direction d from rank
// from. A message for another direction or batch means the carry code has
// paired the wrong lines — a bug, so it panics.
func (b *Block) recvPipe(r *par.Rank, from, d, bi int) *pipeMsg {
	pm := r.Recv(from, par.TagPipeline).Data.(*pipeMsg)
	if pm.Dir != d || pm.Batch != bi {
		panic(fmt.Sprintf("flow: rank %d pipelined sweep expects direction %d batch %d from rank %d, got direction %d batch %d",
			r.ID, d, bi, from, pm.Dir, pm.Batch))
	}
	return pm
}

// lineSolves performs the five scalar tridiagonal solves along direction d.
// lam holds the Δt·J-scaled eigenvalues (5 per point). Each line is walked
// once forward and once backward with the five recurrences held in locals:
// five independent divide chains in flight and one visit per 40-byte record.
// Pipelining: the transverse lines are split into batches; the forward
// elimination of a batch waits for the upstream rank's boundary state for
// that batch only, so downstream ranks start while upstream ones continue.
func (b *Block) lineSolves(r *par.Rank, d int, dt float64, lam []float64) float64 {
	s := b.scr
	lg := b.lineSet(d)
	nLines, stride, count := lg.nLines, lg.stride, lg.count
	prev := b.Nbr[d][0]
	next := b.Nbr[d][1]
	// The periodic seam is treated explicitly (no implicit wrap coupling).
	prevRank, nextRank := -1, -1
	if prev.Rank >= 0 && !prev.Wrap {
		prevRank = prev.Rank
	}
	if next.Rank >= 0 && !next.Wrap {
		nextRank = next.Rank
	}

	// Work through batches.
	batches := pipeBatches
	if batches > nLines {
		batches = nLines
	}
	if batches < 1 {
		batches = 1
	}
	flops := 0.0

	// Storage for cross-boundary state per line: entering (c', d') and the
	// back-substituted x from downstream, from the block's spare.
	cIn := sized(&s.cIn, nLines*5)
	dIn := sized(&s.dIn, nLines*5)
	cOut := sized(&s.cOut, nLines*5)
	dOut := sized(&s.dOut, nLines*5)
	xIn := sized(&s.xIn, nLines*5)

	// cpAll stores the full c' field (needed again for back substitution).
	cpAll := s.cpAll
	upd, jac, sigd, dq := s.upd, b.Jac, s.sig[d], b.DQ

	batchRange := func(bi int) (lo, hi int) {
		lo = bi * nLines / batches
		hi = (bi+1)*nLines/batches - 1
		return
	}

	// Forward elimination, batch by batch.
	for bi := 0; bi < batches; bi++ {
		lo, hi := batchRange(bi)
		if prevRank >= 0 {
			pm := b.recvPipe(r, prevRank, d, bi)
			copy(cIn[lo*5:(hi+1)*5], pm.Vals[:5*(hi-lo+1)])
			copy(dIn[lo*5:(hi+1)*5], pm.Vals[5*(hi-lo+1):])
			b.putPipe(r, pm)
		}
		for ln := lo; ln <= hi; ln++ {
			var c0, c1, c2, c3, c4, d0, d1, d2, d3, d4 float64
			if prevRank >= 0 {
				ci, di := cIn[ln*5:ln*5+5:ln*5+5], dIn[ln*5:ln*5+5:ln*5+5]
				c0, c1, c2, c3, c4 = ci[0], ci[1], ci[2], ci[3], ci[4]
				d0, d1, d2, d3, d4 = di[0], di[1], di[2], di[3], di[4]
			}
			first := lg.lineBase(ln)
			for p := first; p != first+count*stride; p += stride {
				x := dq[5*p : 5*p+5 : 5*p+5]
				if upd[p] {
					eps := implicitEps * dt * jac[p] * sigd[p]
					l := lam[5*p : 5*p+5 : 5*p+5]
					c0, d0 = upwindRow(l[0], eps, x[0], c0, d0)
					c1, d1 = upwindRow(l[1], eps, x[1], c1, d1)
					c2, d2 = upwindRow(l[2], eps, x[2], c2, d2)
					c3, d3 = upwindRow(l[3], eps, x[3], c3, d3)
					c4, d4 = upwindRow(l[4], eps, x[4], c4, d4)
				} else { // identity row
					c0, d0 = thomasRow(0, 1, 0, 0, c0, d0)
					c1, d1 = thomasRow(0, 1, 0, 0, c1, d1)
					c2, d2 = thomasRow(0, 1, 0, 0, c2, d2)
					c3, d3 = thomasRow(0, 1, 0, 0, c3, d3)
					c4, d4 = thomasRow(0, 1, 0, 0, c4, d4)
				}
				cp := cpAll[5*p : 5*p+5 : 5*p+5]
				cp[0], cp[1], cp[2], cp[3], cp[4] = c0, c1, c2, c3, c4
				x[0], x[1], x[2], x[3], x[4] = d0, d1, d2, d3, d4 // store d' in place
			}
			oc, od := cOut[ln*5:ln*5+5:ln*5+5], dOut[ln*5:ln*5+5:ln*5+5]
			oc[0], oc[1], oc[2], oc[3], oc[4] = c0, c1, c2, c3, c4
			od[0], od[1], od[2], od[3], od[4] = d0, d1, d2, d3, d4
			flops += float64(count) * 5 * flopsTriPerComp
		}
		if nextRank >= 0 {
			nv := hi - lo + 1
			pm := b.getPipe(r)
			pm.Dir, pm.Batch = d, bi
			pm.Vals = append(pm.Vals[:0], cOut[lo*5:(hi+1)*5]...)
			pm.Vals = append(pm.Vals, dOut[lo*5:(hi+1)*5]...)
			r.Send(nextRank, par.TagPipeline, pm, 8*10*nv)
		}
	}

	// Back substitution, batch by batch (reverse chain direction).
	for bi := 0; bi < batches; bi++ {
		lo, hi := batchRange(bi)
		if nextRank >= 0 {
			pm := b.recvPipe(r, nextRank, d, bi)
			copy(xIn[lo*5:(hi+1)*5], pm.Vals)
			b.putPipe(r, pm)
		}
		for ln := lo; ln <= hi; ln++ {
			xi := xIn[ln*5 : ln*5+5 : ln*5+5]
			var x0, x1, x2, x3, x4 float64
			if nextRank >= 0 {
				x0, x1, x2, x3, x4 = xi[0], xi[1], xi[2], xi[3], xi[4]
			}
			first := lg.lineBase(ln)
			for p := first + (count-1)*stride; p >= first; p -= stride {
				x := dq[5*p : 5*p+5 : 5*p+5]
				cp := cpAll[5*p : 5*p+5 : 5*p+5]
				x0 = x[0] - cp[0]*x0
				x1 = x[1] - cp[1]*x1
				x2 = x[2] - cp[2]*x2
				x3 = x[3] - cp[3]*x3
				x4 = x[4] - cp[4]*x4
				x[0], x[1], x[2], x[3], x[4] = x0, x1, x2, x3, x4
			}
			xi[0], xi[1], xi[2], xi[3], xi[4] = x0, x1, x2, x3, x4 // my first point's x, for upstream
			flops += float64(count) * 5 * 2
		}
		if prevRank >= 0 {
			nv := hi - lo + 1
			pm := b.getPipe(r)
			pm.Dir, pm.Batch = d, bi
			pm.Vals = append(pm.Vals[:0], xIn[lo*5:(hi+1)*5]...)
			r.Send(prevRank, par.TagPipeline, pm, 8*5*nv)
		}
	}
	return flops
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ApplyUpdate adds ΔQ to the conserved state at updatable points and
// enforces w = 0 on planar blocks. Returns flops.
func (b *Block) ApplyUpdate() float64 {
	b.ensureScratch()
	s := b.scr
	upd, qs, dqs := s.upd, b.Q, b.DQ
	twoD := b.TwoD
	count := 0
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				if !upd[p] {
					continue
				}
				count++
				qp := qs[5*p : 5*p+5 : 5*p+5]
				dq := dqs[5*p : 5*p+5 : 5*p+5]
				qp[0] += dq[0]
				qp[1] += dq[1]
				qp[2] += dq[2]
				qp[3] += dq[3]
				qp[4] += dq[4]
				if twoD {
					qp[3] = 0
				}
				// Keep the state physical: floor density and pressure.
				if qp[0] < 1e-6 {
					qp[0] = 1e-6
				}
				rho, u, v, w, pr := Primitive(b.QAt(p))
				if pr <= 1e-8 {
					pr = 1e-8
					qp[4] = pr/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
				}
			}
		}
	}
	return float64(count) * 8
}
