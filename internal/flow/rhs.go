package flow

import (
	"math"

	"overd/internal/grid"
)

// Scratch arrays set up lazily by ensureScratch, the float ones carved from
// the remainder of the block's store, the rest in the block's spare.
type scratch struct {
	fw   []float64    // per-direction flux workspace (5 per point)
	pr   []float64    // pressure field
	prim []float64    // cached primitives ρ,u,v,w (4 per point), filled with pr
	sig  [3][]float64 // per-direction spectral radii
	rhs0 []float64    // cached freestream residual (5 per point)
	// cpAll caches the full c' field of a line solve for back substitution
	// (5 per point); during ComputeRHS it holds the JST interface fluxes.
	cpAll []float64

	*spare
}

func (b *Block) ensureScratch() {
	if b.scr != nil {
		return
	}
	n := b.NPointsLocal()
	s := &scratch{
		fw:    b.take(5 * n),
		pr:    b.take(n),
		prim:  b.take(4 * n),
		rhs0:  b.take(5 * n),
		cpAll: b.take(5 * n),
	}
	if b.ar != nil && b.rank >= 0 {
		// The rank's last block is done with it: the block this one replaces
		// in a repartition is only read for Q from here on.
		s.spare = &b.ar.spare[b.rank]
	} else {
		s.spare = &spare{}
	}
	sized(&s.upd, n)
	sized(&s.stv, n)
	for d := 0; d < 3; d++ {
		s.sig[d] = b.take(n)
	}
	b.scr = s
	b.classifyPoints()
	b.computeFreestreamResidual()
}

// classifyPoints fills the updatable and stencil-valid masks. A point is
// updatable when it is a field point not lying on a Dirichlet face of the
// component grid (walls, farfield, overset and symmetry boundary values are
// set explicitly; periodic faces are ordinary interior points). A point is
// stencil-valid when it carries meaningful data: field, fringe, or explicit
// boundary values, inside the grid extent.
func (b *Block) classifyPoints() {
	g := b.G
	s := b.scr
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				n := b.LIdx(li, lj, lk)
				i, j, k := b.GlobalFromLocal(li, lj, lk)
				if g.PeriodicI() {
					i = ((i % g.NI) + g.NI) % g.NI
				}
				inside := i >= 0 && i < g.NI && j >= 0 && j < g.NJ && (b.TwoD || k >= 0 && k < g.NK)
				if !inside {
					s.upd[n] = false
					s.stv[n] = false
					continue
				}
				s.stv[n] = b.IBl[n] != grid.IBHole
				upd := b.IBl[n] == grid.IBField
				if upd {
					if !g.PeriodicI() && (i == 0 || i == g.NI-1) {
						upd = false
					}
					if j == 0 || j == g.NJ-1 {
						upd = false
					}
					if !b.TwoD && (k == 0 || k == g.NK-1) {
						upd = false
					}
				}
				s.upd[n] = upd
			}
		}
	}
}

// RefreshMasks recomputes the point classification after an iblank update
// (connectivity re-established holes and fringes).
func (b *Block) RefreshMasks() {
	b.refreshIBlank()
	if b.scr != nil {
		b.classifyPoints()
	}
}

// RefreshFreestreamResidual recomputes the cached metric-error correction;
// call after geometry changes (moving grids).
func (b *Block) RefreshFreestreamResidual() {
	if b.scr != nil {
		b.computeFreestreamResidual()
	}
}

// computeFreestreamResidual caches the central flux divergence of the
// uniform freestream state. Finite-difference metrics do not satisfy the
// discrete metric identities exactly, so a uniform flow produces a small
// spurious residual; subtracting this cached field ("freestream
// subtraction", as in production overset codes) restores exact freestream
// preservation. Runs every step on moving grids, so the freestream
// primitives are hoisted and the flux is written in place.
func (b *Block) computeFreestreamResidual() {
	s := b.scr
	qf := b.FS.Conserved()
	n := b.NPointsLocal()
	rhs0 := s.rhs0
	for p := 0; p < 5*n; p++ {
		rhs0[p] = 0
	}
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	rho, u, v, w, pf := Primitive(qf)
	q1, q2, q3, q4 := qf[1], qf[2], qf[3], qf[4]
	fw, met := s.fw, b.Met
	xt, yt, zt := b.XT, b.YT, b.ZT
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for d := 0; d < ndir; d++ {
		for p := 0; p < n; p++ {
			mp := met[9*p+3*d : 9*p+3*d+3 : 9*p+3*d+3]
			kx, ky, kz := mp[0], mp[1], mp[2]
			kt := -(kx*xt[p] + ky*yt[p] + kz*zt[p])
			U := kt + kx*u + ky*v + kz*w
			f := fw[5*p : 5*p+5 : 5*p+5]
			f[0] = rho * U
			f[1] = q1*U + kx*pf
			f[2] = q2*U + ky*pf
			f[3] = q3*U + kz*pf
			f[4] = (q4+pf)*U - kt*pf
		}
		str := b.strideOf(d)
		for lk := klo; lk <= khi; lk++ {
			for lj := Halo; lj < b.MJ-Halo; lj++ {
				p0 := b.LIdx(Halo, lj, lk)
				for p := p0; p < p0+niOwn; p++ {
					r0 := rhs0[5*p : 5*p+5 : 5*p+5]
					fp := fw[5*(p+str) : 5*(p+str)+5]
					fm := fw[5*(p-str) : 5*(p-str)+5]
					r0[0] += 0.5 * (fp[0] - fm[0])
					r0[1] += 0.5 * (fp[1] - fm[1])
					r0[2] += 0.5 * (fp[2] - fm[2])
					r0[3] += 0.5 * (fp[3] - fm[3])
					r0[4] += 0.5 * (fp[4] - fm[4])
				}
			}
		}
	}
}

// strideOf returns the flat-index stride of one step in local direction d.
func (b *Block) strideOf(d int) int {
	switch d {
	case 0:
		return 1
	case 1:
		return b.MI
	default:
		return b.MI * b.MJ
	}
}

// eachInterior calls fn for every owned point (ghosts excluded). Hot kernels
// inline this iteration instead (see "Kernel rules" in DESIGN.md); the
// closure form remains for cold paths.
func (b *Block) eachInterior(fn func(p int)) {
	klo, khi := b.kBounds()
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			base := b.LIdx(Halo, lj, lk)
			for li := 0; li < b.Own.NI(); li++ {
				fn(base + li)
			}
		}
	}
}

// Dissipation coefficients (JST): second- and fourth-difference scaling and
// the pressure-switch gain.
const (
	dissK2 = 0.50
	dissK4 = 1.0 / 48
)

// Approximate floating point operations per point for the flop accounting,
// by kernel. The counts tally multiplies and adds in the inner loops.
const (
	flopsFluxPerDir  = 50.0
	flopsDissPerDir  = 60.0
	flopsPressure    = 12.0
	flopsSpectral    = 20.0
	flopsEigenBuild  = 110.0
	flopsEigenApply  = 55.0
	flopsTriPerComp  = 16.0
	flopsBCPoint     = 30.0
	flopsViscPoint   = 130.0
	flopsBLPoint     = 90.0
	flopsMetricPoint = 160.0
	flopsForcePoint  = 40.0
)

// ComputeRHS fills b.RHS with Δt·J·R(Q) where R is the semi-discrete
// residual (negative flux divergence plus artificial dissipation, with the
// cached freestream correction subtracted). Non-updatable points get zero.
// It returns the number of floating-point operations performed, for the
// caller's virtual-time accounting.
//
// The kernel is fused: one pass caches primitives and fills pressure and
// spectral radii, then each direction fills the flux workspace from the
// cached primitives (Q is unchanged within this call, so Primitive would
// return identical bits), fills the JST dissipation flux of every interface
// once (fillDissipation — it uses DQ as workspace) and accumulates the
// central difference and the two interface fluxes of each point in a single
// sweep over contiguous i-runs.
func (b *Block) ComputeRHS(dt float64) float64 {
	b.ensureScratch()
	s := b.scr
	n := b.NPointsLocal()
	ndir := 3
	if b.TwoD {
		ndir = 2
	}

	// Pressure, cached primitives and per-direction spectral radii.
	prim, prS := s.prim, s.pr
	sig0, sig1, sig2 := s.sig[0], s.sig[1], s.sig[2]
	met := b.Met
	xt, yt, zt := b.XT, b.YT, b.ZT
	for p := 0; p < n; p++ {
		rho, u, v, w, pr := Primitive(b.QAt(p))
		pm := prim[4*p : 4*p+4 : 4*p+4]
		pm[0], pm[1], pm[2], pm[3] = rho, u, v, w
		prS[p] = pr
		a := SoundSpeed(rho, pr)
		xtp, ytp, ztp := xt[p], yt[p], zt[p]
		mp := met[9*p : 9*p+9 : 9*p+9]
		{
			kx, ky, kz := mp[0], mp[1], mp[2]
			kt := -(kx*xtp + ky*ytp + kz*ztp)
			U := kt + kx*u + ky*v + kz*w
			sig0[p] = math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
		}
		{
			kx, ky, kz := mp[3], mp[4], mp[5]
			kt := -(kx*xtp + ky*ytp + kz*ztp)
			U := kt + kx*u + ky*v + kz*w
			sig1[p] = math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
		}
		if ndir == 3 {
			kx, ky, kz := mp[6], mp[7], mp[8]
			kt := -(kx*xtp + ky*ytp + kz*ztp)
			U := kt + kx*u + ky*v + kz*w
			sig2[p] = math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
		}
	}

	rhs := b.RHS
	for p := 0; p < 5*n; p++ {
		rhs[p] = 0
	}

	flops := float64(n) * (flopsPressure + flopsSpectral*float64(ndir))

	q, fw, upd, stv, g := b.Q, s.fw, s.upd, s.stv, s.cpAll
	klo, khi := b.kBounds()
	niOwn := b.Own.NI()
	for d := 0; d < ndir; d++ {
		// Fluxes at every stencil-relevant point, from the cached primitives.
		md := 3 * d
		for p := 0; p < n; p++ {
			mp := met[9*p+md : 9*p+md+3 : 9*p+md+3]
			kx, ky, kz := mp[0], mp[1], mp[2]
			kt := -(kx*xt[p] + ky*yt[p] + kz*zt[p])
			pm := prim[4*p : 4*p+4 : 4*p+4]
			pr := prS[p]
			U := kt + kx*pm[1] + ky*pm[2] + kz*pm[3]
			qp := q[5*p : 5*p+5 : 5*p+5]
			f := fw[5*p : 5*p+5 : 5*p+5]
			f[0] = pm[0] * U
			f[1] = qp[1]*U + kx*pr
			f[2] = qp[2]*U + ky*pr
			f[3] = qp[3]*U + kz*pr
			f[4] = (qp[4]+pr)*U - kt*pr
		}
		str := b.strideOf(d)
		b.fillDissipation(d)
		for lk := klo; lk <= khi; lk++ {
			for lj := Halo; lj < b.MJ-Halo; lj++ {
				p0 := b.LIdx(Halo, lj, lk)
				for p := p0; p < p0+niOwn; p++ {
					if !upd[p] {
						continue
					}
					// Central flux difference.
					rp := rhs[5*p : 5*p+5 : 5*p+5]
					fp := fw[5*(p+str) : 5*(p+str)+5]
					fm := fw[5*(p-str) : 5*(p-str)+5]
					rp[0] -= 0.5 * (fp[0] - fm[0])
					rp[1] -= 0.5 * (fp[1] - fm[1])
					rp[2] -= 0.5 * (fp[2] - fm[2])
					rp[3] -= 0.5 * (fp[3] - fm[3])
					rp[4] -= 0.5 * (fp[4] - fm[4])
					// JST dissipation: d_{+1/2} - d_{-1/2}. An interface with
					// an invalid side is skipped, never added as zero
					// (-0 + 0 is +0); p itself is updatable, hence valid.
					if stv[p+str] {
						gh := g[5*p : 5*p+5 : 5*p+5]
						rp[0] += gh[0]
						rp[1] += gh[1]
						rp[2] += gh[2]
						rp[3] += gh[3]
						rp[4] += gh[4]
					}
					if stv[p-str] {
						gl := g[5*(p-str) : 5*(p-str)+5]
						rp[0] -= gl[0]
						rp[1] -= gl[1]
						rp[2] -= gl[2]
						rp[3] -= gl[3]
						rp[4] -= gl[4]
					}
				}
			}
		}
		flops += float64(n)*flopsFluxPerDir + float64(b.NOwned())*flopsDissPerDir
	}

	flops += b.addViscousRHS()

	// Freestream subtraction, Jacobian scaling and Δt.
	rhs0, jac := s.rhs0, b.Jac
	for lk := klo; lk <= khi; lk++ {
		for lj := Halo; lj < b.MJ-Halo; lj++ {
			p0 := b.LIdx(Halo, lj, lk)
			for p := p0; p < p0+niOwn; p++ {
				rp := rhs[5*p : 5*p+5 : 5*p+5]
				if !upd[p] {
					rp[0], rp[1], rp[2], rp[3], rp[4] = 0, 0, 0, 0, 0
					continue
				}
				jdt := jac[p] * dt
				r0 := rhs0[5*p : 5*p+5 : 5*p+5]
				rp[0] = (rp[0] + r0[0]) * jdt
				rp[1] = (rp[1] + r0[1]) * jdt
				rp[2] = (rp[2] + r0[2]) * jdt
				rp[3] = (rp[3] + r0[3]) * jdt
				rp[4] = (rp[4] + r0[4]) * jdt
			}
		}
	}
	flops += float64(b.NOwned()) * 12
	return flops
}

// fillDissipation prepares direction d's scalar JST dissipation so that
// ComputeRHS evaluates each thing once: the pressure switch (the normalized
// second difference of pressure) once per point, into DQ — like the Thomas c'
// field, idle until SolveADI overwrites it — and the scaled flux
// σ·(ε₂Δq − ε₄Δ³q) once per interface (p, p+str), stored at p in that c'
// field, for every interface an updatable point borders. Stencil validity
// degrades the fourth difference to second near holes and boundaries.
func (b *Block) fillDissipation(d int) {
	s := b.scr
	str := b.strideOf(d)
	q, stv, upd, prS, sigd, g, nu := b.Q, s.stv, s.upd, s.pr, s.sig[d], s.cpAll, b.DQ
	klo, khi := b.kBounds()
	lo := [3]int{Halo, Halo, klo}
	hi := [3]int{b.MI - Halo - 1, b.MJ - Halo - 1, khi}
	lo[d]-- // the interface below the first owned point, and its low side's switch
	hi[d]++ // the switch on the high side of the last owned point's interface
	for lk := lo[2]; lk <= hi[2]; lk++ {
		for lj := lo[1]; lj <= hi[1]; lj++ {
			for p, pe := b.LIdx(lo[0], lj, lk), b.LIdx(hi[0], lj, lk); p <= pe; p++ {
				nu[p] = 0
				if pm, pp := p-str, p+str; stv[pm] && stv[pp] {
					num := math.Abs(prS[pp] - 2*prS[p] + prS[pm])
					if den := prS[pp] + 2*prS[p] + prS[pm]; !(den < 1e-12) {
						nu[p] = num / den
					}
				}
			}
		}
	}
	hi[d]--
	for lk := lo[2]; lk <= hi[2]; lk++ {
		for lj := lo[1]; lj <= hi[1]; lj++ {
			for pl, pe := b.LIdx(lo[0], lj, lk), b.LIdx(hi[0], lj, lk); pl <= pe; pl++ {
				pr := pl + str
				if !stv[pl] || !stv[pr] || !(upd[pl] || upd[pr]) {
					continue
				}
				sigma := 0.5 * (sigd[pl] + sigd[pr])
				sw := nu[pl]
				if n2 := nu[pr]; n2 > sw {
					sw = n2
				}
				eps2 := dissK2 * sw
				eps4 := dissK4 - eps2
				if eps4 < 0 {
					eps4 = 0
				}
				ql := q[5*pl : 5*pl+5 : 5*pl+5]
				qr := q[5*pr : 5*pr+5 : 5*pr+5]
				gp := g[5*pl : 5*pl+5 : 5*pl+5]
				// Fourth-difference needs two more valid neighbors.
				if pll, prr := pl-str, pr+str; stv[pll] && stv[prr] {
					qll := q[5*pll : 5*pll+5 : 5*pll+5]
					qrr := q[5*prr : 5*prr+5 : 5*prr+5]
					for c := 0; c < 5; c++ {
						flux := eps2 * (qr[c] - ql[c])
						flux -= eps4 * (qrr[c] - 3*qr[c] + 3*ql[c] - qll[c])
						gp[c] = sigma * flux
					}
				} else {
					for c := 0; c < 5; c++ {
						gp[c] = sigma * (eps2 * (qr[c] - ql[c]))
					}
				}
			}
		}
	}
}
