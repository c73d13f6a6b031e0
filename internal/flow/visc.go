package flow

import (
	"math"

	"overd/internal/grid"
)

// ViscousDirs selects which index directions carry viscous terms on this
// block, set by the driver from the case definition: body-fitted grids use
// at least the wall-normal (η) direction (classical thin-layer); the
// delta-wing case activates all directions.
func (b *Block) SetViscousDirs(dirs [3]bool) { b.viscDirs = dirs }

// AddViscousRHS accumulates the thin-layer viscous fluxes along every
// active direction into RHS (called inside ComputeRHS before the Jacobian
// scaling, which leaves the scratch primitive caches current with Q).
// Returns flops.
func (b *Block) addViscousRHS() float64 {
	mu := b.FS.MuCoef()
	if mu == 0 || !b.G.Viscous {
		return 0
	}
	b.ensureScratch()
	s := b.scr
	flops := 0.0
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	fw, rhs, upd := s.fw, b.RHS, s.upd
	iklo, ikhi := b.kBounds()
	niOwn := b.Own.NI()
	for d := 0; d < ndir; d++ {
		if !b.viscDirs[d] {
			continue
		}
		str := b.strideOf(d)
		// Interface flux between p and p+str, stored at p in fw, for every
		// point whose +d neighbor exists: one layer beyond the interior on
		// the low side so interior points can difference fw[p]-fw[p-str].
		ilo, ihi := Halo, b.MI-Halo-1
		jlo, jhi := Halo, b.MJ-Halo-1
		klo, khi := b.kBounds()
		switch d {
		case 0:
			ilo--
		case 1:
			jlo--
		default:
			klo--
		}
		for lk := klo; lk <= khi; lk++ {
			for lj := jlo; lj <= jhi; lj++ {
				base := b.LIdx(0, lj, lk)
				for li := ilo; li <= ihi; li++ {
					b.viscFlux(base+li, str, d, mu)
				}
			}
		}
		for lk := iklo; lk <= ikhi; lk++ {
			for lj := Halo; lj < b.MJ-Halo; lj++ {
				p0 := b.LIdx(Halo, lj, lk)
				for p := p0; p < p0+niOwn; p++ {
					if !upd[p] {
						continue
					}
					rp := rhs[5*p : 5*p+5 : 5*p+5]
					fp := fw[5*p : 5*p+5 : 5*p+5]
					fm := fw[5*(p-str) : 5*(p-str)+5]
					rp[0] += fp[0] - fm[0]
					rp[1] += fp[1] - fm[1]
					rp[2] += fp[2] - fm[2]
					rp[3] += fp[3] - fm[3]
					rp[4] += fp[4] - fm[4]
				}
			}
		}
		flops += float64(b.NOwned()) * flopsViscPoint
	}
	return flops
}

// viscFlux evaluates the thin-layer viscous flux at the interface between
// local points p and p+str along direction d, storing it in scr.fw[5p..].
// Primitives come from the scratch cache filled in ComputeRHS pass 1: Q is
// unchanged within the call, so the cached values are bit-identical to a
// fresh Primitive evaluation.
func (b *Block) viscFlux(p, str, d int, mu float64) {
	s := b.scr
	if !s.stv[p] || !s.stv[p+str] {
		for c := 0; c < 5; c++ {
			s.fw[5*p+c] = 0
		}
		return
	}
	pm0 := s.prim[4*p : 4*p+4 : 4*p+4]
	pm1 := s.prim[4*(p+str) : 4*(p+str)+4 : 4*(p+str)+4]
	rho0, u0, v0, w0, p0 := pm0[0], pm0[1], pm0[2], pm0[3], s.pr[p]
	rho1, u1, v1, w1, p1 := pm1[0], pm1[1], pm1[2], pm1[3], s.pr[p+str]

	// Midpoint metrics: ∇d/J and J.
	m0 := b.Met[9*p+3*d : 9*p+3*d+3 : 9*p+3*d+3]
	m1 := b.Met[9*(p+str)+3*d : 9*(p+str)+3*d+3 : 9*(p+str)+3*d+3]
	kx := 0.5 * (m0[0] + m1[0])
	ky := 0.5 * (m0[1] + m1[1])
	kz := 0.5 * (m0[2] + m1[2])
	jm := 0.5 * (b.Jac[p] + b.Jac[p+str])

	// Velocity and temperature-like differences along the line.
	du, dv, dw := u1-u0, v1-v0, w1-w0
	a20 := Gamma * p0 / rho0
	a21 := Gamma * p1 / rho1
	da2 := a21 - a20

	// Effective viscosities (laminar plus Baldwin-Lomax eddy viscosity,
	// stored as a multiple of the laminar value).
	mut := 0.0
	if b.MuT != nil {
		mut = 0.5 * (b.MuT[p] + b.MuT[p+str])
	}
	muMom := mu * (1 + mut)
	muEne := mu * (1/Pr + mut/PrT) / (Gamma - 1)

	alpha := (kx*kx + ky*ky + kz*kz) * jm
	beta := (kx*du + ky*dv + kz*dw) * jm

	um, vm, wm := 0.5*(u0+u1), 0.5*(v0+v1), 0.5*(w0+w1)

	f1 := muMom * (alpha*du + beta*kx/3)
	f2 := muMom * (alpha*dv + beta*ky/3)
	f3 := muMom * (alpha*dw + beta*kz/3)
	f4 := muMom*(alpha*(um*du+vm*dv+wm*dw)+beta*(kx*um+ky*vm+kz*wm)/3) +
		muEne*alpha*da2

	s.fw[5*p] = 0
	s.fw[5*p+1] = f1
	s.fw[5*p+2] = f2
	s.fw[5*p+3] = f3
	s.fw[5*p+4] = f4
}

// ComputeTurbulence runs the Baldwin-Lomax algebraic model along the
// wall-normal (η) lines of blocks that own the wall face (j = 0). Blocks of
// the same grid that do not contain the wall keep zero eddy viscosity — the
// outer-region contribution there is small, and wall distance is unavailable
// off-wall, the standard compromise for decomposed algebraic models.
// Returns flops.
func (b *Block) ComputeTurbulence() float64 {
	if b.MuT == nil || !b.G.Turbulent {
		return 0
	}
	for i := range b.MuT {
		b.MuT[i] = 0
	}
	if b.G.BCs[grid.JMin] != grid.BCWall || b.Own.JLo != 0 {
		return 0
	}
	mu := b.FS.MuCoef()
	if mu == 0 {
		return 0
	}

	const (
		aPlus = 26.0
		kappa = 0.40
		kBig  = 0.0168
		cCp   = 1.6
		cKleb = 0.3
		cWk   = 1.0
	)

	klo, khi := b.kBounds()
	nj := b.Own.NJ()
	b.ensureScratch()
	s := b.scr
	omega, ydist, rhoL := sized(&s.blOmega, nj), sized(&s.blY, nj), sized(&s.blRho, nj)
	count := 0
	for lk := klo; lk <= khi; lk++ {
		for li := Halo; li < b.MI-Halo; li++ {
			// Walk the wall-normal line.
			wallP := b.LIdx(li, Halo, lk)
			if b.IBl[wallP] == grid.IBHole {
				continue
			}
			count += nj
			// Pass 1: distance, vorticity, F(y).
			var (
				fMax, yMax   float64
				uMin, uMax   float64 = math.Inf(1), 0
				dist                 = 0.0
				prevX, prevY         = b.XL[wallP], b.YL[wallP]
				prevZ                = b.ZL[wallP]
			)
			wallVx, wallVy, wallVz := b.XT[wallP], b.YT[wallP], b.ZT[wallP]
			// The previous point's velocity is carried forward instead of
			// re-deriving it with a second Primitive call — same pure
			// function of the same unchanged Q, so the bits are identical.
			var um, vm, wm float64
			for m := 0; m < nj; m++ {
				p := b.LIdx(li, Halo+m, lk)
				rho, u, v, w, _ := Primitive(b.QAt(p))
				rhoL[m] = rho
				dx := b.XL[p] - prevX
				dy := b.YL[p] - prevY
				dz := b.ZL[p] - prevZ
				dist += math.Sqrt(dx*dx + dy*dy + dz*dz)
				prevX, prevY, prevZ = b.XL[p], b.YL[p], b.ZL[p]
				ydist[m] = dist
				// Shear magnitude: derivative of velocity along the line.
				if m > 0 {
					dy := ydist[m] - ydist[m-1]
					if dy < 1e-12 {
						dy = 1e-12
					}
					omega[m] = math.Sqrt((u-um)*(u-um)+(v-vm)*(v-vm)+(w-wm)*(w-wm)) / dy
				}
				um, vm, wm = u, v, w
				speed := math.Sqrt((u-wallVx)*(u-wallVx) + (v-wallVy)*(v-wallVy) + (w-wallVz)*(w-wallVz))
				if speed > uMax {
					uMax = speed
				}
				if speed < uMin {
					uMin = speed
				}
			}
			omega[0] = omega[1]
			tauW := mu * omega[0]
			if tauW < 1e-20 {
				continue
			}
			rhoW := rhoL[0]
			ustar := math.Sqrt(tauW / rhoW)
			for m := 1; m < nj; m++ {
				yp := ydist[m] * ustar * rhoW / mu
				dvd := 1 - math.Exp(-yp/aPlus)
				fy := ydist[m] * omega[m] * dvd
				if fy > fMax {
					fMax, yMax = fy, ydist[m]
				}
			}
			if fMax < 1e-20 {
				continue
			}
			uDif := uMax - uMin
			fWake := yMax * fMax
			if alt := cWk * yMax * uDif * uDif / fMax; alt < fWake {
				fWake = alt
			}
			// Pass 2: inner/outer with crossover.
			inner := true
			for m := 1; m < nj; m++ {
				p := b.LIdx(li, Halo+m, lk)
				y := ydist[m]
				yp := y * ustar * rhoW / mu
				dvd := 1 - math.Exp(-yp/aPlus)
				l := kappa * y * dvd
				mti := rhoL[m] * l * l * omega[m]
				fk := 1 / (1 + 5.5*math.Pow(cKleb*y/yMax, 6))
				mto := kBig * cCp * rhoL[m] * fWake * fk
				mt := mti
				if inner && mti > mto {
					inner = false
				}
				if !inner {
					mt = mto
				}
				b.MuT[p] = mt / mu // stored as a multiple of laminar μ
			}
		}
	}
	return float64(count) * flopsBLPoint
}
