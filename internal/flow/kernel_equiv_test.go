package flow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"overd/internal/geom"
	"overd/internal/grid"
	"overd/internal/gridgen"
	"overd/internal/machine"
	"overd/internal/par"
)

// This file keeps naive, closure-based copies of the hot kernels — the
// forms the fused kernels replaced — and asserts bit-for-bit (==) agreement
// on randomized blocks: 2-D and 3-D, with random hole/fringe masks and
// periodic wrap seams. Any floating-point reassociation or reordering in a
// fused kernel shows up here as a ULP diff long before it would drift the
// virtual-clock golden file.

// refScratch holds the reference kernels' private workspace so they never
// touch the block's scratch beyond reading the shared masks.
type refScratch struct {
	fw   []float64
	pr   []float64
	sig  [3][]float64
	rhs0 []float64
}

func newRefScratch(n int) *refScratch {
	rs := &refScratch{
		fw:   make([]float64, 5*n),
		pr:   make([]float64, n),
		rhs0: make([]float64, 5*n),
	}
	for d := 0; d < 3; d++ {
		rs.sig[d] = make([]float64, n)
	}
	return rs
}

// refComputeRHS is the pre-fusion ComputeRHS: per-point closure dispatch,
// array-returning Flux calls, per-direction passes. Writes Δt·J·R into out.
func refComputeRHS(b *Block, rs *refScratch, dt float64, out []float64) {
	s := b.scr
	n := b.NPointsLocal()
	ndir := 3
	if b.TwoD {
		ndir = 2
	}

	// Freestream residual, old form.
	qf := b.FS.Conserved()
	for p := 0; p < 5*n; p++ {
		rs.rhs0[p] = 0
	}
	for d := 0; d < ndir; d++ {
		for p := 0; p < n; p++ {
			kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
			kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
			f := Flux(qf, kx, ky, kz, kt)
			copy(rs.fw[5*p:5*p+5], f[:])
		}
		str := b.strideOf(d)
		b.eachInterior(func(p int) {
			for c := 0; c < 5; c++ {
				rs.rhs0[5*p+c] += 0.5 * (rs.fw[5*(p+str)+c] - rs.fw[5*(p-str)+c])
			}
		})
	}

	// Pressure and per-direction spectral radii, old per-point form.
	for p := 0; p < n; p++ {
		q := b.QAt(p)
		rho, u, v, w, pr := Primitive(q)
		rs.pr[p] = pr
		a := SoundSpeed(rho, pr)
		for d := 0; d < ndir; d++ {
			kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
			kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
			U := kt + kx*u + ky*v + kz*w
			rs.sig[d][p] = math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
		}
	}

	for p := 0; p < 5*n; p++ {
		out[p] = 0
	}
	for d := 0; d < ndir; d++ {
		for p := 0; p < n; p++ {
			kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
			kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
			f := Flux(b.QAt(p), kx, ky, kz, kt)
			copy(rs.fw[5*p:5*p+5], f[:])
		}
		str := b.strideOf(d)
		b.eachInterior(func(p int) {
			if !s.upd[p] {
				return
			}
			for c := 0; c < 5; c++ {
				out[5*p+c] -= 0.5 * (rs.fw[5*(p+str)+c] - rs.fw[5*(p-str)+c])
			}
			refAddDissipation(b, rs, out, p, str, d)
		})
	}

	refAddViscousRHS(b, rs, out)

	b.eachInterior(func(p int) {
		if !s.upd[p] {
			for c := 0; c < 5; c++ {
				out[5*p+c] = 0
			}
			return
		}
		jdt := b.Jac[p] * dt
		for c := 0; c < 5; c++ {
			out[5*p+c] = (out[5*p+c] + rs.rhs0[5*p+c]) * jdt
		}
	})
}

// refAddDissipation is the old two-sided JST accumulation.
func refAddDissipation(b *Block, rs *refScratch, out []float64, p, str, d int) {
	s := b.scr
	for side := 0; side < 2; side++ {
		pl, pr := p, p+str
		sign := 1.0
		if side == 1 {
			pl, pr = p-str, p
			sign = -1
		}
		if !s.stv[pl] || !s.stv[pr] {
			continue
		}
		sigma := 0.5 * (rs.sig[d][pl] + rs.sig[d][pr])
		nu := refPressureSensor(b, rs, pl, str)
		if n2 := refPressureSensor(b, rs, pr, str); n2 > nu {
			nu = n2
		}
		eps2 := dissK2 * nu
		eps4 := dissK4 - eps2
		if eps4 < 0 {
			eps4 = 0
		}
		pll, prr := pl-str, pr+str
		fourth := s.stv[pll] && s.stv[prr]
		for c := 0; c < 5; c++ {
			d1 := b.Q[5*pr+c] - b.Q[5*pl+c]
			flux := eps2 * d1
			if fourth {
				d3 := b.Q[5*prr+c] - 3*b.Q[5*pr+c] + 3*b.Q[5*pl+c] - b.Q[5*pll+c]
				flux -= eps4 * d3
			}
			out[5*p+c] += sign * sigma * flux
		}
	}
}

func refPressureSensor(b *Block, rs *refScratch, p, str int) float64 {
	s := b.scr
	pm, pp := p-str, p+str
	if !s.stv[pm] || !s.stv[pp] {
		return 0
	}
	num := math.Abs(rs.pr[pp] - 2*rs.pr[p] + rs.pr[pm])
	den := rs.pr[pp] + 2*rs.pr[p] + rs.pr[pm]
	if den < 1e-12 {
		return 0
	}
	return num / den
}

// refAddViscousRHS is the old thin-layer viscous accumulation.
func refAddViscousRHS(b *Block, rs *refScratch, out []float64) {
	mu := b.FS.MuCoef()
	if mu == 0 || !b.G.Viscous {
		return
	}
	s := b.scr
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	for d := 0; d < ndir; d++ {
		if !b.viscDirs[d] {
			continue
		}
		str := b.strideOf(d)
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
				for li := ilo; li <= ihi; li++ {
					refViscFlux(b, rs, b.LIdx(li, lj, lk), str, d, mu)
				}
			}
		}
		b.eachInterior(func(p int) {
			if !s.upd[p] {
				return
			}
			for c := 0; c < 5; c++ {
				out[5*p+c] += rs.fw[5*p+c] - rs.fw[5*(p-str)+c]
			}
		})
	}
}

func refViscFlux(b *Block, rs *refScratch, p, str, d int, mu float64) {
	s := b.scr
	if !s.stv[p] || !s.stv[p+str] {
		for c := 0; c < 5; c++ {
			rs.fw[5*p+c] = 0
		}
		return
	}
	q0 := b.QAt(p)
	q1 := b.QAt(p + str)
	rho0, u0, v0, w0, p0 := Primitive(q0)
	rho1, u1, v1, w1, p1 := Primitive(q1)

	kx := 0.5 * (b.Met[9*p+3*d] + b.Met[9*(p+str)+3*d])
	ky := 0.5 * (b.Met[9*p+3*d+1] + b.Met[9*(p+str)+3*d+1])
	kz := 0.5 * (b.Met[9*p+3*d+2] + b.Met[9*(p+str)+3*d+2])
	jm := 0.5 * (b.Jac[p] + b.Jac[p+str])

	du, dv, dw := u1-u0, v1-v0, w1-w0
	a20 := Gamma * p0 / rho0
	a21 := Gamma * p1 / rho1
	da2 := a21 - a20

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

	rs.fw[5*p] = 0
	rs.fw[5*p+1] = f1
	rs.fw[5*p+2] = f2
	rs.fw[5*p+3] = f3
	rs.fw[5*p+4] = f4
}

// refSolveADI is the old closure-based sweep on an isolated block (no
// cross-rank pipeline), operating on dq in place. lam and cpAll are the
// caller's workspaces (5 per point each).
func refSolveADI(b *Block, dt float64, dq, lam, cpAll []float64) {
	ndir := 3
	if b.TwoD {
		ndir = 2
	}
	for d := 0; d < ndir; d++ {
		refSweepDirection(b, d, dt, dq, lam, cpAll)
	}
}

func refSweepDirection(b *Block, d int, dt float64, dq, lam, cpAll []float64) {
	s := b.scr
	var e Eigen

	// Pointwise: W = T⁻¹ · DQ, stash eigenvalues.
	b.eachInterior(func(p int) {
		kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
		kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
		e.Set(b.QAt(p), kx, ky, kz, kt)
		w := e.MulTi([5]float64{dq[5*p], dq[5*p+1], dq[5*p+2], dq[5*p+3], dq[5*p+4]})
		copy(dq[5*p:5*p+5], w[:])
		jdt := b.Jac[p] * dt
		for c := 0; c < 5; c++ {
			lam[5*p+c] = e.Lam[c] * jdt
		}
	})

	// Scalar tridiagonal solves, old closure-based line enumeration, no
	// cross-rank pipeline (isolated block).
	nLines, lineAt := refLineSet(b, d)
	for ln := 0; ln < nLines; ln++ {
		base, stride, count := lineAt(ln)
		for c := 0; c < 5; c++ {
			cPrev, dPrev := 0.0, 0.0
			for m := 0; m < count; m++ {
				p := base + m*stride
				var am, bm, cm, rm float64
				if !s.upd[p] {
					am, bm, cm, rm = 0, 1, 0, 0
				} else {
					l := lam[5*p+c]
					lp := 0.5 * (l + abs(l))
					lm := 0.5 * (l - abs(l))
					eps := implicitEps * dt * b.Jac[p] * s.sig[d][p]
					am = -lp - eps
					bm = 1 + (lp - lm) + 2*eps
					cm = lm - eps
					rm = dq[5*p+c]
				}
				den := bm - am*cPrev
				if den == 0 {
					den = 1e-30
				}
				cPrev = cm / den
				dPrev = (rm - am*dPrev) / den
				cpAll[5*p+c] = cPrev
				dq[5*p+c] = dPrev
			}
			xNext := 0.0
			for m := count - 1; m >= 0; m-- {
				p := base + m*stride
				x := dq[5*p+c] - cpAll[5*p+c]*xNext
				dq[5*p+c] = x
				xNext = x
			}
		}
	}

	// Pointwise: DQ = T · W.
	b.eachInterior(func(p int) {
		kx, ky, kz := b.Met[9*p+3*d], b.Met[9*p+3*d+1], b.Met[9*p+3*d+2]
		kt := -(kx*b.XT[p] + ky*b.YT[p] + kz*b.ZT[p])
		e.Set(b.QAt(p), kx, ky, kz, kt)
		w := e.MulT([5]float64{dq[5*p], dq[5*p+1], dq[5*p+2], dq[5*p+3], dq[5*p+4]})
		copy(dq[5*p:5*p+5], w[:])
	})
}

// refLineSet is the old closure-returning line enumerator.
func refLineSet(b *Block, d int) (nLines int, lineStart func(idx int) (base, stride, count int)) {
	klo, khi := b.kBounds()
	nk := khi - klo + 1
	switch d {
	case 0:
		nj := b.MJ - 2*Halo
		return nj * nk, func(idx int) (int, int, int) {
			lj := Halo + idx%nj
			lk := klo + idx/nj
			return b.LIdx(Halo, lj, lk), 1, b.Own.NI()
		}
	case 1:
		ni := b.MI - 2*Halo
		return ni * nk, func(idx int) (int, int, int) {
			li := Halo + idx%ni
			lk := klo + idx/ni
			return b.LIdx(li, Halo, lk), b.MI, b.Own.NJ()
		}
	default:
		ni := b.MI - 2*Halo
		nj := b.MJ - 2*Halo
		return ni * nj, func(idx int) (int, int, int) {
			li := Halo + idx%ni
			lj := Halo + idx/ni
			return b.LIdx(li, lj, Halo), b.MI * b.MJ, b.Own.NK()
		}
	}
}

// cmpBits asserts bit-for-bit equality of two float64 slices.
func cmpBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: index %d: fused %v (%#016x) != reference %v (%#016x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// equivCase builds one randomized block configuration.
type equivCase struct {
	name    string
	build   func() *grid.Grid
	viscous [3]bool
	holes   bool
	// carve marks fixed holes after the state is seeded; signedZeros swaps
	// exact −0 entries into the RHS before the ADI comparison.
	carve       func(b *Block)
	signedZeros bool
}

func equivCases() []equivCase {
	return []equivCase{
		{
			name:    "airfoil-2d-wrap-viscous",
			build:   func() *grid.Grid { g := gridgen.AirfoilOGrid(0, "airfoil", 64, 24, 3); g.Turbulent = true; return g },
			viscous: [3]bool{false, true, false},
			holes:   false,
		},
		{
			name:    "airfoil-2d-holes",
			build:   func() *grid.Grid { return gridgen.AirfoilOGrid(0, "airfoil", 48, 20, 2.5) },
			viscous: [3]bool{false, true, false},
			holes:   true,
		},
		{
			name: "body-3d-wrap-viscous",
			build: func() *grid.Grid {
				return gridgen.BodyOfRevolutionGrid(0, "store", 20, 12, 10, gridgen.OgiveProfile(3, 0.25), 1.5)
			},
			viscous: [3]bool{true, true, true},
			holes:   true,
		},
		{
			name: "cartesian-3d-inviscid",
			build: func() *grid.Grid {
				return gridgen.CartesianBox(0, "bg", 16, 12, 10,
					geom.Box{Min: geom.Vec3{X: -2, Y: -2, Z: -2}, Max: geom.Vec3{X: 2, Y: 2, Z: 2}})
			},
			holes: true,
		},
		{
			// Fixed holes put an invalid point on the low side, the high
			// side and both sides of an updatable point's interfaces in
			// every direction, inside a patch of exactly uniform state
			// where every difference is a signed zero: a flux that is
			// skipped and a flux that is added as zero differ only there.
			name: "cartesian-3d-carved-uniform-patch",
			build: func() *grid.Grid {
				return gridgen.CartesianBox(0, "bg", 16, 14, 12,
					geom.Box{Min: geom.Vec3{X: -2, Y: -2, Z: -2}, Max: geom.Vec3{X: 2, Y: 2, Z: 2}})
			},
			carve:       carveInterfaceHoles,
			signedZeros: true,
		},
	}
}

// carveInterfaceHoles makes the state exactly uniform on local indices
// [4,15]×[4,11]×[4,9], then marks as holes one isolated point (its six
// neighbors each lose one interface, the points two away lose the fourth
// difference) and, per direction, the two neighbors of one field point.
func carveInterfaceHoles(b *Block) {
	qf := b.FS.Conserved()
	for lk := 4; lk <= 9; lk++ {
		for lj := 4; lj <= 11; lj++ {
			for li := 4; li <= 15; li++ {
				b.SetQ(b.LIdx(li, lj, lk), qf)
			}
		}
	}
	b.IBl[b.LIdx(6, 6, 5)] = grid.IBHole
	mid := b.LIdx(10, 8, 6)
	for d := 0; d < 3; d++ {
		str := b.strideOf(d)
		b.IBl[mid+(d+1)*b.strideOf((d+1)%3)-str] = grid.IBHole
		b.IBl[mid+(d+1)*b.strideOf((d+1)%3)+str] = grid.IBHole
	}
	b.classifyPoints()
}

// buildEquivBlock constructs and randomizes a block: perturbed conserved
// state everywhere (ghosts included), random grid speeds, and optionally
// random hole/fringe marks in the interior.
func buildEquivBlock(tc equivCase, seed int64) *Block {
	g := tc.build()
	fs := Freestream{Mach: 0.8, Alpha: 0.02, Re: 1e6}
	b := NewBlock(g, g.Full(), fs)
	b.SetViscousDirs(tc.viscous)
	b.ensureScratch()

	rng := rand.New(rand.NewSource(seed))
	qf := fs.Conserved()
	n := b.NPointsLocal()
	for p := 0; p < n; p++ {
		for c := 0; c < 5; c++ {
			b.Q[5*p+c] = qf[c] * (1 + 0.2*(rng.Float64()-0.5))
		}
		b.XT[p] = 0.05 * (rng.Float64() - 0.5)
		b.YT[p] = 0.05 * (rng.Float64() - 0.5)
		b.ZT[p] = 0.05 * (rng.Float64() - 0.5)
	}
	// The cached freestream residual was computed with zero grid speeds;
	// refresh it so both kernels see the randomized XT/YT/ZT.
	b.RefreshFreestreamResidual()
	if tc.holes {
		for p := 0; p < n; p++ {
			switch r := rng.Float64(); {
			case r < 0.03:
				b.IBl[p] = grid.IBHole
			case r < 0.07:
				b.IBl[p] = grid.IBFringe
			}
		}
		b.classifyPoints()
	}
	if tc.carve != nil {
		tc.carve(b)
	}
	if b.MuT != nil {
		b.ComputeTurbulence()
	}
	return b
}

// TestKernelEquivalence runs the fused kernels against the naive references
// on every randomized configuration and demands exact agreement.
func TestKernelEquivalence(t *testing.T) {
	const dt = 0.01
	for _, tc := range equivCases() {
		for trial := 0; trial < 3; trial++ {
			t.Run(fmt.Sprintf("%s/trial%d", tc.name, trial), func(t *testing.T) {
				b := buildEquivBlock(tc, int64(1000*trial+7))
				n := b.NPointsLocal()
				rs := newRefScratch(n)

				// RHS: reference first (reads only Q/metrics/masks).
				refRHS := make([]float64, 5*n)
				refComputeRHS(b, rs, dt, refRHS)
				b.ComputeRHS(dt)
				cmpBits(t, "freestream residual", b.scr.rhs0, rs.rhs0)
				cmpBits(t, "ComputeRHS", b.RHS, refRHS)

				// ADI: both start from the same RHS; the reference uses the
				// sig fields ComputeRHS just filled (identical by the check
				// above since rs.sig was compared implicitly through RHS).
				if tc.signedZeros {
					negZero := math.Copysign(0, -1)
					for p := trial; p < n; p += 7 {
						if !b.scr.upd[p] {
							continue
						}
						b.RHS[5*p+p%5] = negZero
						if p%3 == 0 {
							for c := 0; c < 5; c++ {
								b.RHS[5*p+c] = negZero
							}
						}
					}
				}
				refDQ := append([]float64(nil), b.RHS...)
				lam := make([]float64, 5*n)
				cpAll := make([]float64, 5*n)
				refSolveADI(b, dt, refDQ, lam, cpAll)
				w := par.NewWorld(1, machine.SP2())
				w.Run(func(r *par.Rank) {
					b.SolveADI(r, dt)
				})
				cmpBits(t, "SolveADI", b.DQ, refDQ)

				// ApplyUpdate.
				refQ := append([]float64(nil), b.Q...)
				refApplyUpdate(b, refQ)
				b.ApplyUpdate()
				cmpBits(t, "ApplyUpdate", b.Q, refQ)

				// Halo pack/unpack on every live face.
				ndim := 3
				if b.TwoD {
					ndim = 2
				}
				rng := rand.New(rand.NewSource(99))
				for dim := 0; dim < ndim; dim++ {
					for side := 0; side < 2; side++ {
						got := b.packFace(nil, dim, side)
						want := refPackFace(b, nil, dim, side)
						cmpBits(t, fmt.Sprintf("packFace d%ds%d", dim, side), got, want)

						data := make([]float64, len(got))
						for i := range data {
							data[i] = rng.NormFloat64()
						}
						refQ2 := append([]float64(nil), b.Q...)
						refUnpackFace(b, refQ2, dim, side, data)
						b.unpackFace(dim, side, data)
						cmpBits(t, fmt.Sprintf("unpackFace d%ds%d", dim, side), b.Q, refQ2)
					}
				}
			})
		}
	}
}

// TestSolveADIStaleCache changes Q at owned points between ComputeRHS and
// SolveADI, as SetFringe and ApplyUpdate do: the sweep must use the new Q
// (its opening pass re-evaluates Primitive), not the primitives ComputeRHS
// cached.
func TestSolveADIStaleCache(t *testing.T) {
	const dt = 0.01
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			b := buildEquivBlock(tc, 5)
			n := b.NPointsLocal()
			b.ComputeRHS(dt)
			rng := rand.New(rand.NewSource(6))
			b.eachInterior(func(p int) {
				if rng.Intn(4) == 0 {
					for c := 0; c < 5; c++ {
						b.Q[5*p+c] *= 1 + 0.1*(rng.Float64()-0.5)
					}
				}
			})
			refDQ := append([]float64(nil), b.RHS...)
			refSolveADI(b, dt, refDQ, make([]float64, 5*n), make([]float64, 5*n))
			runSerial(t, func(r *par.Rank) { b.SolveADI(r, dt) })
			cmpBits(t, "SolveADI after Q changed", b.DQ, refDQ)
		})
	}
}

// refApplyUpdate is the old closure-based update, writing into q.
func refApplyUpdate(b *Block, q []float64) {
	s := b.scr
	b.eachInterior(func(p int) {
		if !s.upd[p] {
			return
		}
		for c := 0; c < 5; c++ {
			q[5*p+c] += b.DQ[5*p+c]
		}
		if b.TwoD {
			q[5*p+3] = 0
		}
		if q[5*p] < 1e-6 {
			q[5*p] = 1e-6
		}
		var qp [5]float64
		copy(qp[:], q[5*p:5*p+5])
		rho, u, v, w, pr := Primitive(qp)
		if pr <= 1e-8 {
			pr = 1e-8
			q[5*p+4] = pr/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
		}
	})
}

// refPackFace is the old per-point halo pack.
func refPackFace(b *Block, out []float64, dim, side int) []float64 {
	ilo, ihi, jlo, jhi, klo, khi := b.faceSlabBounds(dim, side, true)
	for lk := klo; lk <= khi; lk++ {
		for lj := jlo; lj <= jhi; lj++ {
			for li := ilo; li <= ihi; li++ {
				p := b.LIdx(li, lj, lk)
				out = append(out, b.Q[5*p:5*p+5]...)
			}
		}
	}
	return out
}

// refUnpackFace is the old per-point halo unpack, writing into q.
func refUnpackFace(b *Block, q []float64, dim, side int, data []float64) {
	ilo, ihi, jlo, jhi, klo, khi := b.faceSlabBounds(dim, side, false)
	pos := 0
	for lk := klo; lk <= khi; lk++ {
		for lj := jlo; lj <= jhi; lj++ {
			for li := ilo; li <= ihi; li++ {
				p := b.LIdx(li, lj, lk)
				copy(q[5*p:5*p+5], data[pos:pos+5])
				pos += 5
			}
		}
	}
}

// refComputeMetrics is the previous computeMetrics: the determinant taken
// by Det and once more inside Inverse.
func refComputeMetrics(b *Block, met, jacs []float64) {
	for lk := 0; lk < b.MK; lk++ {
		for lj := 0; lj < b.MJ; lj++ {
			for li := 0; li < b.MI; li++ {
				n := b.LIdx(li, lj, lk)
				var m geom.Mat3
				m[0][0], m[1][0], m[2][0] = b.diff(li, lj, lk, 0)
				m[0][1], m[1][1], m[2][1] = b.diff(li, lj, lk, 1)
				if b.TwoD {
					m[0][2], m[1][2], m[2][2] = 0, 0, 1
				} else {
					m[0][2], m[1][2], m[2][2] = b.diff(li, lj, lk, 2)
				}
				det := m.Det()
				if det < 1e-12 {
					det = 1e-12
				}
				inv, ok := m.Inverse()
				if !ok {
					inv = geom.Identity3()
				}
				jac := 1 / det
				jacs[n] = jac
				for r := 0; r < 3; r++ {
					for c := 0; c < 3; c++ {
						met[9*n+3*r+c] = inv[r][c] / jac
					}
				}
			}
		}
	}
}

// TestComputeMetricsEquivalence holds RefreshGeometry's coordinates, metrics
// and Jacobians to the two-determinant reference, bit for bit, on a moving
// 3-D block, a periodic O-grid split across its seam, a 2-D block and a
// Cartesian block with collapsed (singular and inverted) cells.
func TestComputeMetricsEquivalence(t *testing.T) {
	fs := Freestream{Mach: 0.8, Alpha: 0.02, Re: 1e6}
	body := func() *grid.Grid {
		g := gridgen.BodyOfRevolutionGrid(0, "store", 20, 12, 10, gridgen.OgiveProfile(3, 0.25), 1.5)
		g.Moving = true
		return g
	}
	collapsed := func() *grid.Grid {
		g := gridgen.CartesianBox(0, "bg", 10, 9, 8,
			geom.Box{Min: geom.Vec3{X: -2, Y: -2, Z: -2}, Max: geom.Vec3{X: 2, Y: 2, Z: 2}})
		// A pinched plane makes the cells next to it singular; a folded one
		// gives a negative determinant.
		for k := 0; k < g.NK; k++ {
			for j := 0; j < g.NJ; j++ {
				g.X[g.Idx(4, j, k)] = g.X[g.Idx(3, j, k)]
				g.X[g.Idx(5, j, k)] = g.X[g.Idx(3, j, k)]
				g.X[g.Idx(8, j, k)] = g.X[g.Idx(6, j, k)]
			}
		}
		return g
	}
	cases := []struct {
		name string
		g    *grid.Grid
		own  func(g *grid.Grid) grid.IBox
		move bool
	}{
		{"moving-3d", body(), func(g *grid.Grid) grid.IBox { return g.Full() }, true},
		{"moving-3d-part", body(), func(g *grid.Grid) grid.IBox {
			return grid.IBox{ILo: 12, IHi: g.NI - 1, JLo: 0, JHi: 6, KLo: 3, KHi: g.NK - 1}
		}, true},
		{"ogrid-2d-seam", gridgen.AirfoilOGrid(0, "airfoil", 64, 24, 3), func(g *grid.Grid) grid.IBox {
			return grid.IBox{ILo: 0, IHi: 20, JLo: 0, JHi: g.NJ - 1, KLo: 0, KHi: 0}
		}, false},
		{"ogrid-2d-whole", gridgen.AirfoilOGrid(0, "airfoil", 48, 20, 2.5), func(g *grid.Grid) grid.IBox { return g.Full() }, false},
		{"cartesian-3d-collapsed", collapsed(), func(g *grid.Grid) grid.IBox { return g.Full() }, false},
	}
	for _, tc := range cases {
		own := tc.own(tc.g)
		b := NewBlock(tc.g, own, fs)
		if tc.move {
			tc.g.ApplyTransform(geom.Transform{
				R: geom.RotZ(0.07).Mul(geom.RotX(-0.03)), T: geom.Vec3{X: 0.11, Y: -0.05, Z: 0.02}})
			b.RefreshGeometry(0.01)
		}
		n := b.NPointsLocal()
		for p := 0; p < n; p++ {
			i, j, k := b.GlobalFromLocal(p%b.MI, p/b.MI%b.MJ, p/(b.MI*b.MJ))
			if own.Contains(i, j, k) {
				if at := tc.g.At(i, j, k); b.XL[p] != at.X || b.YL[p] != at.Y || b.ZL[p] != at.Z {
					t.Fatalf("%s: local coordinates of (%d,%d,%d) differ from the grid's", tc.name, i, j, k)
				}
			}
		}
		met, jac := make([]float64, 9*n), make([]float64, n)
		refComputeMetrics(b, met, jac)
		cmpBits(t, tc.name+" Met", b.Met, met)
		cmpBits(t, tc.name+" Jac", b.Jac, jac)
		clamped := 0
		for _, j := range jac {
			if j == 1/1e-12 {
				clamped++
			}
		}
		if tc.name == "cartesian-3d-collapsed" && clamped == 0 {
			t.Errorf("%s: no point took the degenerate-cell path", tc.name)
		}
	}
}

// TestStoreLenIsWhatABlockTakes builds blocks in stores of exactly StoreLen
// values between guard words: construction plus first-use scratch must carve
// all of it, hand out no value twice and write nothing outside it.
func TestStoreLenIsWhatABlockTakes(t *testing.T) {
	fs := Freestream{Mach: 0.8, Alpha: 0.02, Re: 1e6}
	turbulent := gridgen.AirfoilOGrid(0, "airfoil", 64, 24, 3)
	turbulent.Turbulent = true
	body := func() *grid.Grid {
		return gridgen.BodyOfRevolutionGrid(0, "store", 20, 12, 10, gridgen.OgiveProfile(3, 0.25), 1.5)
	}
	turbulent3 := body()
	turbulent3.Turbulent = true
	for _, tc := range []struct {
		name string
		g    *grid.Grid
	}{
		{"2d-turbulent", turbulent},
		{"2d-laminar", gridgen.AirfoilOGrid(0, "airfoil", 48, 20, 2.5)},
		{"3d-turbulent", turbulent3},
		{"3d-laminar", body()},
	} {
		g := tc.g
		boxes := []grid.IBox{g.Full()}
		boxes[0].IHi = g.NI/2 - 1
		boxes = append(boxes, g.Full())
		boxes[1].ILo = g.NI / 2
		want := StoreLen(g, boxes[1])
		const guard = 16
		mem := make([]float64, guard+want+guard)
		for i := range mem {
			mem[i] = math.NaN()
		}
		clear(mem[guard : guard+want]) // BuildBlock takes zeros
		b := BuildBlock(g, boxes, []int{0, 1}, 1, fs, mem[guard:guard+want])
		if (b.MuT != nil) != g.Turbulent {
			t.Fatalf("%s: MuT allocated = %v on a grid with Turbulent = %v", tc.name, b.MuT != nil, g.Turbulent)
		}
		b.ensureScratch()
		if len(b.store) != 0 {
			t.Errorf("%s: %d of %d values left in the store", tc.name, len(b.store), want)
		}
		s := b.scr
		arrays := [][]float64{b.Q, b.DQ, b.RHS, b.XL, b.YL, b.ZL, b.XT, b.YT, b.ZT, b.Met, b.Jac, b.MuT,
			s.fw, s.pr, s.prim, s.sig[0], s.sig[1], s.sig[2], s.rhs0, s.cpAll}
		total := 0
		for _, a := range arrays {
			total += len(a)
			if cap(a) != len(a) {
				t.Errorf("%s: an array of %d values can grow to %d", tc.name, len(a), cap(a))
			}
		}
		if total != want {
			t.Errorf("%s: arrays hold %d values, StoreLen reports %d", tc.name, total, want)
		}
		// Disjoint and inside: mark every array, then every store value
		// must carry exactly one mark and every guard word none.
		for i := range mem {
			mem[i] = 0
		}
		for _, a := range arrays {
			for i := range a {
				a[i]++
			}
		}
		for i, v := range mem {
			if in := i >= guard && i < guard+want; v != map[bool]float64{false: 0, true: 1}[in] {
				t.Fatalf("%s: value %d of the store region is covered %v times", tc.name, i-guard, v)
			}
		}
		if b.Nbr[0][0].Rank != 0 || b.Nbr[0][1].Rank != 0 || !b.Nbr[0][1].Wrap {
			t.Errorf("%s: BuildBlock wired i neighbors %+v", tc.name, b.Nbr[0])
		}
		// NewBlock brings a store of exactly that size and uses it up.
		self := NewBlock(g, boxes[1], fs)
		state := len(self.Q) + len(self.DQ) + len(self.RHS) + 6*len(self.XL) + len(self.Met) + len(self.Jac) + len(self.MuT)
		self.ensureScratch()
		if state+len(self.scr.fw)+len(self.scr.pr)+len(self.scr.prim)+3*len(self.scr.sig[0])+len(self.scr.rhs0)+len(self.scr.cpAll) != want || len(self.store) != 0 {
			t.Errorf("%s: NewBlock does not take StoreLen values (%d left in its store)", tc.name, len(self.store))
		}
	}
}
