package flow

import "math"

// The diagonalized approximate-factorization scheme (Pulliam & Chaussee)
// replaces each implicit flux Jacobian A_k = ∂F̂_k/∂Q with its similarity
// decomposition T_k Λ_k T_k⁻¹, turning each ADI factor into five scalar
// tridiagonal solves bracketed by 5x5 eigenvector products. The matrices
// below are the standard generalized-coordinate Euler eigensystem; tests
// verify T Λ T⁻¹ against a finite-difference flux Jacobian.

// Eigen holds the similarity transform of one direction's flux Jacobian at
// one point.
type Eigen struct {
	// Lam are the eigenvalues [θ, θ, θ, θ+c|∇k|, θ−c|∇k|] including the
	// grid-motion term kt.
	Lam [5]float64
	T   [5][5]float64
	Ti  [5][5]float64
}

// NewEigen builds the eigensystem for conserved state q, direction metric
// (kx,ky,kz) (unscaled, i.e. ∇k/J times J — any common scale factors apply
// to the eigenvalues only), and grid-motion term kt.
func NewEigen(q [5]float64, kx, ky, kz, kt float64) Eigen {
	var e Eigen
	e.Set(q, kx, ky, kz, kt)
	return e
}

// Set fills the eigensystem in place. It is the matrix-form statement of
// the transform: the ADI kernel (eigenPass) forms the same rows as scalars
// and is held to these expressions bit for bit by the kernel-equivalence
// tests.
func (e *Eigen) Set(q [5]float64, kx, ky, kz, kt float64) {
	rho, u, v, w, p := Primitive(q)
	a := SoundSpeed(rho, p)
	gm, nx, ny, nz := unitNormal(kx, ky, kz)
	theta := kx*u + ky*v + kz*w + kt
	thN := nx*u + ny*v + nz*w // normalized contravariant velocity (no kt)

	phi2 := 0.5 * (Gamma - 1) * (u*u + v*v + w*w)
	alpha := rho / (math.Sqrt2 * a)
	beta := 1 / (math.Sqrt2 * rho * a)
	g1 := Gamma - 1

	e.Lam = [5]float64{theta, theta, theta, theta + a*gm, theta - a*gm}

	e.T = [5][5]float64{
		{nx, ny, nz, alpha, alpha},
		{nx * u, ny*u - nz*rho, nz*u + ny*rho, alpha * (u + nx*a), alpha * (u - nx*a)},
		{nx*v + nz*rho, ny * v, nz*v - nx*rho, alpha * (v + ny*a), alpha * (v - ny*a)},
		{nx*w - ny*rho, ny*w + nx*rho, nz * w, alpha * (w + nz*a), alpha * (w - nz*a)},
		{
			nx*phi2/g1 + rho*(nz*v-ny*w),
			ny*phi2/g1 + rho*(nx*w-nz*u),
			nz*phi2/g1 + rho*(ny*u-nx*v),
			alpha * ((phi2+a*a)/g1 + a*thN),
			alpha * ((phi2+a*a)/g1 - a*thN),
		},
	}

	e.Ti = [5][5]float64{
		{
			nx*(1-phi2/(a*a)) - (nz*v-ny*w)/rho,
			nx * g1 * u / (a * a),
			nx*g1*v/(a*a) + nz/rho,
			nx*g1*w/(a*a) - ny/rho,
			-nx * g1 / (a * a),
		},
		{
			ny*(1-phi2/(a*a)) - (nx*w-nz*u)/rho,
			ny*g1*u/(a*a) - nz/rho,
			ny * g1 * v / (a * a),
			ny*g1*w/(a*a) + nx/rho,
			-ny * g1 / (a * a),
		},
		{
			nz*(1-phi2/(a*a)) - (ny*u-nx*v)/rho,
			nz*g1*u/(a*a) + ny/rho,
			nz*g1*v/(a*a) - nx/rho,
			nz * g1 * w / (a * a),
			-nz * g1 / (a * a),
		},
		{beta * (phi2 - a*thN), beta * (nx*a - g1*u), beta * (ny*a - g1*v), beta * (nz*a - g1*w), beta * g1},
		{beta * (phi2 + a*thN), beta * (-nx*a - g1*u), beta * (-ny*a - g1*v), beta * (-nz*a - g1*w), beta * g1},
	}
}

// unitNormal returns |∇k|, floored away from zero, and ∇k/|∇k|.
func unitNormal(kx, ky, kz float64) (gm, nx, ny, nz float64) {
	gm = math.Sqrt(kx*kx + ky*ky + kz*kz)
	if gm < 1e-300 {
		gm = 1e-300
	}
	return gm, kx / gm, ky / gm, kz / gm
}

// MulT applies the right eigenvector matrix: out = T · x.
func (e *Eigen) MulT(x [5]float64) [5]float64 {
	var out [5]float64
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += e.T[i][j] * x[j]
		}
		out[i] = s
	}
	return out
}

// MulTi applies the left eigenvector matrix: out = T⁻¹ · x.
func (e *Eigen) MulTi(x [5]float64) [5]float64 {
	var out [5]float64
	for i := 0; i < 5; i++ {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += e.Ti[i][j] * x[j]
		}
		out[i] = s
	}
	return out
}

// Flux returns the generalized-coordinate inviscid flux
// F̂ = [ρU, ρuU + kx p, ρvU + ky p, ρwU + kz p, (e+p)U − kt p]
// for metric (kx,ky,kz) and grid-motion term kt, where
// U = kt + kx u + ky v + kz w.
func Flux(q [5]float64, kx, ky, kz, kt float64) [5]float64 {
	rho, u, v, w, p := Primitive(q)
	U := kt + kx*u + ky*v + kz*w
	return [5]float64{
		rho * U,
		q[1]*U + kx*p,
		q[2]*U + ky*p,
		q[3]*U + kz*p,
		(q[4]+p)*U - kt*p,
	}
}

// SpectralRadius returns |U| + c|∇k| for metric (kx,ky,kz) and motion kt.
func SpectralRadius(q [5]float64, kx, ky, kz, kt float64) float64 {
	rho, u, v, w, p := Primitive(q)
	a := SoundSpeed(rho, p)
	U := kt + kx*u + ky*v + kz*w
	return math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
}
