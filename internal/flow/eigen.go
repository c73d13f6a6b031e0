package flow

import "math"

// The diagonalized approximate-factorization scheme (Pulliam & Chaussee)
// replaces each implicit flux Jacobian A_k = ∂F̂_k/∂Q with its similarity
// decomposition T_k Λ_k T_k⁻¹, turning each ADI factor into five scalar
// tridiagonal solves bracketed by 5x5 eigenvector products. The ADI kernel
// (eigenPass) forms the matrices' rows as scalars; their matrix statement,
// Eigen, and the flux it diagonalizes live with the tests that hold the
// kernel to them (eigen_test.go).

// unitNormal returns |∇k|, floored away from zero, and ∇k/|∇k|.
func unitNormal(kx, ky, kz float64) (gm, nx, ny, nz float64) {
	gm = math.Sqrt(kx*kx + ky*ky + kz*kz)
	if gm < 1e-300 {
		gm = 1e-300
	}
	return gm, kx / gm, ky / gm, kz / gm
}

// SpectralRadius returns |U| + c|∇k| for metric (kx,ky,kz) and motion kt.
func SpectralRadius(q [5]float64, kx, ky, kz, kt float64) float64 {
	rho, u, v, w, p := Primitive(q)
	a := SoundSpeed(rho, p)
	U := kt + kx*u + ky*v + kz*w
	return math.Abs(U) + a*math.Sqrt(kx*kx+ky*ky+kz*kz)
}
