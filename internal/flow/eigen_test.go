package flow

import (
	"math"
	"math/rand"
	"testing"
)

// The standard generalized-coordinate Euler eigensystem in matrix form, the
// reference the ADI kernel's scalar rows are held to; tests verify T Λ T⁻¹
// against a finite-difference flux Jacobian.

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

// numJacobian computes ∂F̂/∂Q by central finite differences.
func numJacobian(q [5]float64, kx, ky, kz, kt float64) [5][5]float64 {
	var jac [5][5]float64
	for j := 0; j < 5; j++ {
		h := 1e-7 * (1 + math.Abs(q[j]))
		qp, qm := q, q
		qp[j] += h
		qm[j] -= h
		fp := Flux(qp, kx, ky, kz, kt)
		fm := Flux(qm, kx, ky, kz, kt)
		for i := 0; i < 5; i++ {
			jac[i][j] = (fp[i] - fm[i]) / (2 * h)
		}
	}
	return jac
}

func randomState(rng *rand.Rand) [5]float64 {
	rho := 0.5 + rng.Float64()
	u := rng.NormFloat64() * 0.5
	v := rng.NormFloat64() * 0.5
	w := rng.NormFloat64() * 0.5
	p := 0.3 + rng.Float64()
	e := p/(Gamma-1) + 0.5*rho*(u*u+v*v+w*w)
	return [5]float64{rho, rho * u, rho * v, rho * w, e}
}

func TestEigenSimilarityMatchesJacobian(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		q := randomState(rng)
		kx := rng.NormFloat64()
		ky := rng.NormFloat64()
		kz := rng.NormFloat64()
		kt := rng.NormFloat64() * 0.3
		if kx*kx+ky*ky+kz*kz < 0.01 {
			continue
		}
		e := NewEigen(q, kx, ky, kz, kt)
		want := numJacobian(q, kx, ky, kz, kt)
		// Reconstruct A = T Λ T⁻¹.
		var got [5][5]float64
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				s := 0.0
				for m := 0; m < 5; m++ {
					s += e.T[i][m] * e.Lam[m] * e.Ti[m][j]
				}
				got[i][j] = s
			}
		}
		scale := 0.0
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if a := math.Abs(want[i][j]); a > scale {
					scale = a
				}
			}
		}
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if diff := math.Abs(got[i][j] - want[i][j]); diff > 1e-4*(1+scale) {
					t.Fatalf("trial %d: A[%d][%d] = %v, want %v (diff %v)\nq=%v k=(%v,%v,%v) kt=%v",
						trial, i, j, got[i][j], want[i][j], diff, q, kx, ky, kz, kt)
				}
			}
		}
	}
}

func TestEigenInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		q := randomState(rng)
		e := NewEigen(q, 0.3+rng.Float64(), rng.NormFloat64(), rng.NormFloat64(), 0)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				s := 0.0
				for m := 0; m < 5; m++ {
					s += e.T[i][m] * e.Ti[m][j]
				}
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(s-want) > 1e-10 {
					t.Fatalf("trial %d: (T·T⁻¹)[%d][%d] = %v", trial, i, j, s)
				}
			}
		}
	}
}

func TestEigenMulRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := randomState(rng)
	e := NewEigen(q, 1, 0.2, -0.4, 0.1)
	x := [5]float64{0.3, -1.2, 0.8, 0.05, 2.1}
	y := e.MulT(e.MulTi(x))
	for i := 0; i < 5; i++ {
		if math.Abs(y[i]-x[i]) > 1e-10 {
			t.Fatalf("round trip component %d: %v vs %v", i, y[i], x[i])
		}
	}
}

func TestFluxFreestreamConsistency(t *testing.T) {
	fs := Freestream{Mach: 0.8}
	q := fs.Conserved()
	// Flux along a direction orthogonal to the flow with no motion:
	// only pressure terms survive in momentum.
	f := Flux(q, 0, 1, 0, 0)
	if math.Abs(f[0]) > 1e-12 {
		t.Errorf("mass flux across streamline = %v", f[0])
	}
	if math.Abs(f[2]-fs.Pressure()) > 1e-12 {
		t.Errorf("y-momentum flux = %v, want p = %v", f[2], fs.Pressure())
	}
	// Along the flow: mass flux = ρ u kx.
	f = Flux(q, 1, 0, 0, 0)
	if math.Abs(f[0]-0.8) > 1e-12 {
		t.Errorf("mass flux = %v, want 0.8", f[0])
	}
}

func TestSpectralRadius(t *testing.T) {
	fs := Freestream{Mach: 0.5}
	q := fs.Conserved()
	// σ = |u| + a for unit metric: 0.5 + 1.
	got := SpectralRadius(q, 1, 0, 0, 0)
	if math.Abs(got-1.5) > 1e-12 {
		t.Errorf("spectral radius = %v, want 1.5", got)
	}
	// Grid motion shifts the convective part.
	got = SpectralRadius(q, 1, 0, 0, -0.5)
	if math.Abs(got-1.0) > 1e-12 {
		t.Errorf("moving spectral radius = %v, want 1.0", got)
	}
}

func TestPrimitiveFloorsDegenerate(t *testing.T) {
	rho, _, _, _, p := Primitive([5]float64{-1, 0, 0, 0, -1})
	if rho <= 0 || p <= 0 {
		t.Errorf("Primitive should floor: rho=%v p=%v", rho, p)
	}
}

func TestFreestreamConserved(t *testing.T) {
	fs := Freestream{Mach: 0.8, Alpha: math.Pi / 36} // 5 degrees
	q := fs.Conserved()
	rho, u, v, w, p := Primitive(q)
	if math.Abs(rho-1) > 1e-12 || math.Abs(p-1/Gamma) > 1e-12 {
		t.Errorf("rho=%v p=%v", rho, p)
	}
	if math.Abs(math.Hypot(u, v)-0.8) > 1e-12 || w != 0 {
		t.Errorf("speed = %v", math.Hypot(u, v))
	}
	if math.Abs(v/u-math.Tan(math.Pi/36)) > 1e-12 {
		t.Errorf("alpha wrong: u=%v v=%v", u, v)
	}
	// Sound speed is 1 in this nondimensionalization.
	if a := SoundSpeed(rho, p); math.Abs(a-1) > 1e-12 {
		t.Errorf("a∞ = %v, want 1", a)
	}
}

func TestMuCoef(t *testing.T) {
	fs := Freestream{Mach: 0.8, Re: 1e6}
	if got := fs.MuCoef(); math.Abs(got-0.8e-6) > 1e-18 {
		t.Errorf("MuCoef = %v", got)
	}
	if (Freestream{Mach: 0.8}).MuCoef() != 0 {
		t.Error("inviscid MuCoef should be 0")
	}
}
