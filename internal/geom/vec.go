// Package geom provides the small geometric vocabulary shared by the grid,
// flow, overset and six-DOF packages: 3-vectors, 3x3 matrices, quaternions,
// axis-aligned bounding boxes and rigid transforms.
package geom

import (
	"fmt"
	"math"
)

// Vec3 is a point or direction in R^3.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the inner product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the vector product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Norm2 returns the squared Euclidean length of v.
func (v Vec3) Norm2() float64 { return v.Dot(v) }

// Normalized returns v/|v|. It returns the zero vector if |v| == 0.
func (v Vec3) Normalized() Vec3 {
	n := v.Norm()
	if n == 0 {
		return Vec3{}
	}
	return v.Scale(1 / n)
}

// Dist returns |v-w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%g, %g, %g)", v.X, v.Y, v.Z) }

// Mat3 is a 3x3 matrix in row-major order.
type Mat3 [3][3]float64

// Identity3 returns the 3x3 identity matrix.
func Identity3() Mat3 {
	return Mat3{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}
}

// MulVec returns m·v.
func (m Mat3) MulVec(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Mul returns the matrix product m·n.
func (m Mat3) Mul(n Mat3) Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += m[i][k] * n[k][j]
			}
			r[i][j] = s
		}
	}
	return r
}

// Transpose returns mᵀ.
func (m Mat3) Transpose() Mat3 {
	var r Mat3
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			r[i][j] = m[j][i]
		}
	}
	return r
}

// Det returns the determinant of m.
func (m Mat3) Det() float64 {
	return m[0][0]*(m[1][1]*m[2][2]-m[1][2]*m[2][1]) -
		m[0][1]*(m[1][0]*m[2][2]-m[1][2]*m[2][0]) +
		m[0][2]*(m[1][0]*m[2][1]-m[1][1]*m[2][0])
}

// Inverse returns m⁻¹ and reports whether m is invertible. A singular matrix
// (|det| below 1e-300) returns the identity and false.
func (m Mat3) Inverse() (Mat3, bool) {
	r, _, ok := m.InverseDet()
	return r, ok
}

// InverseDet is Inverse that also returns the determinant it evaluated, for
// callers that need both.
func (m Mat3) InverseDet() (Mat3, float64, bool) {
	d := m.Det()
	if math.Abs(d) < 1e-300 {
		return Identity3(), d, false
	}
	inv := 1 / d
	var r Mat3
	r[0][0] = (m[1][1]*m[2][2] - m[1][2]*m[2][1]) * inv
	r[0][1] = (m[0][2]*m[2][1] - m[0][1]*m[2][2]) * inv
	r[0][2] = (m[0][1]*m[1][2] - m[0][2]*m[1][1]) * inv
	r[1][0] = (m[1][2]*m[2][0] - m[1][0]*m[2][2]) * inv
	r[1][1] = (m[0][0]*m[2][2] - m[0][2]*m[2][0]) * inv
	r[1][2] = (m[0][2]*m[1][0] - m[0][0]*m[1][2]) * inv
	r[2][0] = (m[1][0]*m[2][1] - m[1][1]*m[2][0]) * inv
	r[2][1] = (m[0][1]*m[2][0] - m[0][0]*m[2][1]) * inv
	r[2][2] = (m[0][0]*m[1][1] - m[0][1]*m[1][0]) * inv
	return r, d, true
}

// RotX returns the rotation matrix about the x axis by angle a (radians).
func RotX(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{1, 0, 0}, {0, c, -s}, {0, s, c}}
}

// RotY returns the rotation matrix about the y axis by angle a (radians).
func RotY(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{c, 0, s}, {0, 1, 0}, {-s, 0, c}}
}

// RotZ returns the rotation matrix about the z axis by angle a (radians).
func RotZ(a float64) Mat3 {
	c, s := math.Cos(a), math.Sin(a)
	return Mat3{{c, -s, 0}, {s, c, 0}, {0, 0, 1}}
}
