package mathx

import (
	"fmt"
	"math"
)

// Quat is a unit quaternion representing a rotation, stored as
// (W, X, Y, Z) with W the scalar part. By convention throughout the
// simulator a Quat rotates vectors from the body frame to the world frame
// (Hamilton convention, right-handed).
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatFromAxisAngle returns the rotation of angle radians about the given
// axis. The axis need not be normalized; a zero axis yields the identity.
func QuatFromAxisAngle(axis Vec3, angle float64) Quat {
	return quatFromAxisNorm(axis, axis.Norm(), angle)
}

// quatFromAxisNorm is QuatFromAxisAngle given the axis norm n.
func quatFromAxisNorm(axis Vec3, n, angle float64) Quat {
	//lint:allow floatcmp exact zero-norm guard before dividing by the norm
	if n == 0 {
		return QuatIdentity()
	}
	// Sincos shares one argument reduction between the two values and is
	// bit-identical to separate Sin/Cos calls (same kernel polynomials).
	sinHalf, cosHalf := math.Sincos(angle / 2)
	s := sinHalf / n
	return Quat{W: cosHalf, X: axis.X * s, Y: axis.Y * s, Z: axis.Z * s}
}

// QuatFromEuler builds a rotation from aerospace Euler angles
// (roll about X, pitch about Y, yaw about Z), applied in yaw-pitch-roll
// order (ZYX convention), radians.
func QuatFromEuler(roll, pitch, yaw float64) Quat {
	sr, cr := math.Sincos(roll / 2)
	sp, cp := math.Sincos(pitch / 2)
	sy, cy := math.Sincos(yaw / 2)
	return Quat{
		W: cr*cp*cy + sr*sp*sy,
		X: sr*cp*cy - cr*sp*sy,
		Y: cr*sp*cy + sr*cp*sy,
		Z: cr*cp*sy - sr*sp*cy,
	}
}

// QuatFromRotVec builds a rotation from a rotation vector (axis * angle).
func QuatFromRotVec(rv Vec3) Quat {
	angle := rv.Norm()
	if angle < 1e-12 {
		// First-order small-angle expansion keeps prediction smooth.
		return Quat{W: 1, X: rv.X / 2, Y: rv.Y / 2, Z: rv.Z / 2}.Normalized()
	}
	// The axis norm is the angle: take it once.
	return quatFromAxisNorm(rv, angle, angle)
}

// QuatFromMatrix converts a rotation matrix (body → world) to a unit
// quaternion using Shepperd's method, choosing the numerically largest
// component first.
func QuatFromMatrix(m Mat3) Quat {
	tr := m.Trace()
	var q Quat
	switch {
	case tr > 0:
		s := math.Sqrt(tr+1) * 2
		q = Quat{
			W: s / 4,
			X: (m.M[2][1] - m.M[1][2]) / s,
			Y: (m.M[0][2] - m.M[2][0]) / s,
			Z: (m.M[1][0] - m.M[0][1]) / s,
		}
	case m.M[0][0] > m.M[1][1] && m.M[0][0] > m.M[2][2]:
		s := math.Sqrt(1+m.M[0][0]-m.M[1][1]-m.M[2][2]) * 2
		q = Quat{
			W: (m.M[2][1] - m.M[1][2]) / s,
			X: s / 4,
			Y: (m.M[0][1] + m.M[1][0]) / s,
			Z: (m.M[0][2] + m.M[2][0]) / s,
		}
	case m.M[1][1] > m.M[2][2]:
		s := math.Sqrt(1+m.M[1][1]-m.M[0][0]-m.M[2][2]) * 2
		q = Quat{
			W: (m.M[0][2] - m.M[2][0]) / s,
			X: (m.M[0][1] + m.M[1][0]) / s,
			Y: s / 4,
			Z: (m.M[1][2] + m.M[2][1]) / s,
		}
	default:
		s := math.Sqrt(1+m.M[2][2]-m.M[0][0]-m.M[1][1]) * 2
		q = Quat{
			W: (m.M[1][0] - m.M[0][1]) / s,
			X: (m.M[0][2] + m.M[2][0]) / s,
			Y: (m.M[1][2] + m.M[2][1]) / s,
			Z: s / 4,
		}
	}
	return q.Normalized()
}

// Mul returns the Hamilton product q*r (apply r first, then q).
func (q Quat) Mul(r Quat) Quat {
	return Quat{
		W: q.W*r.W - q.X*r.X - q.Y*r.Y - q.Z*r.Z,
		X: q.W*r.X + q.X*r.W + q.Y*r.Z - q.Z*r.Y,
		Y: q.W*r.Y - q.X*r.Z + q.Y*r.W + q.Z*r.X,
		Z: q.W*r.Z + q.X*r.Y - q.Y*r.X + q.Z*r.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion magnitude.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalized returns q scaled to unit norm. A zero quaternion becomes the
// identity, so downstream rotation code never sees an invalid rotation.
func (q Quat) Normalized() Quat {
	n := q.Norm()
	//lint:allow floatcmp exact zero-norm guard before dividing by the norm
	if n == 0 || math.IsNaN(n) || math.IsInf(n, 0) {
		return QuatIdentity()
	}
	return Quat{W: q.W / n, X: q.X / n, Y: q.Y / n, Z: q.Z / n}
}

// Rotate applies the rotation to v (body → world under the simulator's
// convention).
func (q Quat) Rotate(v Vec3) Vec3 {
	// v' = v + 2*qv × (qv × v + w*v)
	qv := Vec3{q.X, q.Y, q.Z}
	t := qv.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(qv.Cross(t))
}

// RotateInv applies the inverse rotation to v (world → body).
func (q Quat) RotateInv(v Vec3) Vec3 { return q.Conj().Rotate(v) }

// RotationMatrix returns the equivalent rotation matrix (body → world).
func (q Quat) RotationMatrix() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{M: [3][3]float64{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}}
}

// Euler returns the (roll, pitch, yaw) aerospace Euler angles in radians.
func (q Quat) Euler() (roll, pitch, yaw float64) {
	// Roll (x-axis rotation).
	sinr := 2 * (q.W*q.X + q.Y*q.Z)
	cosr := 1 - 2*(q.X*q.X+q.Y*q.Y)
	roll = math.Atan2(sinr, cosr)

	// Pitch (y-axis rotation), clamped at the gimbal-lock singularity.
	sinp := 2 * (q.W*q.Y - q.Z*q.X)
	if math.Abs(sinp) >= 1 {
		pitch = math.Copysign(math.Pi/2, sinp)
	} else {
		pitch = math.Asin(sinp)
	}

	// Yaw (z-axis rotation).
	siny := 2 * (q.W*q.Z + q.X*q.Y)
	cosy := 1 - 2*(q.Y*q.Y+q.Z*q.Z)
	yaw = math.Atan2(siny, cosy)
	return roll, pitch, yaw
}

// Integrate advances the rotation by body angular rate omega (rad/s) over
// dt seconds using the exact exponential map, and renormalizes.
func (q Quat) Integrate(omega Vec3, dt float64) Quat {
	dq := QuatFromRotVec(omega.Scale(dt))
	return q.Mul(dq).Normalized()
}

// AngleTo returns the absolute rotation angle in radians between q and r.
func (q Quat) AngleTo(r Quat) float64 {
	d := q.Conj().Mul(r)
	w := Clamp(math.Abs(d.W), 0, 1)
	return 2 * math.Acos(w)
}

// TiltAngle returns the angle in radians between the body Z axis and the
// world vertical — 0 for level hover, pi for fully inverted. It is the
// quantity the crash detector uses to decide a flip-over.
func (q Quat) TiltAngle() float64 {
	// World down expressed in the body frame; its Z component is cos(tilt).
	bodyDown := q.RotateInv(Vec3{0, 0, 1})
	return math.Acos(Clamp(bodyDown.Z, -1, 1))
}

// IsFinite reports whether all components are finite.
func (q Quat) IsFinite() bool {
	return isFinite(q.W) && isFinite(q.X) && isFinite(q.Y) && isFinite(q.Z)
}

// String implements fmt.Stringer.
func (q Quat) String() string {
	return fmt.Sprintf("q(%.4g, %.4g, %.4g, %.4g)", q.W, q.X, q.Y, q.Z)
}
