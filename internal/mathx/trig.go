package mathx

import "math"

// sincos returns math.Sincos(x), bit for bit. Attitude integration takes
// the sine and cosine of a half step angle, far inside the first octant,
// on every physics step and every EKF predict. For 0 < |x| < 0.78
// math.Sincos's argument reduction leaves the octant index at 0 and the
// reduced argument at |x| itself (x·4/π < 1 with room to spare below
// π/4 ≈ 0.785), so its two kernel polynomials are evaluated here inline,
// with the same coefficients in the same operation order. Every other
// input (zero, larger angles, ±Inf, NaN) goes to math.Sincos.
func sincos(x float64) (sin, cos float64) {
	z := math.Abs(x)
	if !(z > 0 && z < 0.78) {
		return math.Sincos(x)
	}
	// Coefficients of math's sin.go (Cephes sin.c, Moshier).
	const (
		s0 = 1.58962301576546568060e-10
		s1 = -2.50507477628578072866e-8
		s2 = 2.75573136213857245213e-6
		s3 = -1.98412698295895385996e-4
		s4 = 8.33333333332211858878e-3
		s5 = -1.66666666666666307295e-1

		c0 = -1.13585365213876817300e-11
		c1 = 2.08757008419747316778e-9
		c2 = -2.75573141792967388112e-7
		c3 = 2.48015872888517045348e-5
		c4 = -1.38888888888730564116e-3
		c5 = 4.16666666666665929218e-2
	)
	zz := z * z
	cos = 1.0 - 0.5*zz + zz*zz*((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5)
	sin = z + z*zz*((((((s0*zz)+s1)*zz+s2)*zz+s3)*zz+s4)*zz+s5)
	if x < 0 {
		sin = -sin
	}
	return sin, cos
}
