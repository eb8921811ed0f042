package mathx

import "math"

// ApproxEqual reports whether a and b agree to within tol (absolute
// difference). It is the tolerance compare the floatcmp analyzer points
// to: accumulated floating-point state must never be compared with ==,
// whose result flips with any reordering of arithmetic. NaN never
// compares equal to anything, matching IEEE semantics.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol
}

// FlushSubnormal returns 0 for an x below the smallest normal float64
// (|x| < 2^-1022, signed zeros included) and x otherwise; NaN and ±Inf
// pass through. A first-order lag x += (0-x)*k decays onto a subnormal
// fixed point, where x*k rounds to 0, and stays there; on x86 every
// operation on a subnormal then takes a microcode assist. Added to any
// operand of magnitude ≥ 2^-969, a subnormal is below half its ulp, so
// the sum is the same with 0 in its place.
func FlushSubnormal(x float64) float64 {
	if math.Abs(x) < 0x1p-1022 {
		return 0
	}
	return x
}
