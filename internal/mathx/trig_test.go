package mathx

import (
	"math"
	"testing"
)

// TestSincosBitIdentical compares sincos with math.Sincos bit for bit
// (NaN payloads included): first at and around sincos's branch — signed
// zeros, subnormals, the 0.78 cutoff and π/4 from both sides, the largest
// finite value, ±Inf and NaN — then over millions of random inputs:
// uniform on the inline range and past it, uniform in log-magnitude over
// every finite exponent, and raw bit patterns.
func TestSincosBitIdentical(t *testing.T) {
	bad := 0
	check := func(x float64) {
		s, c := sincos(x)
		ws, wc := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(ws) || math.Float64bits(c) != math.Float64bits(wc) {
			bad++
			t.Errorf("sincos(%v) = %v, %v; math.Sincos = %v, %v", x, s, c, ws, wc)
		}
	}
	for _, x := range []float64{
		0,
		math.SmallestNonzeroFloat64, 0x1p-1030, math.Nextafter(0x1p-1022, 0), 0x1p-1022,
		1e-300, 1e-12, 1e-8, 2e-4, 0.5,
		math.Nextafter(0.78, 0), 0.78, math.Nextafter(0.78, 1),
		math.Nextafter(math.Pi/4, 0), math.Pi / 4, math.Nextafter(math.Pi/4, 1),
		1, math.Pi / 2, math.Pi, 1e9, math.MaxFloat64,
		math.Inf(1), math.NaN(),
	} {
		check(x)
		check(-x)
	}

	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	r := NewRand(1)
	for i := 0; i < n && bad < 10; i++ {
		var x float64
		switch i % 4 {
		case 0: // the inline range, both signs
			x = (2*r.Float64() - 1) * 0.78
		case 1: // across the cutoff and the first octants
			x = (2*r.Float64() - 1) * 2
		case 2: // every exponent, subnormals and overflow to ±Inf included
			x = math.Ldexp(1+r.Float64(), int(r.Uint64()%2100)-1074)
			if r.Uint64()&1 == 1 {
				x = -x
			}
		default: // any bit pattern, NaNs included
			x = math.Float64frombits(r.Uint64())
		}
		check(x)
	}
}
