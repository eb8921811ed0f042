package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func quatBits(q Quat) [4]uint64 {
	return [4]uint64{math.Float64bits(q.W), math.Float64bits(q.X), math.Float64bits(q.Y), math.Float64bits(q.Z)}
}

// rotVecGoldenInputs are QuatFromRotVec inputs on both sides of the
// small-angle cutoff, down to exactly 1e-12 and the next float below it.
var rotVecGoldenInputs = []Vec3{
	V3(0.3, -0.2, 0.1),
	V3(3, 4, 0),
	V3(0.0004, -0.0012, 0.00002),
	V3(1e-12, 0, 0),
	V3(math.Nextafter(1e-12, 0), 0, 0),
	V3(0, -6e-13, 8e-13),
}

// rotVecGolden holds QuatFromRotVec(rotVecGoldenInputs[i]) as float64
// bits, recorded while QuatFromRotVec still took its norm twice.
var rotVecGolden = [][4]uint64{
	{0x3fef710ec1e04df7, 0x3fc31694009a77b4, 0xbfb9737000cdf4f0, 0x3fa9737000cdf4f0},
	{0xbfe9a2f7ef858b7d, 0x3fd6fb3876f959a0, 0x3fdea44b494c7780, 0x0000000000000000},
	{0x3fefffff94995699, 0x3f2a36e2cdc862fd, 0xbf43a92a1a564a3d, 0x3ee4f8b5716d1bfe},
	{0x3ff0000000000000, 0x3d619799812dea11, 0x0000000000000000, 0x0000000000000000},
	{0x3ff0000000000000, 0x3d619799812dea10, 0x0000000000000000, 0x0000000000000000},
	{0x3ff0000000000000, 0x0000000000000000, 0xbd551c51ce3718e1, 0x3d5c25c268497682},
}

// TestQuatFromRotVecGolden pins QuatFromRotVec bit for bit.
func TestQuatFromRotVecGolden(t *testing.T) {
	if len(rotVecGolden) != len(rotVecGoldenInputs) {
		t.Fatalf("%d goldens for %d inputs", len(rotVecGolden), len(rotVecGoldenInputs))
	}
	for i, rv := range rotVecGoldenInputs {
		if got := quatBits(QuatFromRotVec(rv)); got != rotVecGolden[i] {
			t.Errorf("QuatFromRotVec(%v) bits = %#x, want %#x", rv, got, rotVecGolden[i])
		}
	}
}

// TestQuatFromRotVecIsAxisAngle pins QuatFromRotVec(rv) to
// QuatFromAxisAngle(rv, |rv|) bit for bit from the small-angle cutoff up.
func TestQuatFromRotVecIsAxisAngle(t *testing.T) {
	same := func(rv Vec3) bool {
		if rv.Norm() < 1e-12 {
			return true // the small-angle expansion, not an axis-angle
		}
		return quatBits(QuatFromRotVec(rv)) == quatBits(QuatFromAxisAngle(rv, rv.Norm()))
	}
	f := func(x, y, z float64, exp uint8) bool {
		// Scale a direction over magnitudes from 1e-12 to ~1e3.
		s := math.Pow(10, float64(exp%16)-12)
		return same(V3(math.Mod(clampInput(x), 1)*s, math.Mod(clampInput(y), 1)*s, math.Mod(clampInput(z), 1)*s))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	for _, n := range []float64{1e-12, math.Nextafter(1e-12, 1), 2e-12} {
		for _, rv := range []Vec3{V3(n, 0, 0), V3(0, -n, 0), V3(0.6*n, 0, -0.8*n)} {
			if !same(rv) {
				t.Errorf("QuatFromRotVec(%v) differs from QuatFromAxisAngle at the cutoff", rv)
			}
		}
	}
}

// BenchmarkQuatIntegrate times one attitude integration over a 250 Hz
// step, the shape of the EKF's and the rigid body's per-step call.
func BenchmarkQuatIntegrate(b *testing.B) {
	q := QuatFromEuler(0.1, -0.05, 1.2)
	omega := V3(0.3, -0.2, 0.05)
	for i := 0; i < b.N; i++ {
		q = q.Integrate(omega, 0.004)
	}
	_ = q
}
