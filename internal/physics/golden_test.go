package physics

import (
	"math"
	"testing"

	"uavres/internal/mathx"
)

// goldenWrench is one Allocate input of TestMixerAllocateGolden.
type goldenWrench struct {
	name    string
	thrustN float64
	torque  mathx.Vec3
}

// goldenWrenches spans the allocation's branches on an airframe with n
// rotors of tMax newtons each: inside the envelope, the uniform upward
// shift (a negative rotor), the clip at the ceiling, both at once, signed
// zeros and a NaN torque.
func goldenWrenches(n int, tMax float64) []goldenWrench {
	full := float64(n) * tMax
	return []goldenWrench{
		{"hover", 0.5 * full, mathx.V3(0.02, -0.01, 0.003)},
		{"level", 0.3 * full, mathx.Zero3},
		{"shift", 0.05 * full, mathx.V3(2, -3, 0.5)},
		{"ceiling", 2 * full, mathx.V3(5, 5, 1)},
		{"shift_and_ceiling", 0.9 * full, mathx.V3(-40, 30, -8)},
		{"signed_zeros", math.Copysign(0, -1), mathx.V3(math.Copysign(0, -1), 0, math.Copysign(0, -1))},
		{"nan_roll", 0.5 * full, mathx.V3(math.NaN(), 0.1, 0)},
	}
}

// allocateGolden holds Allocate's rotor commands as float64 bits, per
// airframe and wrench (goldenWrenches order), recorded before Allocate's
// extremum search moved from math.Min/math.Max to the builtin min/max.
var allocateGolden = map[Airframe][][]uint64{
	QuadX: {
		{0x3fdf3ceb08999cbd, 0x3fdff6482a999676, 0x3fe042a5a0b332ad, 0x3fe023c0c5b333b9}, // hover
		{0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333}, // level
		{0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // shift
		{0x0000000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // ceiling
		{0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000}, // shift_and_ceiling
		{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000}, // signed_zeros
		{0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001}, // nan_roll
	},
	HexaX: {
		{0x3fdf8561a3b25131, 0x3fe0050197c790f4, 0x3fdfb7d4bf1003eb, 0x3fe03d4f2e26d767, 0x3fdff5fcd070de19, 0x3fe02415a077fe0b}, // hover
		{0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333}, // level
		{0x0000000000000000, 0x3ff0000000000000, 0x3fed8f7208e6b82f, 0x3ff0000000000000, 0x3fefd8ca15846d29, 0x3ff0000000000000}, // shift
		{0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // ceiling
		{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000}, // shift_and_ceiling
		{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x8000000000000000, 0x0000000000000000, 0x0000000000000000}, // signed_zeros
		{0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001}, // nan_roll
	},
	OctoX: {
		{0x3fdfa7e5d974d16f, 0x3fe0013cd4ab707e, 0x3fdfaccb80d2e842, 0x3fe01b54d563299b, 0x3fdff1b3c024c82b, 0x3fe031f65e87c2b5, 0x3fdfecce18c6b157, 0x3fe017de5dd00999}, // hover
		{0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333, 0x3fd3333333333333}, // level
		{0x0000000000000000, 0x3ff0000000000000, 0x3fd8362b510a7475, 0x3ff0000000000000, 0x3fee2eb4d234e273, 0x3ff0000000000000, 0x3fe2139f29afa839, 0x3ff0000000000000}, // shift
		{0x3ff0000000000000, 0x3ff0000000000000, 0x3fb658b9f275f577, 0x3ff0000000000000, 0x3fe31f03ad6dda49, 0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // ceiling
		{0x3ff0000000000000, 0x3ff0000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x0000000000000000, 0x3ff0000000000000, 0x3ff0000000000000}, // shift_and_ceiling
		{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x8000000000000000, 0x0000000000000000, 0x0000000000000000}, // signed_zeros
		{0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001, 0x7ff8000000000001}, // nan_roll
	},
}

// TestMixerAllocateGolden pins Allocate bit for bit on every airframe.
func TestMixerAllocateGolden(t *testing.T) {
	for _, layout := range Airframes() {
		p := DefaultParams()
		p.Layout = layout
		m := NewMixer(p)
		want := allocateGolden[layout]
		for k, w := range goldenWrenches(m.N(), m.MaxThrustPerRotorN()) {
			cmd := m.Allocate(w.thrustN, w.torque)
			if k >= len(want) || len(want[k]) != m.N() {
				t.Fatalf("%v: no golden for wrench %s", layout, w.name)
			}
			for i := 0; i < m.N(); i++ {
				if got := math.Float64bits(cmd[i]); got != want[k][i] {
					t.Errorf("%v %s rotor %d = %#x (%v), want %#x (%v)", layout, w.name, i,
						got, cmd[i], want[k][i], math.Float64frombits(want[k][i]))
				}
			}
		}
	}
}

// TestBuiltinMinMaxMatchMath pins the builtin min and max against
// math.Min and math.Max over finite values, signed zeros and infinities,
// bit for bit. With a NaN operand both yield a NaN, though not the same
// NaN bits, and math's infinity rule wins over its NaN rule
// (math.Max(+Inf, NaN) is +Inf, max(+Inf, NaN) is NaN). Allocate and the
// controller only ever see finite or NaN values, and they compare the
// extremum of a NaN rather than store it.
func TestBuiltinMinMaxMatchMath(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{0, negZero, 1, -1, 0.5, -2.5e300, 5e-324, math.Inf(1), math.Inf(-1)}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := min(a, b), math.Min(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("min(%v, %v) = %v, math.Min = %v", a, b, got, want)
			}
			if got, want := max(a, b), math.Max(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("max(%v, %v) = %v, math.Max = %v", a, b, got, want)
			}
		}
	}
	nan := math.NaN()
	for _, a := range []float64{0, negZero, 1, -1, 0.5, 5e-324, nan} {
		for _, r := range []float64{min(a, nan), min(nan, a), max(a, nan), max(nan, a),
			math.Min(a, nan), math.Max(a, nan)} {
			if !math.IsNaN(r) {
				t.Errorf("extremum of %v and NaN = %v, want NaN", a, r)
			}
		}
	}
	if !math.IsNaN(max(math.Inf(1), nan)) || math.Max(math.Inf(1), nan) != math.Inf(1) {
		t.Error("max/math.Max no longer differ on (+Inf, NaN): update this test's comment")
	}
}

// BenchmarkMixerAllocate times one allocation per airframe on a wrench
// that takes the shift branch.
func BenchmarkMixerAllocate(b *testing.B) {
	for _, layout := range Airframes() {
		b.Run(layout.Slug(), func(b *testing.B) {
			p := DefaultParams()
			p.Layout = layout
			m := NewMixer(p)
			w := goldenWrenches(m.N(), m.MaxThrustPerRotorN())[2]
			var sink Rotors
			for i := 0; i < b.N; i++ {
				sink = m.Allocate(w.thrustN, w.torque)
			}
			_ = sink
		})
	}
}
