package physics

import (
	"math"
	"testing"
	"testing/quick"

	"uavres/internal/mathx"
)

// unitFloat maps a uniform uint64 onto [0, 1).
func unitFloat(u uint64) float64 { return float64(u>>11) / (1 << 53) }

// TestForwardAbsorbsSubnormalRotor: a rotor whose lag state is subnormal
// adds nothing to Forward's sums. For every airframe, rotor 0 at a
// subnormal state gives the same thrust and torque bits as rotor 0 at 0,
// whatever normal thrusts the other rotors carry, so flushing the state
// to 0 in StepWithWind cannot move a result.
func TestForwardAbsorbsSubnormalRotor(t *testing.T) {
	for _, f := range Airframes() {
		p := DefaultParams()
		p.Layout = f
		m := NewMixer(p)
		check := func(sub uint64, others [MaxRotors]uint64) bool {
			var tr Rotors
			for i := 1; i < m.N(); i++ {
				tr[i] = (0.01 + 0.99*unitFloat(others[i])) * p.MaxThrustPerRotorN
			}
			state := math.Float64frombits(1 + sub%(1<<52-1)) // in (0, 2^-1022)
			tr[0] = state * p.MaxThrustPerRotorN
			thrust, torque := m.Forward(tr)
			tr[0] = 0
			thrust0, torque0 := m.Forward(tr)
			return math.Float64bits(thrust) == math.Float64bits(thrust0) &&
				math.Float64bits(torque.X) == math.Float64bits(torque0.X) &&
				math.Float64bits(torque.Y) == math.Float64bits(torque0.Y) &&
				math.Float64bits(torque.Z) == math.Float64bits(torque0.Z)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// TestRotorCommandedOffReachesZero: a spinning rotor commanded to 0 decays
// to exactly 0 and never holds a subnormal state, where the unflushed lag
// recurrence parks on a subnormal fixed point for good. Until then it
// follows that recurrence bit for bit: only subnormals are flushed.
func TestRotorCommandedOffReachesZero(t *testing.T) {
	const dt = 0.001
	p := DefaultParams()
	p.Layout = OctoX
	b, err := NewBody(p, CalmWind())
	if err != nil {
		t.Fatal(err)
	}
	b.SetMotorCommands(Rotors{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	b.Step(dt)
	b.SetMotorCommands(Rotors{0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	// The unflushed recurrence from the same state, for contrast.
	plain, lag := b.RotorStates()[0], 1-math.Exp(-dt/p.MotorTau)
	zeroAt := -1
	for k := 0; k < 60000; k++ {
		b.SetState(State{Att: mathx.QuatIdentity(), Rotor: b.RotorStates()}) // keep the airframe still
		b.Step(dt)
		plain += (0 - plain) * lag
		r := b.RotorStates()[0]
		if r != 0 && math.Abs(r) < 0x1p-1022 {
			t.Fatalf("step %d: rotor 0 state %g is subnormal", k, r)
		}
		if math.Float64bits(r) != math.Float64bits(plain) && (r != 0 || math.Abs(plain) >= 0x1p-1022) {
			t.Fatalf("step %d: rotor 0 state %g, unflushed recurrence %g", k, r, plain)
		}
		if r == 0 && zeroAt < 0 {
			zeroAt = k
		}
		if zeroAt >= 0 && r != 0 {
			t.Fatalf("step %d: rotor 0 left 0 for %g", k, r)
		}
	}
	if zeroAt < 0 {
		t.Fatal("rotor 0 never reached 0")
	}
	if plain == 0 || math.Abs(plain) >= 0x1p-1022 {
		t.Errorf("unflushed recurrence ended at %g; want a subnormal fixed point", plain)
	}
}

// BenchmarkBodyStepRotorOff times one octo step with rotor 0 commanded
// off and settled, the state a float fault leaves for the rest of a
// flight. Its unflushed lag state would sit on a subnormal.
func BenchmarkBodyStepRotorOff(b *testing.B) {
	const dt = 0.001
	p := DefaultParams()
	p.Layout = OctoX
	body, err := NewBody(p, CalmWind())
	if err != nil {
		b.Fatal(err)
	}
	body.SetMotorCommands(Rotors{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	body.Step(dt)
	body.SetMotorCommands(Rotors{0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
	for k := 0; k < 60000; k++ {
		body.Step(dt)
	}
	settled := State{Att: mathx.QuatIdentity(), Rotor: body.RotorStates()}
	wind := mathx.V3(1, 0.5, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.SetState(settled)
		body.StepWithWind(&body.Frame, dt, wind)
	}
}
